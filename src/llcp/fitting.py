"""Training a sorted-output monomial regression model.

The model maps a positive input x to the solution of a small program:

    minimize    sum(z/y + y/z)
    subject to  y[0] <= y[1] <= ... <= y[m-1]
                z[i] == c[i] * x[0]**A[i,0] * ... * x[n-1]**A[i,n-1]

over y and z.  The prediction is the optimal y: the sorted vector whose
entries are closest, in fractional error, to the m monomial features z.
The learnable weights are the exponents A and the coefficients c.

``fit`` trains the weights by projected gradient descent on the mean
squared prediction loss.  Gradients flow through each training solve via
the adjoint of the solution map, and the projection keeps c strictly
positive by clamping.  The input x is a positive parameter of the one
program that ``fit`` compiles: each x[j]**A[i,j] is one entry
A[i,j]*log(x[j]) of the parameter map, the paper's layer.  The inputs
enter the cone data only through b, so all samples share one cone
matrix: each evaluation of the weights solves the program at every
sample's input in one batch (Problem.solve_batch), one column per
sample, warm-started from the previous evaluation, and one factor of
the matrix serves all of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .expr import Constant, Parameter, Variable, add
from .problem import Minimize, Problem

__all__ = [
    "FitResult",
    "fit",
    "least_squares_monomials",
    "model_problem",
    "predict",
    "synthetic_data",
]

logger = logging.getLogger(__name__)

C_FLOOR = 1e-6


def model_problem(x, A: Parameter, c: Parameter) -> Problem:
    """Build the regression program for the input vector x.

    x is an array, which the program holds as constants, or a positive
    Parameter, whose values solve_batch may batch.  A is the row-major
    (m*n)-vector of exponents and c the m positive coefficients; both may
    be shared across many inputs.
    """
    leaves = ([x[j] for j in range(x.size)] if isinstance(x, Parameter)
              else [Constant(v) for v in np.asarray(x, dtype=float)])
    m, n = c.size, len(leaves)
    if A.size != m * n:
        raise ValueError(f"A has size {A.size}, expected {m}*{n}")
    y = Variable("y", m)
    z = Variable("z", m)
    terms = []
    constraints = []
    for i in range(m):
        terms += [z[i] / y[i], y[i] / z[i]]
        mono = c[i]
        for j in range(n):
            mono = mono * leaves[j] ** A[i * n + j]
        constraints.append(z[i] == mono)
    for i in range(m - 1):
        constraints.append(y[i] <= y[i + 1])
    return Problem(Minimize(add(*terms)), constraints)


def predict(A_mat, c_vec, x, eps: float = 1e-8):
    """Model output for one input, with freshly built weights."""
    A_mat = np.asarray(A_mat, dtype=float)
    m, n = A_mat.shape
    A = Parameter("A", m * n, value=A_mat.ravel())
    c = Parameter("c", m, positive=True, value=c_vec)
    prob = model_problem(x, A, c)
    if prob.solve(eps=eps) is None:
        raise RuntimeError(f"prediction solve ended with {prob.status}")
    return dict((v.name, v.value) for v in prob.variables)["y"]


def synthetic_data(N: int, n: int, m: int, seed: int = 0,
                   n_val: int | None = None):
    """Sorted-regression dataset from a hidden ground-truth model.

    Inputs are log-normal.  Each output is the hidden model's prediction
    on a noisy copy of the input (the noise makes the dataset merely
    close to the model family, not exactly realizable).  Returns
    (X_train, Y_train, X_val, Y_val, A_star, c_star).  Raises ValueError,
    before any solve, if either split would be empty.
    """
    if n_val is None:
        n_val = N // 2
    if N < 1 or n_val < 1:
        raise ValueError(f"need at least one training and one validation "
                         f"sample, got N={N} and n_val={n_val}")
    rng = np.random.default_rng(seed)
    A_star = rng.normal(0.0, 0.1, size=(m, n))
    c_star = np.abs(rng.standard_normal(m))

    def split(count):
        X = np.exp(rng.standard_normal((count, n)))
        Y = np.empty((count, m))
        for k in range(count):
            noisy = X[k] + np.exp(rng.standard_normal(n))
            Y[k] = predict(A_star, c_star, noisy)
        return X, Y

    X_train, Y_train = split(N)
    X_val, Y_val = split(n_val)
    return X_train, Y_train, X_val, Y_val, A_star, c_star


def least_squares_monomials(X, Y):
    """Independent monomial fit of each output coordinate.

    Regressing log y_i on log x with an intercept gives the exponent row
    A[i] and log-coefficient; this is the classical data-fitting warm
    start for geometric programming.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    design = np.column_stack([np.ones(X.shape[0]), np.log(X)])
    coef, *_ = np.linalg.lstsq(design, np.log(Y), rcond=None)
    A_mat = coef[1:].T
    c_vec = np.exp(coef[0])
    return A_mat, np.maximum(c_vec, C_FLOOR)


@dataclass
class FitResult:
    """Trained weights plus the per-iteration loss trail.

    val_predictions holds each validation sample's output y at the
    returned weights, from the solves behind the last row's val_mse
    (None where that solve was skipped).  solves, iterations and
    factorizations total the call's sample solves, their ADMM
    iterations and the factors of the cone matrix they computed."""

    A: np.ndarray
    c: np.ndarray
    A_init: np.ndarray
    c_init: np.ndarray
    history: list = field(default_factory=list)
    val_predictions: list = field(default_factory=list)
    skipped_solves: int = 0
    solves: int = 0
    iterations: int = 0
    factorizations: int = 0

    @property
    def initial_train_mse(self) -> float:
        return self.history[0]["train_mse"]

    @property
    def final_train_mse(self) -> float:
        return self.history[-1]["train_mse"]


def _mse_and_grad(model, first, Y, A, c, want_grad):
    """Mean squared loss over the solved samples, the model's columns
    from first on, one per row of Y; optionally its A/c gradient, which
    needs their derivative state.

    Samples whose solve did not reach optimality are logged and left
    out of both the average and the gradient.
    """
    total = 0.0
    used = 0
    skipped = 0
    grad_A = np.zeros(A.size)
    grad_c = np.zeros(c.size)
    variables = {v.name: v for v in model.variables}
    for k, column in enumerate(model.columns[first:first + len(Y)]):
        if column.status != "optimal":
            logger.warning("sample %d: solver returned %s; skipping",
                           k, column.status)
            skipped += 1
            continue
        residual = column.values["y"] - Y[k]
        total += float(residual @ residual)
        used += 1
        if want_grad:
            variables["y"].gradient = residual
            variables["z"].gradient = np.zeros(c.size)
            grads = model.backward(column=first + k)
            grad_A += grads["A"]
            grad_c += grads["c"]
    if used == 0:
        raise RuntimeError("every sample failed to solve")
    scale = 1.0 / used
    return total * scale, 2.0 * scale * grad_A, 2.0 * scale * grad_c, skipped


def fit(X_train, Y_train, X_val, Y_val, *, iters: int = 10,
        step: float = 0.1, eps: float = 1e-8,
        max_iters: int = 100000) -> FitResult:
    """Projected gradient descent from the least-squares warm start.

    Each iteration records the train and validation mean squared error
    at the current weights, then takes one descent step; the final row
    of ``history`` reflects the returned weights.  ``iters=0`` returns
    the least-squares initialization itself.  The descent stops early,
    at the current weights, once the training MSE is at most eps^2 times
    the mean squared norm of the training outputs: the solves, accurate
    to eps, resolve no descent below that (an exactly fittable dataset
    starts there).  Raises ValueError, before any solve, for iters < 0 or
    an empty training or validation set.
    """
    if iters < 0:
        raise ValueError(f"iters must be at least 0, got {iters}")
    if len(X_train) == 0 or len(X_val) == 0:
        raise ValueError(f"need at least one training and one validation "
                         f"sample, got {len(X_train)} and {len(X_val)}")
    Y_train = np.asarray(Y_train, dtype=float)
    Y_val = np.asarray(Y_val, dtype=float)
    A_mat, c_vec = least_squares_monomials(X_train, Y_train)
    m, n = A_mat.shape
    floor = eps ** 2 * float(np.mean(np.sum(Y_train ** 2, axis=1)))

    A = Parameter("A", m * n, value=A_mat.ravel())
    c = Parameter("c", m, positive=True, value=c_vec)
    x = Parameter("x", n, positive=True)
    model = model_problem(x, A, c)
    # one column per sample, the training samples first
    inputs = {x: np.vstack([X_train, X_val])}
    N = len(Y_train)

    result = FitResult(A=A_mat.copy(), c=c_vec.copy(),
                       A_init=A_mat.copy(), c_init=c_vec.copy())
    for iteration in range(iters + 1):
        A.set_value(result.A.ravel())
        c.set_value(result.c)
        last = iteration == iters
        # only the training samples' gradients are used
        model.solve_batch(inputs, eps=eps, max_iters=max_iters,
                          derivatives=[not last] * N + [False] * len(Y_val))
        result.solves += len(model.columns)
        for column in model.columns:
            result.iterations += column.solution.iterations
            result.factorizations += column.solution.factorizations
        train_mse, grad_A, grad_c, skipped = _mse_and_grad(
            model, 0, Y_train, A, c, want_grad=not last)
        val_mse, _, _, val_skipped = _mse_and_grad(
            model, N, Y_val, A, c, want_grad=False)
        result.skipped_solves += skipped + val_skipped
        done = last or train_mse <= floor
        if done:
            result.val_predictions = [
                col.values["y"] if col.status == "optimal" else None
                for col in model.columns[N:]]
        result.history.append({"iteration": iteration,
                               "train_mse": train_mse, "val_mse": val_mse})
        logger.info("iteration %d: train mse %.6g, val mse %.6g",
                    iteration, train_mse, val_mse)
        if done:
            break
        result.A = result.A - step * grad_A.reshape(m, n)
        result.c = np.maximum(result.c - step * grad_c, C_FLOOR)
    return result
