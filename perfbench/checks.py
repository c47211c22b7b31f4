"""Correctness checks whose references do not go through llcp's solver.

* GP feasibility is evaluated in numpy from the instance's numbers.
* The GP optimum is compared with the optimal value of the log-space
  program's Lagrangian dual, computed with SciPy (``dual_log_optimum``,
  about 1 s at n=250) once per instance and run, outside any timed region.
  SLSQP on the primal was tried first and rejected: on some column orders
  of the same program it stops early and still reports success.
* Derivatives are checked by the adjoint identity and against
  extrapolated finite differences of re-solves.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

FEAS_TOL = 1e-6       # relative slack on the posynomial and the box
OPT_TOL = 1e-6        # relative error of the log-optimum
ADJOINT_TOL = 1e-6    # as in the repository's derivative soundness suite
FD_TOL = 1e-4         # relative error of an extrapolated difference,
                      # beyond the extrapolation's own error bound


def dual_log_optimum(data: dict) -> float:
    """Optimal value of the log-space program

        min a0.w  s.t.  phi(w) = log sum_i c_i exp(A_i.w) <= 0,  lo <= w <= hi

    as the maximum of its Lagrangian dual g(lam) = min over the box of
    a0.w + lam * phi(w).  The program has a strictly feasible point, so
    there is no duality gap.  g is concave with slope phi(w(lam)), so lam
    is found by bisection on the sign of phi, and each g(lam) is a smooth
    box-constrained minimization (L-BFGS-B).  A primal point is not
    recovered: w(lam) is not unique at the optimal lam, because the Hessian
    of phi has rank m.
    """
    A, c = data["A"], data["c"]
    a0 = A[0]
    logc = np.log(c)
    lo, hi = np.log(data["l"]), np.log(data["u"])
    bounds = list(zip(lo, hi))

    def phi(w):
        z = A @ w + logc
        top = z.max()
        e = np.exp(z - top)
        return top + np.log(e.sum()), (e / e.sum()) @ A

    w = np.where(a0 > 0.0, lo, hi)      # minimizer of the objective alone
    if phi(w)[0] <= 0.0:
        return float(a0 @ w)

    def dual(lam, start):
        def lagrangian(v):
            value, grad = phi(v)
            return a0 @ v + lam * value, a0 + lam * grad
        res = minimize(lagrangian, start, jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"gtol": 1e-13, "ftol": 1e-16,
                                               "maxiter": 20000})
        return float(res.fun), phi(res.x)[0], res.x

    lam_lo, lam_hi = 0.0, 1.0
    best, slope, w = dual(lam_hi, w)
    while slope > 0.0:
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
        value, slope, w = dual(lam_hi, w)
        best = max(best, value)
    while lam_hi - lam_lo > 1e-13 * lam_hi:
        lam = 0.5 * (lam_lo + lam_hi)
        value, slope, w = dual(lam, w)
        best = max(best, value)
        if slope > 0.0:
            lam_lo = lam
        else:
            lam_hi = lam
    return best


def gp_feasible(data: dict, x) -> bool:
    """Posynomial and box constraints at x, evaluated in numpy."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        return False
    posy = float(data["c"] @ np.exp(data["A"] @ np.log(x)))
    return (posy <= 1.0 + FEAS_TOL
            and np.all(x >= data["l"] * (1.0 - FEAS_TOL))
            and np.all(x <= data["u"] * (1.0 + FEAS_TOL)))


def gp_optimal(value, reference: float) -> bool:
    if value is None or not value > 0.0:
        return False
    return abs(np.log(value) - reference) <= OPT_TOL * max(1.0, abs(reference))


def _norm(parts: dict) -> float:
    return float(np.sqrt(sum(float(np.dot(v, v)) for v in parts.values())))


def adjoint_identity(forward: dict, gradients: dict, deltas: dict,
                     backward: dict) -> bool:
    """<g, derivative(delta)> == <backward(g), delta>.

    The error is measured against the norms whose product bounds each side
    (Cauchy-Schwarz), not against the sums themselves: with a few hundred
    random directions the sums cancel down to a small fraction of the
    terms."""
    lhs = sum(float(np.dot(gradients[k], forward[k])) for k in forward)
    rhs = sum(float(np.dot(backward[k], deltas[k])) for k in backward)
    scale = max(_norm(gradients) * _norm(forward),
                _norm(backward) * _norm({k: deltas[k] for k in backward}), 1.0)
    return abs(lhs - rhs) <= ADJOINT_TOL * scale


def fd_slope(at, h: float):
    """Derivative of at(t) at t=0 from central differences D(step) with a
    Richardson step R(step) = 2 D(step/2) - D(step).

    The step cancels an O(h) error as well as the usual O(h^2).  At the
    fitting model's solutions, which llcp flags as nonsmooth, plain central
    differences of the loss converge only like h (the second derivative
    jumps there).  Returns R(h/2) and |R(h) - R(h/2)|, which bounds its
    error while the leftover error is O(h^2)."""
    def central(step):
        return (np.asarray(at(step)) - np.asarray(at(-step))) / (2.0 * step)
    d1, d2, d4 = central(h), central(h / 2.0), central(h / 4.0)
    coarse, fine = 2.0 * d2 - d1, 2.0 * d4 - d2
    return fine, np.abs(coarse - fine)


def fd_agrees(fd, analytic) -> bool:
    """``fd`` is (estimate, error bound) from ``fd_slope``."""
    estimate, bound = (np.atleast_1d(np.asarray(v, dtype=float)) for v in fd)
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    scale = max(np.linalg.norm(estimate), np.linalg.norm(analytic))
    return (np.linalg.norm(estimate - analytic)
            <= FD_TOL * scale + np.linalg.norm(bound))
