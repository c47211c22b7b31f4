"""User-facing problems: solve, sensitivities, and gradients.

A Problem bundles an objective sense, an expression tree, and
constraints over positive variables.  Solving lowers the program once
to cone data (the lowering is cached and reused when only parameter
values change), calls the operator-splitting solver with the solver
workspace of earlier solves, and maps the log domain optimum back
through exp.  With derivatives enabled, the solved
problem supports two linear maps:

  derivative()  pushes parameter perturbations (``delta`` on each
                parameter) forward to first-order variable changes;
  backward()    pulls a gradient with respect to the variables
                (``gradient`` on each variable) back to parameters.

Both are chained through the parameter transform, the affine data map,
and the cone-program solution map, without materializing Jacobians.

``Problem.solve_batch`` solves one compiled problem at many values of
some of its parameters, one column per value, and each column supports
the same two maps.
"""

from __future__ import annotations

import time

import numpy as np

from .canon import canonicalize
from .compiler import compile_problem
from .diff import ResidualPoint, dphi, dphi_adjoint, linearize
from .expr import (
    Constraint,
    ShapeError,
    _as_expr,
    _leaves,
    explain_failure,
)
from . import solver

__all__ = ["Column", "Maximize", "Minimize", "NoDerivativeStateError",
           "NotDgpError", "Problem"]


class NotDgpError(ValueError):
    """The program violates the composition grammar; see .diagnostic."""

    def __init__(self, diagnostic):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


class NoDerivativeStateError(RuntimeError):
    """derivative()/backward() called without a derivative-enabled solve."""


class Minimize:
    """Objective sense wrapper for minimization."""

    sense = "minimize"

    def __init__(self, expr):
        self.expr = _as_expr(expr)


class Maximize:
    """Objective sense wrapper for maximization."""

    sense = "maximize"

    def __init__(self, expr):
        self.expr = _as_expr(expr)


def _leaf_field(leaf, field, default):
    raw = getattr(leaf, field)
    if raw is None:
        return default
    arr = np.atleast_1d(np.asarray(raw, dtype=float)).ravel()
    if arr.size != leaf.size:
        raise ShapeError(
            f"{leaf.name}.{field} has size {arr.size}, expected {leaf.size}")
    return arr


class _Outcome:
    """What a solve leaves behind: ``status``, ``value``, ``solution`` and
    ``stats``; after a solve with derivatives, ``nonsmooth`` tells whether
    the solution map kinks there, and ``unique`` is False when the optimum
    leaves a variable free (NonuniqueWarning).  It also holds the warm
    start, derivative state and solver workspace that the next solve and
    derivative() and backward() use."""

    def __init__(self):
        self.status = None
        self.value = None
        self.solution = None
        self.stats = None
        self.nonsmooth = False
        self.unique = True
        self._point = None
        self._alpha = None
        self._warm = None
        self._workspace = None

    def _finish(self, problem, sol, alpha, beta, derivatives, t_start,
                solver_time, linearized):
        """Record sol, the cone solution of problem at (alpha, beta): the
        status, value, variable values, warm start, derivative state and
        stats.  The derivative point, made when derivatives and sol is
        optimal, takes the next (z, jacobian) of the iterator linearized
        (diff.linearize).  Returns the value, None unless optimal."""
        prob, _, pmap = problem._compiled
        self.status = sol.status
        self.solution = sol
        self.value = None
        self.nonsmooth = False
        self.unique = True
        if sol.status == "optimal":
            self._keep({var: np.exp(sol.x[lo:hi])
                        for var, lo, hi in prob.var_slices})
            sign = -1.0 if problem.objective.sense == "maximize" else 1.0
            self.value = float(np.exp(sign * prob.objective_value(beta,
                                                                  sol.x)))
            if derivatives:
                self._point = ResidualPoint(sol.embedding, sol.x, sol.y,
                                            sol.s, pmap.n_x, next(linearized))
                self.nonsmooth = self._point.nonsmooth
                self.unique = self._point.unique
                self._alpha = alpha
            # the point also seeds the next warm solve (solver.solve_batch)
            self._warm = (sol.x, sol.y, sol.s, sol.scale, self._point)
        self.stats = {"total_time": time.perf_counter() - t_start,
                      "solver_time": solver_time,
                      "iterations": sol.iterations,
                      "scale": sol.scale,
                      "factorizations": sol.factorizations,
                      "accelerations": sol.accelerations,
                      "rejections": sol.rejections}
        return self.value

    def _take_warm(self, warm_start):
        """The warm start (x, y, s, scale, point) if warm_start, else None;
        either way the outcome keeps (x, y, s, scale) without the point."""
        warm = self._warm
        if warm is not None:
            self._warm = warm[:4]
        return warm if warm_start else None


class Column(_Outcome):
    """One column of ``Problem.solve_batch``: the outcome of the solve at
    one row of the batched parameter values.  ``values`` maps each
    variable's name to its optimal value there, None until a solve of
    the column is optimal."""

    def __init__(self):
        super().__init__()
        self.values = None

    def _keep(self, values):
        self.values = {var.name: value for var, value in values.items()}


class Problem(_Outcome):
    """An optimization problem over positive variables.

    The structure (objective and constraints) is fixed at construction;
    parameter values may change freely between solves and reuse the
    cached lowering.  After ``solve`` each variable's ``value`` holds
    the optimum, and ``status``, ``value``, and ``solution`` describe
    the solve.  After ``solve(derivatives=True)``, ``nonsmooth`` tells
    whether the solution map kinks there, and ``unique`` is False when
    the optimum leaves a variable free (NonuniqueWarning).  ``columns``
    holds the Columns of the last ``solve_batch``.
    """

    def __init__(self, objective, constraints=()):
        super().__init__()
        if not isinstance(objective, (Minimize, Maximize)):
            raise TypeError("objective must be Minimize(...) or Maximize(...)")
        self.objective = objective
        self.constraints = tuple(constraints)
        for con in self.constraints:
            if not isinstance(con, Constraint):
                raise TypeError(f"not a constraint: {con!r}")
        sides = [objective.expr]
        for con in self.constraints:
            sides.append(con.lhs)
            sides.append(con.rhs)
        variables, parameters = _leaves(*sides)
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        self._compiled = None
        self.columns = []

    # -- grammar -------------------------------------------------------

    def is_dgp(self) -> bool:
        return self.explain() is None

    def explain(self):
        """Diagnostic for the first grammar violation, or None."""
        need = "convex" if self.objective.sense == "minimize" else "concave"
        msg = explain_failure(self.objective.expr, need, "objective")
        if msg:
            return msg
        for k, con in enumerate(self.constraints):
            where = f"constraints[{k}]"
            if con.op == "==":
                for side, expr in (("lhs", con.lhs), ("rhs", con.rhs)):
                    msg = explain_failure(expr, "affine", f"{where}.{side}")
                    if msg:
                        return msg
            else:
                msg = (explain_failure(con.lhs, "convex", f"{where}.lhs")
                       or explain_failure(con.rhs, "concave", f"{where}.rhs"))
                if msg:
                    return msg
        return None

    # -- lowering cache ------------------------------------------------

    def _ensure_compiled(self):
        if self._compiled is None:
            msg = self.explain()
            if msg is not None:
                raise NotDgpError(msg)
            prob, cmap = canonicalize(
                self.objective.sense, self.objective.expr, self.constraints,
                self.variables, self.parameters)
            self._compiled = (prob, cmap, compile_problem(prob))
        return self._compiled

    # -- solving -------------------------------------------------------

    def solve(self, *, derivatives=False, eps=1e-8, max_iters=100000,
              warm_start=True):
        """Solve and return the optimal objective value.

        Returns None and leaves variable values untouched when the
        solver reports anything but optimality; the outcome is always
        recorded in ``status``.  With derivatives=True a successful
        solve retains the state consumed by derivative() and backward(),
        and with warm_start the next solve starts from it: when only
        parameters that leave the cone matrix A unchanged moved, that
        solve first takes Gauss-Newton steps from this solution with its
        derivative state's factor, and ends at 0 iterations when they
        meet eps.  Its stats report the solver time, and the time since
        this call began.
        """
        return _solve(self, [derivatives], eps, max_iters, warm_start)[0]

    def solve_batch(self, values, *, derivatives=False, eps=1e-8,
                    max_iters=100000, warm_start=True):
        """Solve the compiled problem at k values of some parameters.

        ``values`` maps each batched parameter to a (k, size) array; the
        other parameters keep their values.  Row j of every array makes
        column j, whose solve ends in ``columns[j]`` (a Column) with the
        status, value, solution, stats, variable values, warm start and
        derivative state that solve() leaves on the problem;
        derivative(column=j) and backward(column=j) act on it.  One pass
        of the parameter map and one product with the data map give every
        column's cone data.  Columns with one cone matrix are solved
        together, by one solver.solve_batch on one solver Workspace that
        each of them keeps for later solves; their stats report the solver
        time of that whole batch.  With warm_start, column j starts from
        column j of the last solve_batch.  derivatives is one flag for
        every column, or one flag per column.  The problem's own outcome
        and its variables' values stay as they were.  Returns the columns'
        values, None where a solve was not optimal.
        """
        if not values:
            raise ValueError("solve_batch needs at least one batched "
                             "parameter")
        k = len(np.atleast_2d(next(iter(values.values()))))
        checked = {}
        for p, rows in values.items():
            if not any(p is q for q in self.parameters):
                raise ValueError(f"{p!r} is not a parameter of the problem")
            rows = np.asarray(rows, dtype=float)
            if rows.shape != (k, p.size):
                raise ShapeError(f"parameter {p.name}: values have shape "
                                 f"{rows.shape}, expected ({k}, {p.size})")
            checked[p] = p.checked(rows)
        if isinstance(derivatives, bool):
            derivatives = [derivatives] * k
        derivatives = list(derivatives)
        if len(derivatives) != k:
            raise ValueError(f"{len(derivatives)} derivative flags for {k} "
                             "columns")
        return _solve(self, derivatives, eps, max_iters, warm_start, checked)

    def _keep(self, values):
        for var, value in values.items():
            var.value = value

    def _columns(self, k):
        """The k columns of a batch solve: the last batch's first k, then
        new ones."""
        self.columns = self.columns[:k] + [Column() for _ in
                                           range(k - len(self.columns))]
        return self.columns

    # -- sensitivities ---------------------------------------------------

    def _require_point(self, column):
        """The outcome of the solve, or of its column, with derivative
        state, and the compiled problem."""
        at = self if column is None else self.columns[column]
        if at._point is None:
            raise NoDerivativeStateError(
                "no derivative state: solve(derivatives=True) must succeed "
                "before calling derivative() or backward()")
        return (at, *self._compiled)

    def derivative(self, column=None):
        """First-order variable changes for the parameter ``delta``s.

        Reads each parameter's ``delta`` (default zero), writes each
        variable's ``delta``, and returns {variable name: delta}.  With
        ``column``, at that column of the last solve_batch.
        """
        at, prob, cmap, pmap = self._require_point(column)
        dalpha = np.concatenate(
            [_leaf_field(p, "delta", np.zeros(p.size))
             for p in self.parameters]) if self.parameters else np.zeros(0)
        dbeta = cmap.apply_DC(at._alpha, dalpha)
        dxhat = dphi(at._point, pmap.apply_T(dbeta))
        out = {}
        for var, lo, hi in prob.var_slices:
            var.delta = np.exp(at._point.x[lo:hi]) * dxhat[lo:hi]
            out[var.name] = var.delta
        return out

    def backward(self, column=None):
        """Gradient of sum(gradient_i . x_i) with respect to parameters.

        Reads each variable's ``gradient`` (default all ones), writes
        each parameter's ``gradient``, and returns {parameter name:
        gradient}.  With ``column``, at that column of the last
        solve_batch.
        """
        at, prob, cmap, pmap = self._require_point(column)
        dxhat = np.zeros(pmap.n)
        for var, lo, hi in prob.var_slices:
            g = _leaf_field(var, "gradient", np.ones(var.size))
            dxhat[lo:hi] = np.exp(at._point.x[lo:hi]) * g
        dtheta = dphi_adjoint(at._point, dxhat)
        dalpha = cmap.apply_DC_adjoint(at._alpha,
                                       pmap.apply_T_adjoint(dtheta))
        out = {}
        pos = 0
        for p in self.parameters:
            p.gradient = dalpha[pos:pos + p.size]
            out[p.name] = p.gradient
            pos += p.size
        return out


def _solve(problem, derivatives, eps, max_iters, warm_start, values=None):
    """The work of solve, on the problem's own outcome with one derivative
    flag, and of solve_batch: with values, the checked batched parameter
    values, on its columns with one flag per column."""
    t_start = time.perf_counter()
    _, cmap, pmap = problem._ensure_compiled()
    alpha = cmap.pack_alpha(values)
    beta = cmap.eval_C(alpha)
    cone = pmap.instantiate(beta)
    if values is None:
        alpha, beta, cone, outcomes = [alpha], [beta], [cone], [problem]
    else:
        outcomes = problem._columns(len(alpha))
    # the outcomes grouped by A: instantiate gives the rows with equal A
    # one matrix, and one compiled problem has one shape and dims
    groups = {}
    for k, (A, _, _) in enumerate(cone):
        groups.setdefault(id(A), []).append(k)
    results = [None] * len(outcomes)
    for members in groups.values():
        A, dims = cone[members[0]][0], pmap.dims
        held = [outcomes[k]._workspace for k in members
                if outcomes[k]._workspace is not None]
        workspace = held[0] if held else solver.Workspace(A, dims)
        bs = [cone[k][1] for k in members]
        cs = [cone[k][2] for k in members]
        for k in members:
            # the old derivative state goes before the solver runs; only
            # now, so that a bad value above left every outcome as it was
            outcomes[k]._point = None
        # the solver takes each warm start as it reads it, and with it the
        # point, which then lives until its column has used it
        warm = (outcomes[k]._take_warm(warm_start) for k in members)
        t_solver = time.perf_counter()
        # one program enters by solver.solve, a span the benchmark's
        # tracer requires (REQUIRED_ALL, tests/test_perfbench_targets.py)
        if len(members) == 1:
            sols = [solver.solve(A, bs[0], cs[0], dims, eps=eps,
                                 max_iters=max_iters, warm_start=next(warm),
                                 workspace=workspace)]
        else:
            sols = solver.solve_batch(A, bs, cs, dims, eps=eps,
                                      max_iters=max_iters, warm_starts=warm,
                                      workspace=workspace)
        solver_time = time.perf_counter() - t_solver
        # the derivative points, linearized together, in the order
        # _finish makes them
        linearized = linearize([sol for k, sol in zip(members, sols)
                                if derivatives[k] and sol.status == "optimal"])
        for k, sol in zip(members, sols):
            outcomes[k]._workspace = workspace
            results[k] = outcomes[k]._finish(problem, sol, alpha[k], beta[k],
                                             derivatives[k], t_start,
                                             solver_time, linearized)
    return results
