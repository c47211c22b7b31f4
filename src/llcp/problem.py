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
"""

from __future__ import annotations

import time

import numpy as np

from .canon import canonicalize
from .compiler import compile_problem
from .diff import ResidualPoint, dphi, dphi_adjoint
from .expr import (
    Constraint,
    ShapeError,
    _as_expr,
    explain_failure,
    parameters_of,
    variables_of,
)
from . import solver

__all__ = ["Maximize", "Minimize", "NoDerivativeStateError", "NotDgpError",
           "Problem", "solve_many"]


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


class Problem:
    """An optimization problem over positive variables.

    The structure (objective and constraints) is fixed at construction;
    parameter values may change freely between solves and reuse the
    cached lowering.  After ``solve`` each variable's ``value`` holds
    the optimum, and ``status``, ``value``, and ``solution`` describe
    the solve.  After ``solve(derivatives=True)``, ``nonsmooth`` tells
    whether the solution map kinks there, and ``unique`` is False when
    the optimum leaves a variable free (NonuniqueWarning).
    """

    def __init__(self, objective, constraints=()):
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
        self.variables = tuple(variables_of(*sides))
        self.parameters = tuple(parameters_of(*sides))
        self._compiled = None
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
        solve retains the state consumed by derivative() and backward().
        This is solve_many with one problem.
        """
        return _solve([self], [derivatives], eps, max_iters, warm_start)[0]

    def _finish(self, sol, alpha, beta, derivatives, t_start, solver_time):
        """Record sol, the cone solution at (alpha, beta): the status,
        value, variable values, warm start, derivative state and stats.
        Returns the value, None unless optimal."""
        prob = self._compiled[0]
        self.status = sol.status
        self.solution = sol
        self.value = None
        self.nonsmooth = False
        self.unique = True
        if sol.status == "optimal":
            self._warm = (sol.x, sol.y, sol.s, sol.scale)
            for var, lo, hi in prob.var_slices:
                var.value = np.exp(sol.x[lo:hi])
            sign = -1.0 if self.objective.sense == "maximize" else 1.0
            self.value = float(np.exp(sign * prob.objective_value(beta,
                                                                  sol.x)))
            if derivatives:
                self._point = ResidualPoint(sol.embedding, sol.x, sol.y,
                                            sol.s, n_x=self._compiled[2].n_x)
                self.nonsmooth = self._point.nonsmooth
                self.unique = self._point.unique
                self._alpha = alpha
        self.stats = {"total_time": time.perf_counter() - t_start,
                      "solver_time": solver_time,
                      "iterations": sol.iterations,
                      "scale": sol.scale,
                      "factorizations": sol.factorizations,
                      "accelerations": sol.accelerations,
                      "rejections": sol.rejections}
        return self.value

    # -- sensitivities ---------------------------------------------------

    def _require_point(self):
        if self._point is None:
            raise NoDerivativeStateError(
                "no derivative state: solve(derivatives=True) must succeed "
                "before calling derivative() or backward()")
        prob, cmap, pmap = self._compiled
        return prob, cmap, pmap

    def derivative(self):
        """First-order variable changes for the parameter ``delta``s.

        Reads each parameter's ``delta`` (default zero), writes each
        variable's ``delta``, and returns {variable name: delta}.
        """
        prob, cmap, pmap = self._require_point()
        dalpha = np.concatenate(
            [_leaf_field(p, "delta", np.zeros(p.size))
             for p in self.parameters]) if self.parameters else np.zeros(0)
        dbeta = cmap.apply_DC(self._alpha, dalpha)
        dxhat = dphi(self._point, pmap.apply_T(dbeta))
        out = {}
        for var, lo, hi in prob.var_slices:
            var.delta = np.exp(self._point.x[lo:hi]) * dxhat[lo:hi]
            out[var.name] = var.delta
        return out

    def backward(self):
        """Gradient of sum(gradient_i . x_i) with respect to parameters.

        Reads each variable's ``gradient`` (default all ones), writes
        each parameter's ``gradient``, and returns {parameter name:
        gradient}.
        """
        prob, cmap, pmap = self._require_point()
        dxhat = np.zeros(pmap.n)
        for var, lo, hi in prob.var_slices:
            g = _leaf_field(var, "gradient", np.ones(var.size))
            dxhat[lo:hi] = np.exp(self._point.x[lo:hi]) * g
        dtheta = dphi_adjoint(self._point, dxhat)
        dalpha = cmap.apply_DC_adjoint(self._alpha,
                                       pmap.apply_T_adjoint(dtheta))
        out = {}
        pos = 0
        for p in self.parameters:
            p.gradient = dalpha[pos:pos + p.size]
            out[p.name] = p.gradient
            pos += p.size
        return out


def solve_many(problems, *, derivatives=False, eps=1e-8, max_iters=100000,
               warm_start=True):
    """Solve several problems, those with one cone matrix together.

    Problems whose cone programs share A and dims, such as one model
    instantiated on many inputs, are solved by one solver.solve_batch
    on one solver Workspace, which each of them keeps for later solves.
    Each problem ends with its status, value, variable values, warm
    start, derivative state and stats; Problem.solve is solve_many of
    one problem.  Its stats report the solver time of its whole batch,
    and the time since this call began.  derivatives is one flag for
    every problem, or one flag per problem.  Returns the values, None
    where a solve was not optimal.  Problems that share a workspace
    must not be solved from two threads at once.
    """
    problems = list(problems)
    if isinstance(derivatives, bool):
        derivatives = [derivatives] * len(problems)
    derivatives = list(derivatives)
    if len(derivatives) != len(problems):
        raise ValueError(f"{len(derivatives)} derivative flags for "
                         f"{len(problems)} problems")
    return _solve(problems, derivatives, eps, max_iters, warm_start)


def _solve(problems, derivatives, eps, max_iters, warm_start):
    """solve_many's work, with one derivative flag per problem."""
    t_start = time.perf_counter()
    data = []
    groups = {}
    for k, prob in enumerate(problems):
        _, cmap, pmap = prob._ensure_compiled()
        alpha = cmap.pack_alpha()
        beta = cmap.eval_C(alpha)
        A, b, c = pmap.instantiate(beta)
        key = (A.shape, A.indptr.tobytes(), A.indices.tobytes(),
               A.data.tobytes(), tuple(sorted(pmap.dims.items())))
        groups.setdefault(key, []).append(k)
        data.append((alpha, beta, A, b, c, pmap.dims))
    values = [None] * len(problems)
    for members in groups.values():
        A, dims = data[members[0]][2], data[members[0]][5]
        held = [problems[k]._workspace for k in members
                if problems[k]._workspace is not None]
        workspace = held[0] if held else solver.Workspace(A, dims)
        bs = [data[k][3] for k in members]
        cs = [data[k][4] for k in members]
        warm = [problems[k]._warm if warm_start else None for k in members]
        for k in members:
            # the old point's factor is freed before the solver allocates;
            # only now, so that a bad problem above left every one as it was
            problems[k]._point = None
        t_solver = time.perf_counter()
        # one program enters by solver.solve, a span the benchmark's
        # tracer requires (REQUIRED_ALL, tests/test_perfbench_targets.py)
        if len(members) == 1:
            sols = [solver.solve(A, bs[0], cs[0], dims, eps=eps,
                                 max_iters=max_iters, warm_start=warm[0],
                                 workspace=workspace)]
        else:
            sols = solver.solve_batch(A, bs, cs, dims, eps=eps,
                                      max_iters=max_iters, warm_starts=warm,
                                      workspace=workspace)
        solver_time = time.perf_counter() - t_solver
        for k, sol in zip(members, sols):
            problems[k]._workspace = workspace
            values[k] = problems[k]._finish(sol, *data[k][:2], derivatives[k],
                                            t_start, solver_time)
    return values
