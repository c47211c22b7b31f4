"""Reduction of a log-log convex program to a convex program in log space.

Variables are replaced by their logs, atoms by their log-space counterparts:
products become sums, sums become log-sum-exp, literal powers become
scalings, parameter powers become parameter-scaled affine expressions.  The
result is a structurally fixed convex program whose data depend on the
transformed parameter vector beta = C(alpha), where C applies an entrywise
log to positive parameters used multiplicatively and passes exponent
parameters through unchanged.

Affine expressions are represented as term lists; each term multiplies a
coefficient, at most one beta entry, and at most one variable.  Keeping at
most one beta entry per term is what makes the downstream cone data an
affine function of beta.

Auxiliary (epigraph or hypograph) variables are introduced only for
non-affine subexpressions nested inside another atom.  An atom sitting
directly against a bound is lowered against that bound in place, which
keeps the transformed problem free of unconstrained-from-one-side slack
variables whose values a solver would otherwise be free to pick arbitrarily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from llcp.expr import (
    AtomApp,
    Constant,
    Constraint,
    DomainError,
    Elem,
    Expr,
    Parameter,
    Variable,
    _analyze,
    evaluate,
)

__all__ = [
    "LinExpr",
    "ConeConstraint",
    "ConvexProblem",
    "CanonMap",
    "canonicalize",
    "lin_eval",
    "traversal_count",
]

LOG = "log"
PASSTHROUGH = "passthrough"

# incremented once per canonicalization; lets callers assert that cached
# problems are not silently re-canonicalized
_TRAVERSALS = 0


def traversal_count() -> int:
    return _TRAVERSALS


# A LinExpr is a list of (beta_index | None, var_index | None, coef) terms.
LinExpr = list


def lin_const(c: float) -> LinExpr:
    return [(None, None, float(c))] if c != 0.0 else []


def lin_var(idx: int) -> LinExpr:
    return [(None, idx, 1.0)]


def lin_scale(le: LinExpr, s: float) -> LinExpr:
    return [(b, v, c * s) for (b, v, c) in le]


def lin_add(*parts: LinExpr) -> LinExpr:
    out: dict = {}
    for le in parts:
        for b, v, c in le:
            out[(b, v)] = out.get((b, v), 0.0) + c
    return [(b, v, c) for (b, v), c in out.items() if c != 0.0]


def lin_sub(a: LinExpr, b: LinExpr) -> LinExpr:
    return lin_add(a, lin_scale(b, -1.0))


def lin_eval(le: LinExpr, beta: np.ndarray, u: np.ndarray) -> float:
    total = 0.0
    for b, v, c in le:
        t = c
        if b is not None:
            t *= beta[b]
        if v is not None:
            t *= u[v]
        total += t
    return total


@dataclass(frozen=True)
class ConeConstraint:
    """One lowered constraint.

    kind "zero":   expr == 0
    kind "nonneg": expr <= 0
    kind "lse":    log(sum_i exp(args[i])) <= rhs
    kind "expleq": exp(args[0]) <= rhs
    """

    kind: str
    args: tuple
    rhs: LinExpr | None = None


@dataclass
class ConvexProblem:
    """Structurally fixed convex program over log-space variables.

    The first ``n_x`` variables are the logs of the original variables, in
    registration order; auxiliary variables follow in emission order.
    ``objective`` is minimized.
    """

    n_vars: int
    n_x: int
    n_beta: int
    objective: LinExpr
    constraints: list
    var_slices: list          # (Variable, start, stop)


@dataclass
class CanonMap:
    """The parameter map beta = C(alpha) and its derivative.

    ``entries[i]`` is (parameter, element, tag): beta_i is log of that
    parameter element for tag "log" and the raw value for "passthrough".
    ``alpha`` concatenates parameter values in the given parameter order;
    ``index[i]`` is the alpha position of beta_i and ``logged[i]`` marks
    the "log" entries.
    """

    params: list
    entries: list
    offsets: dict = field(init=False)

    def __post_init__(self):
        off, total = {}, 0
        for p in self.params:
            off[id(p)] = total
            total += p.size
        self.offsets = off
        self.n_alpha = total
        self.n_beta = len(self.entries)
        self.index = np.array([off[id(p)] + j for p, j, _ in self.entries],
                              dtype=np.int64)
        self.logged = np.array([tag == LOG for _, _, tag in self.entries],
                               dtype=bool)

    def pack_alpha(self) -> np.ndarray:
        out = np.empty(self.n_alpha)
        for p in self.params:
            if p.value is None:
                raise DomainError(f"parameter {p.name} has no value")
            out[self.offsets[id(p)]:self.offsets[id(p)] + p.size] = p.value
        return out

    def eval_C(self, alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.n_alpha,):
            raise DomainError(
                f"alpha has shape {alpha.shape}, expected ({self.n_alpha},)"
            )
        beta = alpha[self.index]
        sources = beta[self.logged]
        bad = np.flatnonzero(sources <= 0)
        if bad.size:
            i = np.flatnonzero(self.logged)[bad[0]]
            p, j, _ = self.entries[i]
            raise DomainError(
                f"parameter {p.name}[{j}] must be positive, got {beta[i]}"
            )
        # math.log, not np.log: the two differ in the last bit on some inputs
        beta[self.logged] = [math.log(a) for a in sources.tolist()]
        return beta

    def apply_DC(self, alpha: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
        dbeta = np.asarray(dalpha, dtype=float)[self.index]
        dbeta[self.logged] /= np.asarray(alpha)[self.index[self.logged]]
        return dbeta

    def apply_DC_adjoint(self, alpha: np.ndarray,
                         dbeta: np.ndarray) -> np.ndarray:
        w = np.array(dbeta, dtype=float)
        w[self.logged] /= np.asarray(alpha)[self.index[self.logged]]
        # bincount sums each bin in entry order, starting from zero; with no
        # entries it returns integers, hence the cast
        dalpha = np.bincount(self.index, weights=w, minlength=self.n_alpha)
        return dalpha.astype(float, copy=False)


class _Canonicalizer:
    def __init__(self, variables, parameters):
        self.var_slices = []
        self.var_index = {}
        n = 0
        for v in variables:
            self.var_slices.append((v, n, n + v.size))
            for j in range(v.size):
                self.var_index[(id(v), j)] = n + j
            n += v.size
        self.n_x = n
        self.n_vars = n
        self.params = list(parameters)
        self.beta_index = {}
        self.beta_entries = []
        self.constraints = []
        # curvature verdicts by node id; every node analyzed stays referenced
        # by the problem for the whole call, so no id is reused
        self.verdicts = {}

    # -- bookkeeping -----------------------------------------------------

    def new_aux(self) -> int:
        idx = self.n_vars
        self.n_vars += 1
        return idx

    def beta(self, param: Parameter, elem: int, tag: str) -> int:
        key = (id(param), elem, tag)
        idx = self.beta_index.get(key)
        if idx is None:
            idx = len(self.beta_entries)
            self.beta_index[key] = idx
            self.beta_entries.append((param, elem, tag))
        return idx

    def emit(self, kind, args, rhs=None):
        self.constraints.append(ConeConstraint(kind, tuple(args), rhs))

    # -- affine translation ----------------------------------------------

    def affine(self, e: Expr, elem: int) -> LinExpr | None:
        """Log-space affine form of element ``elem``, or None if ``e`` is
        not log-log affine."""
        if e.size == 1:
            elem = 0
        verdict = _analyze(e, self.verdicts)
        if verdict.kind == "constant":
            return lin_const(math.log(float(evaluate(e)[elem])))
        if not verdict.is_affine:
            return None
        if isinstance(e, Variable):
            return lin_var(self.var_index[(id(e), elem)])
        if isinstance(e, Parameter):
            return [(self.beta(e, elem, LOG), None, 1.0)]
        if isinstance(e, Elem):
            if isinstance(e.base, Variable):
                return lin_var(self.var_index[(id(e.base), e.index)])
            return [(self.beta(e.base, e.index, LOG), None, 1.0)]
        assert isinstance(e, AtomApp)
        if e.atom == "mul":
            return lin_add(*[self.affine(a, elem) for a in e.args])
        if e.atom == "ratio":
            return lin_sub(self.affine(e.args[0], elem),
                           self.affine(e.args[1], elem))
        if e.atom == "power":
            base = e.args[0]
            a = e.exponent
            if isinstance(a, float):
                return lin_scale(self.affine(base, elem), a)
            if isinstance(a, Elem):
                b = self.beta(a.base, a.index, PASSTHROUGH)
            else:
                b = self.beta(a, 0, PASSTHROUGH)
            inner = self.affine(base, elem)
            out = []
            for bb, v, c in inner:
                assert bb is None, "parametrized base under parameter power"
                out.append((b, v, c))
            return out
        return None

    # -- bounds ----------------------------------------------------------

    def upper(self, e: Expr, elem: int) -> LinExpr:
        """An affine expression t with value(e) <= t, tight at optimality
        pressure; affine expressions pass through unchanged."""
        aff = self.affine(e, elem)
        if aff is not None:
            return aff
        t = lin_var(self.new_aux())
        self.lower_leq(e, elem, t)
        return t

    def lower(self, e: Expr, elem: int) -> LinExpr:
        aff = self.affine(e, elem)
        if aff is not None:
            return aff
        t = lin_var(self.new_aux())
        self.lower_geq(e, elem, t)
        return t

    # -- recursive lowering ----------------------------------------------

    def lower_leq(self, e: Expr, elem: int, bound: LinExpr):
        """Emit constraints equivalent to log-space value(e) <= bound."""
        if e.size == 1:
            elem = 0
        aff = self.affine(e, elem)
        if aff is not None:
            self.emit("nonneg", (lin_sub(aff, bound),))
            return
        assert isinstance(e, AtomApp), f"cannot lower {e!r}"
        if e.atom == "add":
            args = [self.upper(a, elem) for a in e.args]
            self.emit("lse", args, bound)
            return
        if e.atom == "mul":
            total = lin_add(*[self.upper(a, elem) for a in e.args])
            self.emit("nonneg", (lin_sub(total, bound),))
            return
        if e.atom == "maximum":
            for a in e.args:
                self.lower_leq(a, elem, bound)
            return
        if e.atom == "power":
            a = e.exponent
            assert isinstance(a, float) and a != 0.0
            if a > 0:
                self.lower_leq(e.args[0], elem, lin_scale(bound, 1.0 / a))
            else:
                self.lower_geq(e.args[0], elem, lin_scale(bound, 1.0 / a))
            return
        if e.atom == "ratio":
            num = self.upper(e.args[0], elem)
            den = self.lower(e.args[1], elem)
            self.emit("nonneg", (lin_sub(lin_sub(num, den), bound),))
            return
        if e.atom == "exp":
            self.emit("expleq", (self.upper(e.args[0], elem),), bound)
            return
        raise AssertionError(f"{e.atom} cannot appear on the convex side")

    def lower_geq(self, e: Expr, elem: int, bound: LinExpr):
        """Emit constraints equivalent to log-space value(e) >= bound."""
        if e.size == 1:
            elem = 0
        aff = self.affine(e, elem)
        if aff is not None:
            self.emit("nonneg", (lin_sub(bound, aff),))
            return
        assert isinstance(e, AtomApp), f"cannot lower {e!r}"
        if e.atom == "minimum":
            for a in e.args:
                self.lower_geq(a, elem, bound)
            return
        if e.atom == "mul":
            total = lin_add(*[self.lower(a, elem) for a in e.args])
            self.emit("nonneg", (lin_sub(bound, total),))
            return
        if e.atom == "power":
            a = e.exponent
            assert isinstance(a, float) and a != 0.0
            if a > 0:
                self.lower_geq(e.args[0], elem, lin_scale(bound, 1.0 / a))
            else:
                self.lower_leq(e.args[0], elem, lin_scale(bound, 1.0 / a))
            return
        if e.atom == "ratio":
            num = self.lower(e.args[0], elem)
            den = self.upper(e.args[1], elem)
            self.emit("nonneg", (lin_sub(bound, lin_sub(num, den)),))
            return
        if e.atom == "diff_pos":
            y, x = e.args
            ex = self.upper(x, elem)
            ey = self.lower(y, elem)
            self.emit("lse", (bound, ex), ey)
            return
        if e.atom == "log":
            arg = self.lower(e.args[0], elem)
            self.emit("expleq", (bound,), arg)
            return
        raise AssertionError(f"{e.atom} cannot appear on the concave side")


def canonicalize(sense: str, objective: Expr, constraints,
                 variables, parameters):
    """Lower a validated program to a convex problem plus parameter map.

    ``variables`` and ``parameters`` fix the variable block layout and the
    alpha vector layout.  Returns (ConvexProblem, CanonMap).
    """
    global _TRAVERSALS
    _TRAVERSALS += 1

    canon = _Canonicalizer(variables, parameters)

    if sense not in ("minimize", "maximize"):
        raise ValueError(f"unknown sense {sense!r}")
    aff = canon.affine(objective, 0)
    if aff is not None:
        obj = aff
    else:
        t0 = canon.new_aux()
        if sense == "minimize":
            canon.lower_leq(objective, 0, lin_var(t0))
        else:
            canon.lower_geq(objective, 0, lin_var(t0))
        obj = lin_var(t0)
    if sense == "maximize":
        obj = lin_scale(obj, -1.0)

    for con in constraints:
        for elem in range(con.size):
            if con.op == "==":
                lhs = canon.affine(con.lhs, elem)
                rhs = canon.affine(con.rhs, elem)
                assert lhs is not None and rhs is not None
                canon.emit("zero", (lin_sub(lhs, rhs),))
                continue
            rhs = canon.affine(con.rhs, elem)
            if rhs is not None:
                canon.lower_leq(con.lhs, elem, rhs)
                continue
            lhs = canon.affine(con.lhs, elem)
            if lhs is not None:
                canon.lower_geq(con.rhs, elem, lhs)
                continue
            canon.lower_leq(con.lhs, elem, canon.lower(con.rhs, elem))

    prob = ConvexProblem(
        n_vars=canon.n_vars,
        n_x=canon.n_x,
        n_beta=len(canon.beta_entries),
        objective=obj,
        constraints=canon.constraints,
        var_slices=canon.var_slices,
    )
    cmap = CanonMap(params=list(parameters), entries=list(canon.beta_entries))
    return prob, cmap
