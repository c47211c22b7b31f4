"""Reduction of a log-log convex program to a convex program in log space.

Variables are replaced by their logs, atoms by their log-space counterparts:
products become sums, sums become log-sum-exp, literal powers become
scalings, parameter powers become parameter-scaled affine expressions.  The
result is a structurally fixed convex program whose data depend on the
transformed parameter vector beta = C(alpha), where C applies an entrywise
log to positive parameters used multiplicatively, passes exponent
parameters through unchanged, and maps a positive parameter p raised to a
parameter exponent a to the product a*log(p).  C is smooth where the
logged parameters are positive, and is the paper's parameter map.

Affine expressions are represented as term lists; each term multiplies a
coefficient, at most one beta entry, and at most one variable.  Keeping at
most one beta entry per term is what makes the downstream cone data an
affine function of beta.

The lowering is written once for both senses (value <= bound and >=) and
reads the composition rule from ``expr._slots``: an argument in a
nondecreasing slot is bounded in the same sense, one in a nonincreasing
slot in the opposite sense.

Auxiliary (epigraph or hypograph) variables are introduced only for
non-affine subexpressions nested inside another atom.  An atom sitting
directly against a bound is lowered against that bound in place, which
keeps the transformed problem free of unconstrained-from-one-side slack
variables whose values a solver would otherwise be free to pick arbitrarily.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from llcp.expr import (
    NONDECR,
    NONINCR,
    AtomApp,
    Constant,
    Constraint,
    DomainError,
    Elem,
    Expr,
    Parameter,
    Variable,
    _slots,
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
PRODUCT = "product"

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
    # Python floats: indexing them costs a fraction of numpy scalars, with
    # the same double arithmetic
    beta, u = np.asarray(beta).tolist(), np.asarray(u).tolist()
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

    @functools.cached_property
    def _objective_table(self):
        """The objective's (beta index, var index, coef) columns, -1 for
        a missing index."""
        rows = [(-1 if b is None else b, -1 if v is None else v, c)
                for b, v, c in self.objective]
        table = np.array(rows, dtype=float).reshape(-1, 3)
        return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), \
            table[:, 2]

    def objective_value(self, beta, u) -> float:
        """lin_eval(self.objective, beta, u) in one numpy pass: each
        term's product is the same, their sum is pairwise."""
        b, v, c = self._objective_table
        # index -1 reads the appended one, a factor a term lacks
        return float(np.sum(c * np.append(beta, 1.0)[b]
                            * np.append(u, 1.0)[v]))


@dataclass
class CanonMap:
    """The parameter map beta = C(alpha) and its derivative.

    ``entries[i]`` is (parameter, element, tag): beta_i is log of that
    parameter element for tag "log", the raw value for "passthrough", and
    for "product" the element times log of the positive base element
    ``bases[i]`` = (parameter, element), so that dbeta_i = log(p) da +
    (a/p) dp.  ``alpha`` concatenates parameter values in the given
    parameter order; ``index[i]`` is the alpha position of beta_i's
    element and ``logged[i]`` marks the "log" entries.  A program without
    product entries pays nothing for them.
    """

    params: list
    entries: list
    bases: dict = field(default_factory=dict)
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
        # the product entries, which bases lists, and the alpha positions
        # of their bases
        self.product = np.fromiter(self.bases, dtype=np.int64,
                                   count=len(self.bases))
        self.base_index = np.array([off[id(p)] + j for p, j in
                                    self.bases.values()], dtype=np.int64)
        # the sources of the last eval_C and their logs
        self._logs = (np.empty(0), np.empty(0))

    def pack_alpha(self, values=None) -> np.ndarray:
        """The parameter values as alpha; with ``values``, a dict of
        (k, size) arrays for some parameters, a (k, n_alpha) alpha whose
        row j takes row j of each of those and the others' values."""
        rows = () if values is None else (len(next(iter(values.values()))),)
        out = np.empty(rows + (self.n_alpha,))
        for p in self.params:
            value = p.value if values is None else values.get(p, p.value)
            if value is None:
                raise DomainError(f"parameter {p.name} has no value")
            out[..., self.offsets[id(p)]:self.offsets[id(p)] + p.size] = value
        return out

    @staticmethod
    def _sized(vec, size: int, name: str, rows=False) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (size,) and not (rows and vec.ndim == 2
                                         and vec.shape[1] == size):
            raise DomainError(
                f"{name} has shape {vec.shape}, expected ({size},)"
            )
        return vec

    @staticmethod
    def _log(values: np.ndarray) -> np.ndarray:
        # math.log, not np.log: the two differ in the last bit on some
        # inputs
        return np.array([math.log(a) for a in values.tolist()])

    def eval_C(self, alpha: np.ndarray) -> np.ndarray:
        """beta = C(alpha); a (k, n_alpha) alpha gives one row of beta per
        row."""
        # on the transpose the entries index the first axis, for one row or
        # k, so one row takes numpy's fast one-dimensional indexing
        alpha = self._sized(alpha, self.n_alpha, "alpha", rows=True).T
        beta = alpha[self.index]
        sources = beta[self.logged]
        if self.product.size:
            sources = np.concatenate([sources, alpha[self.base_index]])
        flat = sources.reshape(-1)
        bad = np.flatnonzero(flat <= 0)
        if bad.size:
            # the sources: the "log" entries' elements, then the bases
            names = ([self.entries[i][:2] for i in np.flatnonzero(self.logged)]
                     + list(self.bases.values()))
            p, j = names[bad[0] * len(names) // flat.size]
            raise DomainError(
                f"parameter {p.name}[{j}] must be positive, got {flat[bad[0]]}"
            )
        # a source equal to the last call's keeps its log, so a re-solve
        # after a change to a few parameters takes a few logs
        last, logs = self._logs
        if last.shape == flat.shape:
            logs = logs.copy()
            new = np.flatnonzero(flat != last)
        else:
            logs = np.empty(flat.size)
            new = np.arange(flat.size)
        logs[new] = self._log(flat[new])
        self._logs = (flat, logs)
        logs = logs.reshape(sources.shape)
        if self.product.size:
            n_log = len(sources) - self.product.size
            beta[self.product] *= logs[n_log:]
            logs = logs[:n_log]
        beta[self.logged] = logs
        return beta.T

    def apply_DC(self, alpha: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
        alpha = self._sized(alpha, self.n_alpha, "alpha")
        dalpha = self._sized(dalpha, self.n_alpha, "dalpha")
        dbeta = dalpha[self.index]
        dbeta[self.logged] /= alpha[self.index[self.logged]]
        if self.product.size:
            a = alpha[self.index[self.product]]
            p = alpha[self.base_index]
            dbeta[self.product] = (self._log(p) * dbeta[self.product]
                                   + a / p * dalpha[self.base_index])
        return dbeta

    def apply_DC_adjoint(self, alpha: np.ndarray,
                         dbeta: np.ndarray) -> np.ndarray:
        alpha = self._sized(alpha, self.n_alpha, "alpha")
        w = self._sized(dbeta, self.n_beta, "dbeta").copy()
        w[self.logged] /= alpha[self.index[self.logged]]
        index = self.index
        if self.product.size:
            a = alpha[self.index[self.product]]
            p = alpha[self.base_index]
            wp = w[self.product]
            w[self.product] = self._log(p) * wp
            # each base's terms follow every entry's
            index = np.concatenate([index, self.base_index])
            w = np.concatenate([w, a / p * wp])
        # bincount sums each bin in entry order, starting from zero; with no
        # entries it returns integers, hence the cast
        dalpha = np.bincount(index, weights=w, minlength=self.n_alpha)
        return dalpha.astype(float, copy=False)


# the sense an argument is bounded in, relative to its application's
_DIRECTION = {NONDECR: 1, NONINCR: -1}


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
        self.bases = {}
        self.constraints = []

    # -- bookkeeping -----------------------------------------------------

    def new_aux(self) -> int:
        idx = self.n_vars
        self.n_vars += 1
        return idx

    def beta(self, param: Parameter, elem: int, tag: str,
             base=None) -> int:
        """The index of beta entry (param, elem, tag), with its base
        (parameter, element) for a product entry."""
        key = ((id(param), elem, tag) if base is None
               else (id(param), elem, tag, id(base[0]), base[1]))
        idx = self.beta_index.get(key)
        if idx is None:
            idx = len(self.beta_entries)
            self.beta_index[key] = idx
            self.beta_entries.append((param, elem, tag))
            if base is not None:
                self.bases[idx] = base
        return idx

    def emit(self, kind, args, rhs=None):
        self.constraints.append(ConeConstraint(kind, tuple(args), rhs))

    # -- affine translation ----------------------------------------------

    def affine(self, e: Expr, elem: int) -> LinExpr | None:
        """Log-space affine form of element ``elem``, or None if ``e`` is
        not log-log affine."""
        if e.size == 1:
            elem = 0
        kind = e.verdict.kind
        if kind == "constant":
            return lin_const(math.log(float(evaluate(e)[elem])))
        if kind != "affine":
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
        if e.atom in ("mul", "ratio"):
            return self.log_sum(e, lambda a, d: self.affine(a, elem))
        if e.atom == "power":
            base = e.args[0]
            a = e.exponent
            if isinstance(a, float):
                return lin_scale(self.affine(base, elem), a)
            ref, j = (a.base, a.index) if isinstance(a, Elem) else (a, 0)
            leaf = base.base if isinstance(base, Elem) else base
            if isinstance(leaf, Parameter):
                # a positive parameter base, the one parametrized base the
                # grammar admits: log(p**a) = a*log(p), one beta entry
                k = base.index if leaf is not base else elem
                return [(self.beta(ref, j, PRODUCT, (leaf, k)), None, 1.0)]
            # a base without parameters: a times its log-space form (a
            # loop: a comprehension's call costs more on its one term)
            b = self.beta(ref, j, PASSTHROUGH)
            out = []
            for _, v, c in self.affine(base, elem):
                out.append((b, v, c))
            return out
        return None

    def log_sum(self, e: AtomApp, form) -> LinExpr:
        """Log of a mul or ratio from ``form(arg, direction)`` per argument;
        an argument in a nonincreasing slot enters negated."""
        parts = []
        for a, slot in zip(e.args, _slots(e)[1]):
            d = _DIRECTION[slot]
            part = form(a, d)
            parts.append(part if d > 0 else lin_scale(part, -1.0))
        return lin_add(*parts)

    # -- recursive lowering ----------------------------------------------

    def bound(self, e: Expr, elem: int, sense: int) -> LinExpr:
        """An affine t with value(e) <= t (sense 1) or >= t (sense -1),
        tight under optimality pressure; an affine ``e`` is its own bound."""
        aff = self.affine(e, elem)
        if aff is not None:
            return aff
        t = lin_var(self.new_aux())
        self.lower(e, elem, t, sense)
        return t

    def lower(self, e: Expr, elem: int, bound: LinExpr, sense: int):
        """Emit constraints equivalent to log-space value(e) <= bound for
        sense 1 and value(e) >= bound for sense -1.

        One rule serves both senses: an argument in a nondecreasing slot of
        ``expr._slots`` is bounded in the same sense, one in a nonincreasing
        slot (a power with a negative exponent) in the opposite sense.  Only
        add and exp (sense 1) and diff_pos and log (sense -1) have recipes
        of their own, each valid on the one side the grammar admits.
        """
        value = self.affine(e, elem)
        if value is None:
            assert isinstance(e, AtomApp), f"cannot lower {e!r}"
            if e.atom in ("mul", "ratio"):
                value = self.log_sum(
                    e, lambda a, d: self.bound(a, elem, sense * d))
        if value is not None:
            lo, hi = (value, bound) if sense > 0 else (bound, value)
            self.emit("nonneg", (lin_sub(lo, hi),))
        elif e.atom == ("maximum" if sense > 0 else "minimum"):
            for a in e.args:
                self.lower(a, elem, bound, sense)
        elif e.atom == "power":
            a = e.exponent
            assert isinstance(a, float) and a != 0.0
            d = _DIRECTION[_slots(e)[1][0]]
            self.lower(e.args[0], elem, lin_scale(bound, 1.0 / a), sense * d)
        elif e.atom == "add" and sense > 0:
            self.emit("lse", [self.bound(a, elem, 1) for a in e.args], bound)
        elif e.atom == "exp" and sense > 0:
            self.emit("expleq", (self.bound(e.args[0], elem, 1),), bound)
        elif e.atom == "diff_pos" and sense < 0:
            y, x = e.args
            ex = self.bound(x, elem, 1)
            ey = self.bound(y, elem, -1)
            self.emit("lse", (bound, ex), ey)
        elif e.atom == "log" and sense < 0:
            self.emit("expleq", (bound,), self.bound(e.args[0], elem, -1))
        else:
            raise AssertionError(f"{e.atom} has no recipe for sense {sense}")


def canonicalize(sense: str, objective: Expr, constraints,
                 variables, parameters):
    """Lower a validated program to a convex problem plus parameter map.

    ``variables`` and ``parameters`` fix the variable block layout and the
    alpha vector layout.  Returns (ConvexProblem, CanonMap).
    """
    global _TRAVERSALS
    _TRAVERSALS += 1

    canon = _Canonicalizer(variables, parameters)

    sign = {"minimize": 1, "maximize": -1}.get(sense)
    if sign is None:
        raise ValueError(f"unknown sense {sense!r}")
    obj = lin_scale(canon.bound(objective, 0, sign), sign)

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
                canon.lower(con.lhs, elem, rhs, 1)
                continue
            lhs = canon.affine(con.lhs, elem)
            if lhs is not None:
                canon.lower(con.rhs, elem, lhs, -1)
                continue
            canon.lower(con.lhs, elem, canon.bound(con.rhs, elem, -1), 1)

    prob = ConvexProblem(
        n_vars=canon.n_vars,
        n_x=canon.n_x,
        n_beta=len(canon.beta_entries),
        objective=obj,
        constraints=canon.constraints,
        var_slices=canon.var_slices,
    )
    cmap = CanonMap(params=list(parameters), entries=list(canon.beta_entries),
                    bases=canon.bases)
    return prob, cmap
