"""Operator-splitting solver for cone programs.

Solves

    minimize    c'x
    subject to  Ax + s = b,  s in K

with K a product of zero, nonnegative, and exponential cones, together
with the dual variable y in K*.  The method is ADMM on the homogeneous
self-dual embedding (embedding.Embedding, which also holds the residual
map and its Jacobian), run in the metric R = diag(rho_x I, rho_y I, 1)
(O'Donoghue, "Operator splitting for a homogeneous embedding of the
linear complementarity problem", 2021).  Each iteration takes one linear
solve with R + Q and one cone projection; R is uniform on each cone
block, so the projection is the Euclidean one.  The linear solve reuses a
sparse factorization of the quasidefinite matrix
[[rho_x I, A'], [A, -rho_y I]], which does not depend on b or c, and
eliminates tau with a rank-one correction computed once per solve and
scale.
rho_x is fixed; rho_y, the scale, follows the ratio of the dual to the
primal residual, and each change of it refactors K.  A Gauss-Newton
polish on the normalized residual map pushes the returned point to tight
tolerances once ADMM has found the neighborhood.  Each of its steps is a
least-squares solve with the map's Jacobian M at the point
(Embedding.jacobian, whose ReducedJacobian docstring states the policy):
LSQR on M G, with G the generalized inverse from one sparse LU of M's
reduced matrix, a few iterations where LSQR on M alone takes dozens.

The iteration is a fixed-point map w -> T(w) of w = u - v, the vector it
projects, and type-II Anderson acceleration (Walker & Ni, 2011) extends
it: every _AA_EVERY iterations the next w is extrapolated from the last
_AA_MEM differences of T(w) and of its residual T(w) - w, by a
regularized least-squares fit in the metric R; its tau - kappa
coordinate is left as the plain step has it.  A safeguard (as in Zhang,
O'Donoghue & Boyd, 2020) tests each extrapolation on the next iteration:
if its residual, relative to its size, exceeds that of the point before
it, the iteration goes back to the plain w and the memory is cleared.  A
change of scale, which changes the map, clears the memory too.  The
memories of all programs form one stack of rings (_Anderson): one
batched product gives every program's Gram matrix and right-hand side,
and one its step, and each program's arithmetic is that of its own
solve.  The acceleration has no setting; it only moves the iterates, so
the checks, certificates and polish read iterates as before.

What depends on A alone (the equilibration, the pattern of Q and the
factors of K) lives in a Workspace, which a caller that re-solves with
new b and c passes back to skip that work.

A warm start may also hold the diff.ResidualPoint of its solution, the
linearization that derivatives use.  When only b and c moved since, the
program first takes Gauss-Newton steps from that solution with the
point's factor (_held_steps), the refinement of Busseti, Moursi & Boyd
("Solution refinement at regular points of conic problems", 2019), and
the first step is the solution map's first-order sensitivity.  A program
whose steps meet eps ends at iteration 0, before any factor of K or
ADMM iteration; any other runs the ADMM loop from its warm start as if
it had held no point.

solve_batch runs this loop for many programs with one A and one cone,
in lockstep on stacks of iterates, one column per program.  Programs at
one scale share one factor of K, and each iteration makes one solve with
it on all their columns and one projection of all their exponential
triples, which are then enough to run the root finds as one numpy loop.
Each program keeps its own tau elimination, checks, polish, certificates,
scale and acceleration memory, a column of the acceleration's stack, and
leaves the stack when it ends.  solve is the batch of one, which runs on
vectors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .cones import project_cone
from .embedding import Embedding, canonical

__all__ = ["ConeSolution", "DataError", "Workspace", "solve", "solve_batch"]

_ALPHA = 1.5
_RUIZ_ITERS = 10
_CHECK_EVERY = 25
_CERT_EVERY = 100
# type-II Anderson acceleration of the iterate w (_Anderson): one
# extrapolation every _AA_EVERY iterations, on those that are _AA_PHASE
# past a multiple of it, from the last _AA_MEM secant pairs, with a
# Tikhonov term _AA_REG * ||G'G|| on their Gram matrix G'G.  No
# extrapolation falls on a check iteration, so the safeguard has decided
# on each before a check reads the iterate or changes the scale.
# _AA_MEM <= _AA_EVERY: the rings hold the pairs since the last
# extrapolation
_AA_MEM = 10
_AA_EVERY = 10
_AA_PHASE = 1
_AA_REG = 1e-8
# the polish starts from iterates within this residual, however loose eps
# is: from farther away Gauss-Newton can overflow without helping
_POLISH_FROM = 1e-6
_POLISH_STEPS = 10
# R = diag(_RHO_X I, scale I, 1).  Every _CERT_EVERY iterations the scale
# is multiplied by sqrt(dres / pres) of the raw iterate when that ratio
# leaves [1 / _SCALE_BAND, _SCALE_BAND], and K is refactored.  The clamp
# keeps a scale that runs away from refactoring K at every such check
_RHO_X = 1e-6
_SCALE_START = 1.0
_SCALE_BAND = 3.0
_SCALE_MIN = 1e-6
_SCALE_MAX = 1e6


class DataError(ValueError):
    """Cone program data contains NaN or Inf."""


@dataclass(frozen=True)
class ConeSolution:
    """Solution of a cone program.

    On status "optimal" the triple (x, y, s) satisfies the primal and
    dual residual bounds and the duality gap at the reported values, s
    lies in the cone and y in its dual, and complementarity holds by
    construction.  On "max_iters" (x, y, s) is the best candidate of all
    checks, raw iterate or polish, with its residuals, or NaN if tau
    collapsed at every check.  On "infeasible" y is a Farkas certificate
    scaled to b'y = -1; on "unbounded" x is a ray scaled to c'x = -1;
    residual fields are NaN for certificates.  This holds for every
    shape, including programs without variables or constraints.
    iterations counts the ADMM steps taken before the check that ended
    the solve.  scale is the final rho_y of the metric and factorizations
    the number of factors of K this solve computed: one per change of
    scale, plus one for the starting scale unless the workspace already
    held that factor, so 0 on a re-solve with unchanged A and scale.
    accelerations counts the Anderson extrapolations that the safeguard
    kept, and rejections those it reverted.  A solve that ends in the
    Gauss-Newton steps from a held point (see solve) reports iterations
    0, factorizations 0, no acceleration, and the warm start's scale.
    Pass (x, y, s, scale) of a previous solution as warm_start when
    re-solving with nearby data, and its diff.ResidualPoint as a fifth
    part when there is one.

    embedding is the Embedding of the unscaled (A, b, c) that the solve
    polished with; diff.ResidualPoint reuses it.  Each solve has its own,
    which a later solve leaves as it is.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    iterations: int
    pres: float
    dres: float
    gap: float
    scale: float
    factorizations: int
    accelerations: int
    rejections: int
    embedding: Embedding = field(repr=False, compare=False)


def _validate(A, b, c):
    if not (np.isfinite(A.data).all() and np.isfinite(b).all()
            and np.isfinite(c).all()):
        raise DataError("cone program data contains NaN or Inf")


def _equilibrate(A, dims):
    """Ruiz scaling (As, d, e), As = diag(d) A diag(e); exponential-cone
    triples get a uniform row factor.

    The passes work on the CSC arrays of A: each scales entry (i, j) as
    dr[i] * a * dc[j], the rounding order of diags(dr) @ A @ diags(dc).
    """
    m, n = A.shape
    base = dims["zero"] + dims["nonneg"]
    # sorted, summed and without stored zeros: the form a sparse product
    # returns, and the pattern the factor of K is built on
    A = sp.csc_matrix(A, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    rows = A.indices
    cols = np.repeat(np.arange(n), np.diff(A.indptr))
    data = A.data
    d = np.ones(m)
    e = np.ones(n)
    for _ in range(_RUIZ_ITERS):
        absdata = np.abs(data)
        rmax = np.zeros(m)
        np.maximum.at(rmax, rows, absdata)
        cmax = np.zeros(n)
        np.maximum.at(cmax, cols, absdata)
        peak = np.concatenate(
            [rmax[:base], np.repeat(rmax[base:].reshape(-1, 3).max(axis=1), 3)])
        dr = np.ones(m)
        pos = peak > 0.0
        dr[pos] = 1.0 / np.sqrt(peak[pos])
        dc = np.where(cmax > 0.0, 1.0 / np.sqrt(np.maximum(cmax, 1e-300)), 1.0)
        data = dr[rows] * data * dc[cols]
        d *= dr
        e *= dc
    As = sp.csc_matrix((data, rows, A.indptr), shape=(m, n))
    return As, d, e


def _metric(n, m, scale):
    """The diagonal of R = diag(_RHO_X I, scale I, 1)."""
    return np.concatenate([np.full(n, _RHO_X), np.full(m, scale), [1.0]])


def _factor_kkt(A, r):
    """Sparse LU of the quasidefinite K = [[Rx, A'], [A, -Ry]].

    Rx and Ry are the diagonal blocks of R = diag(r) with r > 0.  Every
    symmetric permutation of a quasidefinite matrix factors without
    pivoting, so the factor keeps a symmetric minimum-degree order, which
    puts the dense posynomial rows last and keeps the fill about linear
    in the size of A.  A column eliminated ahead of its rows has the
    pivot rho_x = 1e-6 against entries near one, a growth that cost the
    steps on hello five digits; the 1e-2 threshold swaps such a pivot off
    the diagonal, and leaves the other pivots where the order put them.
    """
    m, n = A.shape
    K = sp.bmat([[sp.diags(r[:n]), A.T], [A, sp.diags(-r[n:n + m])]],
                format="csc")
    return spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-2,
                     options={"SymmetricMode": True})


class Workspace:
    """What a solve computes from A alone, kept for the next solve.

    Built from (A, dims), it holds the Embedding of A's pattern, A's
    values with their Ruiz factors (As, d, e), the transposes AT and AsT
    of A and As, and the factors of K at the scales the last solve's
    programs ended at, by scale.  solve() and solve_batch() compare each
    A's values with the held ones: equal values keep the equilibration,
    the transposes and the factors, other values recompute them all.  A
    with another pattern, or other dims, raises ValueError.  Not safe to
    share between threads.
    """

    def __init__(self, A, dims):
        A = canonical(A)
        m, n = A.shape
        self.dims = dict(dims)
        self.embedding = Embedding(A, np.zeros(m), np.zeros(n), dims)
        self._indptr = A.indptr.copy()
        self._indices = A.indices.copy()
        self._values = None
        self._factors = {}

    def load(self, A, dims):
        """Make the equilibration that of the canonical A (As, d, e)."""
        if (dims != self.dims or A.shape != (self.embedding.m,
                                             self.embedding.n)
                or not np.array_equal(A.indptr, self._indptr)
                or not np.array_equal(A.indices, self._indices)):
            raise ValueError("A or dims differ from the workspace's")
        if self._values is None or not np.array_equal(A.data, self._values):
            self.As, self.d, self.e = _equilibrate(A, dims)
            # made once here, not at each check and certificate test; AT
            # is a copy, so a later change to the caller's A cannot reach it
            self.AT, self.AsT = A.T.copy(), self.As.T
            self._values = A.data.copy()
            self._factors = {}

    def factor(self, scale):
        """The factor of K at scale, and the number of factors computed
        for it (0 when one at that scale is held, else 1)."""
        lu = self._factors.get(scale)
        if lu is not None:
            return lu, 0
        m, n = self.As.shape
        lu = self._factors[scale] = _factor_kkt(self.As, _metric(n, m, scale))
        return lu, 1

    def retain(self, scales):
        """Drop the factors at scales not in scales."""
        self._factors = {k: lu for k, lu in self._factors.items()
                         if k in scales}


class _HsdStep:
    """Solves (R + Q) u = R w for the embedding of (A, b, c), R = diag(r).

    With M = [[Rx, A'], [-A, Ry]] and h = (c, b), R + Q = [[M, h],
    [-h', r_tau]].  Eliminating tau gives

        tau = (r_tau w[-1] + h'M^-1 (Rw)[:-1]) / (r_tau + h'M^-1 h),
        u[:-1] = M^-1 (Rw)[:-1] - tau M^-1 h.

    M is K = [[Rx, A'], [A, -Ry]] with its second block row negated, so
    each M^-1 is one solve with the factor lu of K (_factor_kkt(A, r)),
    which does not depend on b or c.  The symmetric part of M^-1 is
    positive definite, so the denominator is at least r_tau.

    b and c may be (m, k) and (n, k) stacks of k programs, one per
    column, that share A and r; then w is an (N, k) stack too, and each
    call makes one solve with lu on a k-column right-hand side.  Each
    column's dot products are taken on their own, so a column's result
    does not depend on the others.  solve returns one buffer, which the
    next call overwrites.
    """

    def __init__(self, lu, b, c, r):
        self._lu = lu
        sign = np.concatenate([np.ones(len(c)), -np.ones(len(b))])[:, None]
        h = np.concatenate([c, b])
        # column-major, as the factor's solves return their results
        self._h = np.asfortranarray(h if h.ndim == 2 else h[:, None])
        self._p = lu.solve(sign * self._h)
        self._r_tau = float(r[-1])
        self._denom = self._r_tau + _dots(self._h.T, self._p.T)
        self._signed_r = sign * r[:-1, None]
        self._out = np.empty((sign.size + 1, self._h.shape[1]))
        # one program's columns as vectors, for solve on a vector
        self._one = (self._signed_r[:, 0], self._h[:, 0], self._p[:, 0],
                     self._denom[0], self._out[:, 0], self._out[:-1, 0])

    def solve(self, w):
        if w.ndim == 1:
            # one program, in vectors and floats: the same arithmetic
            # without a stack's overhead
            signed_r, h, p, denom, out, head = self._one
            z = self._lu.solve(signed_r * w[:-1])
            tau = (self._r_tau * w[-1] + float(h @ z)) / denom
            np.multiply(tau, p, out=head)
            np.subtract(z, head, out=head)
            out[-1] = tau
            return out
        z = self._lu.solve(self._signed_r * w[:-1])
        tau = (self._r_tau * w[-1] + _dots(self._h.T, z.T)) / self._denom
        head = self._out[:-1]
        np.multiply(tau, self._p, out=head)
        np.subtract(z, head, out=head)
        self._out[-1] = tau
        return self._out


def _dots(X, Y):
    """The dot product of each row of the stack X with the same row of
    Y, each a BLAS dot of its own, as x @ y of the two rows would take
    it."""
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def _residuals(A, AT, b, c, x, y, s):
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(AT @ y + c) / (1.0 + np.linalg.norm(c))
    px = float(c @ x)
    dy = float(b @ y)
    gap = abs(px + dy) / (1.0 + abs(px) + abs(dy))
    return pres, dres, gap


def _certificates(A, AT, b, c, u, v, tol):
    """Farkas-style tests on the raw iterates; AT is A's transpose."""
    m, n = A.shape
    uy = u[n:n + m]
    bty = float(b @ uy)
    if bty < 0.0:
        yhat = uy / -bty
        if np.linalg.norm(AT @ yhat) <= tol:
            return "infeasible", yhat
    ux = u[:n]
    ctx = float(c @ ux)
    if ctx < 0.0:
        xhat = ux / -ctx
        shat = v[n:n + m] / -ctx
        if np.linalg.norm(A @ xhat + shat) <= tol:
            return "unbounded", xhat
    return None, None


def _refine(emb, z, eps):
    """Gauss-Newton on the residual map F of emb with tau pinned to one.

    Takes full steps while each one lowers ||F||, at most _POLISH_STEPS,
    until ||F|| <= eps * 1e-3.  F is positively homogeneous, so z is
    renormalized after every step.  Returns the polished z, which is the
    input with tau pinned to one if the first step does not help.
    """
    def norm_tau(zz):
        return zz / max(zz[-1], 1e-300)

    z = norm_tau(z)
    Fz = emb.residual(z)
    norm = np.linalg.norm(Fz)
    for _ in range(_POLISH_STEPS):
        if norm <= eps * 1e-3:
            break
        dz = emb.jacobian(z).lsqr(-Fz)[0]
        cand = norm_tau(z + dz)
        Fc = emb.residual(cand)
        nc = np.linalg.norm(Fc)
        if not nc < norm:  # a NaN residual stops the polish too
            break
        z, Fz, norm = cand, Fc, nc
    return z


def _held_steps(pi, cols, points, eps):
    """The solutions of the columns cols whose Gauss-Newton steps from
    their held points meet eps, each at iteration 0, else None.

    Each point is the diff.ResidualPoint of a previous solution (x, y, s)
    on the columns' A; column p starts at its z0 = (x, y - s, 1), where its
    data moved b and c alone.  Every step is the tau-pinned least-squares
    step with the point's M, its tau row that of the column's b and c
    (Embedding.tau_row, ReducedJacobian.bordered), so no step linearizes
    or factors anything.  The first right-hand side is -F(z0) = -dQ u
    for the held u = Pi(z0), the first-order sensitivity of the
    solution.  The columns step in lockstep, with one projection of all
    their candidates per step.  Like _refine, a column keeps a step
    while it lowers ||F||, at most _POLISH_STEPS, and once ||F|| <=
    eps * 1e-3 it takes one more, kept if ||F|| still falls.  Then its
    point is a candidate on the unscaled data.
    """
    steps = [pt.jacobian.bordered(pi.tau_row(pt.jacobian, col.b, col.c))
             for col, pt in zip(cols, points)]
    # (k, N) stacks, one contiguous row per column, so that each column's
    # arithmetic is that of its program alone
    z = np.array([pt.z for pt in points])
    u = np.array([pt.u for pt in points])
    F = np.array([col.emb.residual(zp, up) for col, zp, up in zip(cols, z, u)])
    norm = np.sqrt(_dots(F, F))
    last = norm <= eps * 1e-3
    running = list(range(len(cols)))
    for _ in range(_POLISH_STEPS):
        if not running:
            break
        cand = z[running] + np.array([steps[p](-F[p]) for p in running])
        cand /= np.maximum(cand[:, -1:], 1e-300)
        uc = np.ascontiguousarray(pi.project(np.ascontiguousarray(cand.T)).T)
        Fc = np.array([cols[p].emb.residual(zp, up)
                       for p, zp, up in zip(running, cand, uc)])
        nc = np.sqrt(_dots(Fc, Fc))
        still = []
        for q, p in enumerate(running):
            if not nc[q] < norm[p]:  # a NaN residual stops it too
                continue
            z[p], u[p], F[p], norm[p] = cand[q], uc[q], Fc[q], nc[q]
            if not last[p]:
                last[p] = norm[p] <= eps * 1e-3
                still.append(p)
        running = still
    out = []
    for col, up, zp in zip(cols, u, z):
        cand = col.candidate(up, up - zp)
        ok = cand is not None and max(cand[3:]) <= eps
        out.append(col._ending("optimal", 0, *cand) if ok else None)
    return out


def solve(A, b, c, dims, *, eps=1e-8, max_iters=100000, warm_start=None,
          workspace=None):
    """Solve the cone program given by (A, b, c, dims).

    dims maps cone names to sizes: zero and nonneg count rows, exp
    counts triples; rows are ordered zero, nonneg, then exponential.
    Returns a ConeSolution; infeasibility and iteration exhaustion are
    reported through its status, while non-finite numeric data raises
    DataError.  warm_start takes (x, y, s), (x, y, s, scale) or
    (x, y, s, scale, point) from a previous solution, point being the
    diff.ResidualPoint of that (x, y, s) (or None); parts of the wrong
    shape, or a scale that is not finite and positive, are ignored.  A
    point counts when it was made on data with this A (pattern, values
    and dims) and its reduction has a factor: the solve then first takes
    Gauss-Newton steps from it, and ends at iteration 0 when they meet
    eps, else runs as without the point.  workspace is a Workspace of an
    earlier solve with A's pattern and dims, which this solve reuses and
    updates; without one the solve builds its own.  The result does not
    depend on the workspace passed.

    One stop rule serves every check: every _CHECK_EVERY iterations, and
    once more at max_iters (also max_iters = 0), the unscaled iterate is
    a candidate, and so is its polish when the iterate is within the
    polish tolerance (at first _POLISH_FROM, whatever eps is).  The
    solve ends "optimal" at the first check whose best candidate so far
    has max(pres, dres, gap) <= eps, so with eps looser than
    _POLISH_FROM it usually ends on the unpolished iterate.  A polish
    that falls short tightens the polish tolerance 100-fold, not below
    eps, which bounds the number of polishes when eps is out of reach.
    Every _CERT_EVERY iterations, after the check, a certificate
    confirmed on the unscaled data ends the solve; otherwise the scale
    adapts to the check's raw iterate.  At the cap the best candidate of
    all checks is returned as "max_iters".  eps must be finite and
    positive and max_iters a nonnegative integer, or ValueError is raised
    before any work.

    This is solve_batch with one program.
    """
    return solve_batch(A, [b], [c], dims, eps=eps, max_iters=max_iters,
                       warm_starts=[warm_start], workspace=workspace)[0]


class _Column:
    """One program of a batch: its data, scale and candidates so far."""

    def __init__(self, workspace, A, b, c):
        self.A, self.AT = A, workspace.AT
        self.b, self.c = b, c
        self.bs, self.cs = b * workspace.d, c * workspace.e
        self.emb = workspace.embedding.at(np.concatenate([A.data, b, c]))
        self.scale = _SCALE_START
        self.factorizations = 0
        self.accelerations = 0
        self.rejections = 0
        self.polish_tol = _POLISH_FROM
        self.best = None
        self.raw = None

    def set_scale(self, scale, workspace):
        m, n = workspace.As.shape
        self.scale = scale
        self.r = _metric(n, m, scale)
        self.lu, computed = workspace.factor(scale)
        self.factorizations += computed

    def unscaled(self, u, v, d, e):
        """The pair (u, Rv) of the original data; Rv is (0, s, kappa)."""
        n, m = e.size, d.size
        rv = self.r * v
        return (np.concatenate([u[:n] * e, u[n:n + m] * d, u[-1:]]),
                np.concatenate([rv[:n], rv[n:n + m] / d, rv[-1:]]))

    def candidate(self, u, v):
        """(x, y, s, pres, dres, gap) of an unscaled pair (u, v), or None
        if tau is not positive."""
        pair = self.emb.split(u, v)
        if pair is None:
            return None
        return pair + _residuals(self.A, self.AT, self.b, self.c, *pair)

    def check(self, uu, vv, eps):
        """Add the candidates of the unscaled pair (uu, vv); True when
        the best one meets eps."""
        emb = self.emb
        raw = self.raw = self.candidate(uu, vv)
        cands = [self.best, raw]
        near = raw is not None and max(raw[3:]) <= self.polish_tol
        if near and uu[-1] > 1e-12 * (1.0 + np.linalg.norm(uu)):
            z = _refine(emb, uu - vv, eps)
            ur = emb.project(z)
            cands.append(self.candidate(ur, ur - z))
        # the smallest worst residual wins; a tie keeps the earlier one
        best = self.best = min((t for t in cands if t is not None),
                               key=lambda t: max(t[3:]), default=None)
        if best is not None and max(best[3:]) <= eps:
            return True
        if near:
            # polish fell short: drive the splitting further
            self.polish_tol = max(eps, self.polish_tol / 100.0)
        return False

    def solution(self, it, eps):
        best = self.best or ()
        optimal = bool(best) and max(best[3:]) <= eps
        return self._ending("optimal" if optimal else "max_iters", it, *best)

    def certificate(self, dims, uu, vv, it):
        """The certificate solution confirmed on the unscaled data, or
        None."""
        A = self.A
        kind, cert = _certificates(A, self.AT, self.b, self.c, uu, vv, 1e-6)
        if kind == "infeasible":
            return self._ending(kind, it, y=cert)
        if kind == "unbounded":
            return self._ending(kind, it, cert,
                                s=project_cone(-(A @ cert), dims, dual=False))
        return None

    def _ending(self, status, it, x=None, y=None, s=None, pres=np.nan,
                dres=np.nan, gap=np.nan):
        """The ConeSolution of this column, NaN where no part is given."""
        m, n = self.emb.m, self.emb.n
        return ConeSolution(np.full(n, np.nan) if x is None else x,
                            np.full(m, np.nan) if y is None else y,
                            np.full(m, np.nan) if s is None else s,
                            status, it, pres, dres, gap, self.scale,
                            self.factorizations, self.accelerations,
                            self.rejections, self.emb)


def _stack_step(cols):
    """The HSD step of the stack of cols' columns: one _HsdStep per scale
    among them, each on the columns at its scale."""
    groups = {}
    for p, col in enumerate(cols):
        groups.setdefault(col.scale, []).append(p)
    steps = []
    for rows in groups.values():
        first = cols[rows[0]]
        steps.append((_HsdStep(first.lu,
                               np.column_stack([cols[p].bs for p in rows]),
                               np.column_stack([cols[p].cs for p in rows]),
                               first.r), rows))
    if len(steps) == 1:
        return steps[0][0].solve

    def solve(w):
        out = np.empty(w.shape)
        for step, rows in steps:
            out[:, rows] = step.solve(w[:, rows])
        return out

    return solve


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the ADMM map on a
    stack of columns (Walker & Ni, 2011; Zhang, O'Donoghue & Boyd, 2020).

    The ADMM state is w = u - v, the vector each iteration projects:
    u = Pi(w), v = u - w, and one iteration maps w to g = T(w).  W holds
    the iterates as a (k, N) stack, one row per column, and the rings G
    and F the g and the residuals f = g - w, in the metric R, of the last
    _AA_EVERY + 1 iterations as (_AA_EVERY + 1, k, N) stacks.  Each
    iteration writes g to out(), its row of G, and advance() returns the
    next iterate: g, except where the acceleration changes it.  The rings
    follow the extrapolations: the one at iteration i writes their last
    row and copies it to row 0, so at the next, rows 0 to _AA_EVERY hold
    iterations i to i + _AA_EVERY in order, and the secant pairs of T are
    the differences of consecutive rows, df = f_j - f_(j-1) and
    dg = g_j - g_(j-1).  A column's memory is its iterates from the
    iteration stamp[p] on, the last _AA_MEM + 1 at most, and pairs
    outside it get no weight.

    Every _AA_EVERY iterations, a column with a secant pair extrapolates
    g - dG gamma, where gamma minimizes ||f - dF gamma|| over its pairs
    with the Tikhonov term.  One batched product [dF; f] dF' over all
    pairs gives each column its Gram matrix and right-hand side, of
    which it solves the block of its memory with one Cholesky call; a
    singular system or a non-finite gamma skips it.  dG gamma telescopes
    to one product with G's rows.  The next iteration tests the
    extrapolation.  T is positively homogeneous, so the test takes the
    residual relative to the point's norm: a step toward the trivial
    fixed point w = 0 shrinks the residual, not the relative one.  If
    the extrapolated point's relative residual exceeds the one before
    it, the column goes back to the plain g of the last iteration and
    its memory is cleared; otherwise the extrapolation counts as
    accepted.  A scale change, which changes T, clears the memory too.
    Every product is taken per column on the whole ring, so a column's
    arithmetic is that of its program alone.
    """

    def __init__(self, cols, u, v):
        self.cols = cols
        # the row of the rings that iteration 1 writes
        self.slot = (-_AA_PHASE) % _AA_EVERY + 1
        # the start need not be a projection, so the f of iteration 1 is
        # no residual of T
        self.stamp = [2] * len(cols)
        # column -> the norms in the metric R of f and w at the point w
        # before an extrapolation, and of the extrapolated point, which
        # the next iteration tests
        self.pending = {}
        ring = np.zeros((_AA_EVERY + 1,) + _rows(u).shape)
        self._hold(ring, ring.copy(), np.array(_rows(u - v)),
                   np.array([np.sqrt(col.r) for col in cols]), u.shape)

    def _hold(self, G, F, W, rh, shape):
        """Take the stacks; the loop's have the given shape."""
        self.G, self.F, self.W, self.rh, self.shape = G, F, W, rh, shape
        self._views = [g.T.reshape(shape) for g in G]
        # buffers kept from call to call: fresh arrays of their size can
        # cost more in page faults than the arithmetic on them
        self._buf = np.empty(W.shape)
        self._z = np.empty((2,) + W.shape)
        self._dF = np.empty((len(W), _AA_EVERY + 1, W.shape[1]))

    def out(self):
        """The buffer that the iteration writes g = T(w) to."""
        return self._views[self.slot]

    def advance(self, it):
        """The iterate after g = T(w) in out(), with the safeguard's tests
        and the extrapolations due at iteration it."""
        s = self.slot
        g, f = self.G[s], self.F[s]
        np.subtract(g, self.W, out=f)
        f *= self.rh
        w = g
        if self.pending:
            f_norm = np.sqrt(_dots(f, f))
            for p, (f_before, w_before, w_norm) in self.pending.items():
                # f_norm / w_norm > f_before / w_before, with no division
                if f_norm[p] * w_before > f_before * w_norm:
                    # back to the plain g of the last iteration
                    if w is g:
                        w = self._buf
                        np.copyto(w, g)
                    w[p] = self.G[s - 1][p]
                    self.stamp[p] = it + 1
                    self.cols[p].rejections += 1
                else:
                    self.cols[p].accelerations += 1
            self.pending = {}
        if s == _AA_EVERY:
            w = self._extrapolate(it, w)
            self.G[0], self.F[0] = g, f
        self.slot = s % _AA_EVERY + 1
        self.W = w
        return self._views[s] if w is g else w.T.reshape(self.shape)

    def _extrapolate(self, it, w):
        """The stack w with the columns that extrapolate at iteration it
        changed; w itself when none does."""
        first = [max(st - it + _AA_EVERY, _AA_EVERY - _AA_MEM)
                 for st in self.stamp]
        if min(first) >= _AA_EVERY:
            return w
        # [dF; f] dF' per column: the Gram matrix of all pairs, and the
        # right-hand side in the last row.  One gemm: at 10 pairs and N of
        # 1,500 to 6,000 it takes about half the time of a syrk of dF and
        # a gemv
        dF = self._dF
        np.subtract(self.F[1:], self.F[:-1],
                    out=dF[:, :-1].transpose(1, 0, 2))
        np.copyto(dF[:, -1], self.F[-1])
        prods = dF @ dF[:, :-1].transpose(0, 2, 1)
        # g - dG gamma as one combination of G's rows, per column
        coef = np.zeros((len(first), _AA_EVERY + 1))
        coef[:, -1] = 1.0
        ext = []
        for p, (j, prod) in enumerate(zip(first, prods)):
            if j >= _AA_EVERY:
                continue
            # the pairs of the memory alone
            a = prod[j:-1, j:].copy()
            flat = a.ravel()
            flat[::len(a) + 1] += _AA_REG * math.sqrt(flat @ flat)
            # a Cholesky solve: the Gram matrix is positive semidefinite, and
            # one LAPACK call costs a fraction of np.linalg.solve's wrapping
            gamma, singular = lapack.dposv(a, prod[-1, j:])[1:]
            if singular or not np.isfinite(gamma).all():
                continue
            coef[p, j + 1:] -= gamma
            coef[p, j:-1] += gamma
            ext.append(p)
        if not ext:
            return w
        g, out = self.G[-1], self._buf
        # W's norm before out takes the new iterates: after a reset, W is
        # out
        np.multiply(self.W, self.rh, out=self._z[0])
        np.matmul(coef[:, None, :], self.G.transpose(1, 0, 2),
                  out=out[:, None, :])
        # tau - kappa stays the plain step's: extrapolated, it led
        # iterates of infeasible and unbounded programs to fixed points
        # with tau = kappa = 0, which are neither solution nor certificate
        out[:, -1] = g[:, -1]
        if len(ext) < len(first):
            plain = np.ones(len(first), dtype=bool)
            plain[ext] = False
            np.copyto(out, g, where=plain[:, None])
        np.multiply(out, self.rh, out=self._z[1])
        f_norm = np.sqrt(_dots(self.F[-1], self.F[-1]))
        w_norm, out_norm = np.sqrt(_dots(self._z, self._z))
        for p in ext:
            self.pending[p] = (f_norm[p], w_norm[p], out_norm[p])
        return out

    def reset(self, p, u, v, it):
        """Clear column p's memory after its v and scale changed at
        iteration it: its iterate is now u - v."""
        if self.W is not self._buf:
            np.copyto(self._buf, self.W)
            self.W = self._buf
        self.W[p] = _rows(u)[p] - _rows(v)[p]
        self.rh[p] = np.sqrt(self.cols[p].r)
        self.stamp[p] = it + 1
        self.pending.pop(p, None)

    def keep(self, keep, shape):
        """Keep the columns keep of the stacks, in that order; the loop's
        stacks have the given shape from now on."""
        self._hold(self.G[:, keep], self.F[:, keep], self.W[keep],
                   self.rh[keep], shape)
        self.cols = [self.cols[p] for p in keep]
        self.stamp = [self.stamp[p] for p in keep]
        self.pending = {keep.index(p): x for p, x in self.pending.items()
                        if p in keep}


def _rows(a):
    """The (N,) or (N, k) stack a as a (k, N) view, one row per column."""
    return a.reshape(a.shape[0], -1).T


def _starts(cols, warm_starts, d, e):
    """The scaled iterates (u, v), (N, k) stacks with one column per
    program, and the usable held points by column.

    A warm start sets its column's pair and scale, and a point in it
    counts where it was made on data with the column's A and its
    reduction has a factor."""
    n, m = e.size, d.size
    u = np.zeros((n + m + 1, len(cols)))
    v = np.zeros((n + m + 1, len(cols)))
    u[-1] = 1.0
    v[-1] = 1.0
    held = {}
    for j, (col, warm) in enumerate(zip(cols, warm_starts)):
        if warm is None:
            continue
        wx, wy, ws = (np.asarray(w, dtype=float) for w in warm[:3])
        ok = (wx.shape, wy.shape, ws.shape) == ((n,), (m,), (m,))
        if not (ok and all(np.isfinite(w).all() for w in (wx, wy, ws))):
            continue
        if len(warm) > 3 and 0.0 < warm[3] < np.inf:
            col.scale = min(max(float(warm[3]), _SCALE_MIN), _SCALE_MAX)
        u[:, j] = np.concatenate([wx / e, wy / d, [1.0]])
        v[:, j] = np.concatenate([np.zeros(n), ws * d / col.scale, [0.0]])
        point = warm[4] if len(warm) > 4 else None
        if (point is not None and point.embedding.shares_A(col.emb)
                and point.jacobian.lu is not None):
            held[j] = point
    return u, v, held


def solve_batch(A, bs, cs, dims, *, eps=1e-8, max_iters=100000,
                warm_starts=None, workspace=None):
    """Solve the cone programs (A, bs[j], cs[j], dims) together.

    Returns one ConeSolution per program, each what solve() returns for
    it: the programs take the same ADMM iterations, in lockstep on
    (N, k) stacks of iterates, with each column's arithmetic that of
    solve().  Programs at one scale share
    one factor of K and one solve with it on a k-column right-hand side
    per iteration, and the exponential triples of all programs are
    projected in one call.  Each program keeps its own h = (c, b), its
    own tau elimination and its own root warm starts.  The checks,
    polish, certificates and scale rule run per program at solve()'s
    iterations; a program that ends there leaves the stack, so the
    others do not wait for it, nor it for them.  warm_starts holds one
    warm start (or None) per program, in any iterable.  The programs
    with a held point take their Gauss-Newton steps first, in lockstep,
    with one projection of all their candidates per step; those that
    meet eps never join the stack, and a point is dropped once its steps
    end.  A factor is counted in the factorizations of the first program
    that needed it, so over one call they sum to the factors it
    computed.  Programs at different scales never share a factor.
    Argument rules are solve()'s.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    try:
        valid = operator.index(max_iters) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"max_iters must be a nonnegative integer, got "
                         f"{max_iters!r}")
    A = canonical(A)
    m, n = A.shape
    bs = [np.asarray(b, dtype=float) for b in bs]
    cs = [np.asarray(c, dtype=float) for c in cs]
    warm_starts = [None] * len(bs) if warm_starts is None else list(
        warm_starts)
    if not len(bs) == len(cs) == len(warm_starts):
        raise ValueError(f"{len(bs)} b, {len(cs)} c and {len(warm_starts)} "
                         "warm starts")
    for b, c in zip(bs, cs):
        _validate(A, b, c)
    if dims["zero"] + dims["nonneg"] + 3 * dims["exp"] != m:
        raise ValueError(f"cone dims {dims} do not sum to {m} rows")
    if workspace is None:
        workspace = Workspace(A, dims)
    workspace.load(A, dims)
    if not bs:
        return []
    # the iterates are scaled, but Pi does not depend on the data
    pi = workspace.embedding
    As, d, e = workspace.As, workspace.d, workspace.e
    N = n + m + 1

    cols = [_Column(workspace, A, b, c) for b, c in zip(bs, cs)]
    u, v, held = _starts(cols, warm_starts, d, e)
    # the held points live in held alone, until their columns end
    del warm_starts
    done = [None] * len(cols)
    if held:
        for j, sol in zip(held, _held_steps(pi, [cols[j] for j in held],
                                            list(held.values()), eps)):
            done[j] = sol
        del held
    active = [j for j in range(len(cols)) if done[j] is None]
    if not active:
        return done
    for j in active:
        cols[j].set_scale(cols[j].scale, workspace)
    workspace.retain({col.scale for col in cols})
    step = _stack_step([cols[j] for j in active])
    # root of each exponential triple's last boundary projection, the
    # triples of each running program in turn
    rho = np.full(len(active) * dims["exp"], np.nan)
    u, v = u[:, active], v[:, active]
    if len(active) == 1:
        # one program runs on vectors
        u, v = u[:, 0], v[:, 0]
    aa = _Anderson([cols[j] for j in active], u, v)
    it = 0
    while True:
        capped = it >= max_iters
        leaving = []
        rescaled = False
        check = capped or (it > 0 and it % _CHECK_EVERY == 0)
        cert = it > 0 and it % _CERT_EVERY == 0
        for p, j in enumerate(active if check or cert else ()):
            col = cols[j]
            # contiguous copies: a strided column could change the
            # rounding of its dot products
            up = np.ascontiguousarray(u.reshape(N, -1)[:, p])
            vp = np.ascontiguousarray(v.reshape(N, -1)[:, p])
            if check:
                uu, vv = col.unscaled(up, vp, d, e)
                if col.check(uu, vv, eps):
                    done[j] = col.solution(it, eps)
                    leaving.append(p)
                    continue
            # a certificate iteration is also a check one, so (uu, vv) is
            # this iteration's unscaled pair
            if cert:
                kind, _ = _certificates(As, workspace.AsT, col.bs, col.cs, up,
                                        col.r * vp, max(eps, 1e-9))
                if kind is not None:
                    done[j] = col.certificate(dims, uu, vv, it)
                    if done[j] is not None:
                        leaving.append(p)
                        continue
            if capped:
                done[j] = col.solution(it, eps)
                continue
            raw = col.raw
            if cert and raw is not None and raw[3] > 0.0 and raw[4] > 0.0:
                ratio = float(np.sqrt(raw[4] / raw[3]))
                new = min(max(col.scale * ratio, _SCALE_MIN), _SCALE_MAX)
                if (not 1.0 / _SCALE_BAND <= ratio <= _SCALE_BAND
                        and new != col.scale):
                    # v's y block is s / scale: rescale it so s stays put
                    v.reshape(N, -1)[n:n + m, p] *= col.scale / new
                    col.set_scale(new, workspace)
                    aa.reset(p, u, v, it)
                    rescaled = True
        if capped:
            break
        if leaving:
            keep = [p for p in range(len(active)) if p not in leaving]
            rho = rho.reshape(len(active), dims["exp"])[keep].ravel()
            active = [active[p] for p in keep]
            if not active:
                break
            u, v = u[:, keep], v[:, keep]
            if len(keep) == 1:
                u, v = u[:, 0], v[:, 0]
            aa.keep(keep, u.shape)
        if rescaled:
            workspace.retain({col.scale for col in cols})
        if leaving or rescaled:
            step = _stack_step([cols[j] for j in active])
        # plain iterations up to the next check or the cap
        stop = min(it - it % _CHECK_EVERY + _CHECK_EVERY, max_iters)
        while it < stop:
            it += 1
            ut = step(u + v)
            # w = T(w) is the relaxed step minus v, written in place
            w = aa.out()
            np.multiply(_ALPHA, ut, out=w)
            w += (1.0 - _ALPHA) * u
            w -= v
            w = aa.advance(it)
            u = pi.project(w, rho)
            v = u - w
    return done
