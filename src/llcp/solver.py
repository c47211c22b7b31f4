"""Operator-splitting solver for cone programs.

Solves

    minimize    c'x
    subject to  Ax + s = b,  s in K

with K a product of zero, nonnegative, and exponential cones, together
with the dual variable y in K*.  The method is ADMM on the homogeneous
self-dual embedding (embedding.Embedding, which also holds the residual
map and its Jacobian).  Each iteration takes one linear solve with I + Q
and one cone projection.  The linear solve reuses a sparse factorization
of the quasidefinite matrix [[I, A'], [A, -I]], which depends on A
alone, and eliminates tau with a rank-one correction computed once per
solve.  A Gauss-Newton polish on the normalized residual map pushes the
returned point to tight tolerances once ADMM has found the neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import project_cone
from .embedding import Embedding

__all__ = ["ConeSolution", "DataError", "solve"]

_ALPHA = 1.5
_RUIZ_ITERS = 10
_CHECK_EVERY = 25
_CERT_EVERY = 100
# the polish starts from iterates within this residual, however loose eps
# is: from farther away Gauss-Newton can overflow without helping
_POLISH_FROM = 1e-6
_POLISH_STEPS = 10


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
    the solve.  Pass (x, y, s) of a previous solution as warm_start when
    re-solving with nearby data.

    embedding is the Embedding of the unscaled (A, b, c) that the solve
    polished with; diff.ResidualPoint reuses it.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    iterations: int
    pres: float
    dres: float
    gap: float
    embedding: Embedding = field(repr=False, compare=False)


def _validate(A, b, c):
    if not (np.isfinite(A.data).all() and np.isfinite(b).all()
            and np.isfinite(c).all()):
        raise DataError("cone program data contains NaN or Inf")


def _equilibrate(A, b, c, dims):
    """Ruiz scaling; exponential-cone triples get a uniform row factor.

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
    return As, b * d, c * e, d, e


def _factor_kkt(A):
    """Sparse LU of the quasidefinite K = [[I, A'], [A, -I]].

    Every symmetric permutation of a quasidefinite matrix factors without
    pivoting, so the factor keeps a symmetric minimum-degree order, which
    puts the dense posynomial rows last and keeps the fill about linear
    in the size of A.
    """
    m, n = A.shape
    K = sp.bmat([[sp.eye(n), A.T], [A, -sp.eye(m)]], format="csc")
    return spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class _HsdStep:
    """Solves (I + Q) u = w for the embedding of (A, b, c).

    With M = [[I, A'], [-A, I]] and h = (c, b), I + Q = [[M, h], [-h', 1]].
    Eliminating tau gives

        tau = (w[-1] + h'M^-1 w[:-1]) / (1 + h'M^-1 h),
        u[:-1] = M^-1 w[:-1] - tau M^-1 h.

    M is K = [[I, A'], [A, -I]] with its second block row negated, so each
    M^-1 is one solve with the factor lu of K, which does not depend on b
    or c.  The symmetric part of M^-1 is positive definite, so the
    denominator is at least one.  solve returns one buffer, which the
    next call overwrites.
    """

    def __init__(self, lu, b, c):
        self._lu = lu
        self._sign = np.concatenate([np.ones(c.size), -np.ones(b.size)])
        self._h = np.concatenate([c, b])
        self._p = lu.solve(self._sign * self._h)
        self._denom = 1.0 + float(self._h @ self._p)
        self._out = np.empty(self._h.size + 1)

    def solve(self, w):
        z = self._lu.solve(self._sign * w[:-1])
        tau = (w[-1] + float(self._h @ z)) / self._denom
        head = self._out[:-1]
        np.multiply(tau, self._p, out=head)
        np.subtract(z, head, out=head)
        self._out[-1] = tau
        return self._out


def _residuals(A, b, c, x, y, s):
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(A.T @ y + c) / (1.0 + np.linalg.norm(c))
    px = float(c @ x)
    dy = float(b @ y)
    gap = abs(px + dy) / (1.0 + abs(px) + abs(dy))
    return pres, dres, gap


def _certificates(A, b, c, u, v, tol):
    """Farkas-style tests on the raw iterates."""
    m, n = A.shape
    uy = u[n:n + m]
    bty = float(b @ uy)
    if bty < 0.0:
        yhat = uy / -bty
        if np.linalg.norm(A.T @ yhat) <= tol:
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
        J = emb.jacobian(z)[0]
        dz = spla.lsqr(J, -Fz, atol=1e-12, btol=1e-12,
                       iter_lim=10 * z.size)[0]
        cand = norm_tau(z + dz)
        Fc = emb.residual(cand)
        nc = np.linalg.norm(Fc)
        if nc >= norm:
            break
        z, Fz, norm = cand, Fc, nc
    return z


def _candidate(emb, A, b, c, u, v):
    """(x, y, s, pres, dres, gap) of an unscaled pair (u, v), or None if
    tau is not positive."""
    pair = emb.split(u, v)
    if pair is None:
        return None
    return pair + _residuals(A, b, c, *pair)


def solve(A, b, c, dims, *, eps=1e-8, max_iters=100000, warm_start=None):
    """Solve the cone program given by (A, b, c, dims).

    dims maps cone names to sizes: zero and nonneg count rows, exp
    counts triples; rows are ordered zero, nonneg, then exponential.
    Returns a ConeSolution; infeasibility and iteration exhaustion are
    reported through its status, while non-finite numeric data raises
    DataError.  warm_start takes (x, y, s) from a previous solution.

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
    confirmed on the unscaled data ends the solve.  At the cap the best
    candidate of all checks is returned as "max_iters".  eps must be
    finite and positive, or ValueError is raised before any work.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    _validate(A, b, c)
    if dims["zero"] + dims["nonneg"] + 3 * dims["exp"] != m:
        raise ValueError(f"cone dims {dims} do not sum to {m} rows")
    # the iterates are scaled, but Pi does not depend on the data
    emb = Embedding(A, b, c, dims)
    As, bs, cs, d, e = _equilibrate(A, b, c, dims)
    step = _HsdStep(_factor_kkt(As), bs, cs)
    N = n + m + 1

    def unscaled(u, v):
        return (np.concatenate([u[:n] * e, u[n:n + m] * d, u[-1:]]),
                np.concatenate([v[:n], v[n:n + m] / d, v[-1:]]))

    u = np.zeros(N)
    v = np.zeros(N)
    u[-1] = 1.0
    v[-1] = 1.0
    if warm_start is not None:
        wx, wy, ws = (np.asarray(w, dtype=float) for w in warm_start)
        ok = (wx.shape, wy.shape, ws.shape) == ((n,), (m,), (m,))
        if ok and all(np.isfinite(w).all() for w in (wx, wy, ws)):
            u = np.concatenate([wx / e, wy / d, [1.0]])
            v = np.concatenate([np.zeros(n), ws * d, [0.0]])

    # root of each exponential triple's last boundary projection
    rho = np.full(dims["exp"], np.nan)
    polish_tol = _POLISH_FROM
    best = None
    it = 0
    while True:
        capped = it >= max_iters
        if capped or (it > 0 and it % _CHECK_EVERY == 0):
            uu, vv = unscaled(u, v)
            raw = _candidate(emb, A, b, c, uu, vv)
            cands = [best, raw]
            near = raw is not None and max(raw[3:]) <= polish_tol
            if near and uu[-1] > 1e-12 * (1.0 + np.linalg.norm(uu)):
                z = _refine(emb, uu - vv, eps)
                ur = emb.project(z)
                cands.append(_candidate(emb, A, b, c, ur, ur - z))
            # the smallest worst residual wins; a tie keeps the earlier one
            best = min((t for t in cands if t is not None),
                       key=lambda t: max(t[3:]), default=None)
            if best is not None and max(best[3:]) <= eps:
                break
            if near:
                # polish fell short: drive the splitting further
                polish_tol = max(eps, polish_tol / 100.0)
        if it > 0 and it % _CERT_EVERY == 0:
            kind, _ = _certificates(As, bs, cs, u, v, max(eps, 1e-9))
            if kind is not None:
                kind2, cert = _certificates(A, b, c, *unscaled(u, v), 1e-6)
                if kind2 == "infeasible":
                    return ConeSolution(np.full(n, np.nan), cert,
                                        np.full(m, np.nan), "infeasible", it,
                                        np.nan, np.nan, np.nan, emb)
                if kind2 == "unbounded":
                    shat = project_cone(-(A @ cert), dims, dual=False)
                    return ConeSolution(cert, np.full(m, np.nan), shat,
                                        "unbounded", it,
                                        np.nan, np.nan, np.nan, emb)
        if capped:
            break
        it += 1
        ut = step.solve(u + v)
        rel = _ALPHA * ut + (1.0 - _ALPHA) * u
        u_next = emb.project(rel - v, rho)
        v = v - rel + u_next
        u = u_next

    if best is None:
        best = (np.full(n, np.nan), np.full(m, np.nan), np.full(m, np.nan),
                np.nan, np.nan, np.nan)
    status = "optimal" if max(best[3:]) <= eps else "max_iters"
    return ConeSolution(*best[:3], status, it, *best[3:], emb)
