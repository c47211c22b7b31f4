"""Operator-splitting solver for cone programs.

Solves

    minimize    c'x
    subject to  Ax + s = b,  s in K

with K a product of zero, nonnegative, and exponential cones, together
with the dual variable y in K*.  The method is ADMM on the homogeneous
self-dual embedding: the skew matrix

    Q = [[ 0,  A', c],
         [-A,  0,  b],
         [-c', -b', 0]]

pairs u = (x, y, tau) against v = (0, s, kappa), and a solution (or an
infeasibility certificate) is read off a complementary pair with Qu = v.
Each iteration takes one linear solve with I + Q and one cone
projection.  The linear solve reuses a sparse factorization of the
quasidefinite matrix [[I, A'], [A, -I]], which depends on A alone, and
eliminates tau with a rank-one correction computed once per solve.  A
Gauss-Newton polish on the normalized residual map pushes the returned
point to tight tolerances once ADMM has found the neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import dproject_cone, project_cone

__all__ = ["ConeSolution", "DataError", "solve"]

_ALPHA = 1.5
_RUIZ_ITERS = 10
_CHECK_EVERY = 25
_CERT_EVERY = 100


class DataError(ValueError):
    """Cone program data contains NaN or Inf."""


@dataclass(frozen=True)
class ConeSolution:
    """Solution of a cone program.

    On status "optimal" the triple (x, y, s) satisfies the primal and
    dual residual bounds and the duality gap at the reported values, s
    lies in the cone and y in its dual, and complementarity holds by
    construction.  On "infeasible" y is a Farkas certificate scaled to
    b'y = -1; on "unbounded" x is a ray scaled to c'x = -1; residual
    fields are NaN for certificates.  Pass (x, y, s) of a previous
    solution as warm_start when re-solving with nearby data.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    iterations: int
    pres: float
    dres: float
    gap: float


def _validate(A, b, c):
    if not (np.isfinite(A.data).all() and np.isfinite(b).all()
            and np.isfinite(c).all()):
        raise DataError("cone program data contains NaN or Inf")


def _equilibrate(A, b, c, dims):
    """Ruiz scaling; exponential-cone triples get a uniform row factor."""
    m, n = A.shape
    base = dims["zero"] + dims["nonneg"]
    d = np.ones(m)
    e = np.ones(n)
    As = A.copy().tocsr()
    for _ in range(_RUIZ_ITERS):
        absA = abs(As)
        rmax = np.asarray(absA.max(axis=1).todense()).ravel()
        cmax = np.asarray(absA.max(axis=0).todense()).ravel()
        peak = np.concatenate(
            [rmax[:base], np.repeat(rmax[base:].reshape(-1, 3).max(axis=1), 3)])
        dr = np.ones(m)
        pos = peak > 0.0
        dr[pos] = 1.0 / np.sqrt(peak[pos])
        dc = np.where(cmax > 0.0, 1.0 / np.sqrt(np.maximum(cmax, 1e-300)), 1.0)
        As = sp.diags(dr) @ As @ sp.diags(dc)
        d *= dr
        e *= dc
    return As.tocsc(), b * d, c * e, d, e


def _embed_matrix(A, b, c):
    return sp.bmat([
        [None, A.T, sp.csc_matrix(c.reshape(-1, 1))],
        [-A, None, sp.csc_matrix(b.reshape(-1, 1))],
        [sp.csc_matrix(-c.reshape(1, -1)), sp.csc_matrix(-b.reshape(1, -1)), None],
    ], format="csc")


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
    denominator is at least one.
    """

    def __init__(self, lu, b, c):
        self._lu = lu
        self._sign = np.concatenate([np.ones(c.size), -np.ones(b.size)])
        self._h = np.concatenate([c, b])
        self._p = lu.solve(self._sign * self._h)
        self._denom = 1.0 + float(self._h @ self._p)

    def solve(self, w):
        z = self._lu.solve(self._sign * w[:-1])
        tau = (w[-1] + float(self._h @ z)) / self._denom
        return np.append(z - tau * self._p, tau)


def _proj_embedding(w, n, m, dims, rho=None):
    """Project onto R^n x K* x R_+, the cone of the u iterate.

    rho is passed on to project_cone: the exponential root finds start
    from it, and it is updated in place."""
    out = w.copy()
    if m:
        out[n:n + m] = project_cone(w[n:n + m], dims, dual=True, rho=rho)
    out[-1] = max(w[-1], 0.0)
    return out


def _dproj_embedding(w, n, m, dims):
    """Derivative of _proj_embedding at w, and whether Pi kinks there.

    The CSR arrays of the K* block are shifted past the n identity rows
    and closed by the tau row, so the whole matrix is one constructor."""
    Jy, nonsmooth = dproject_cone(w[n:n + m], dims, dual=True)
    data = np.concatenate([np.ones(n), Jy.data,
                           [1.0 if w[-1] > 0.0 else 0.0]])
    indices = np.concatenate([np.arange(n), Jy.indices + n, [n + m]])
    indptr = np.concatenate([np.arange(n + 1), Jy.indptr[1:] + n,
                             [n + Jy.nnz + 1]])
    N = n + m + 1
    return sp.csr_matrix((data, indices, indptr), shape=(N, N)), nonsmooth


def _residuals(A, b, c, x, y, s):
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(A.T @ y + c) / (1.0 + np.linalg.norm(c))
    px = float(c @ x)
    dy = float(b @ y)
    gap = abs(px + dy) / (1.0 + abs(px) + abs(dy))
    return pres, dres, gap


def _extract(u, v, n, m):
    tau = u[-1]
    if tau <= 0.0:
        return None
    return u[:n] / tau, u[n:n + m] / tau, v[n:n + m] / tau


def _certificates(A, b, c, u, v, n, m, tol):
    """Farkas-style tests on the raw iterates."""
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


def _refine(Q, z, n, m, dims, eps, iters=10):
    """Gauss-Newton on F(z) = Q Pi(z) - Pi(z) + z with tau pinned to one.

    F is positively homogeneous, so z is renormalized after every step.
    Returns the polished z; gives back the input if no step helps.
    """
    N = n + m + 1
    eye = sp.eye(N, format="csc")

    def F_of(zz):
        u = _proj_embedding(zz, n, m, dims)
        return Q @ u - u + zz

    def norm_tau(zz):
        return zz / max(zz[-1], 1e-300)

    z = norm_tau(z)
    Fz = F_of(z)
    best_norm = np.linalg.norm(Fz)
    for _ in range(iters):
        if best_norm <= eps * 1e-3:
            break
        DPi, _ = _dproj_embedding(z, n, m, dims)
        J = (Q - eye) @ DPi + eye
        dz = spla.lsqr(J, -Fz, atol=1e-12, btol=1e-12, iter_lim=10 * N)[0]
        step = 1.0
        improved = False
        for _ in range(20):
            cand = norm_tau(z + step * dz)
            Fc = F_of(cand)
            nc = np.linalg.norm(Fc)
            if nc < best_norm:
                z, Fz, best_norm = cand, Fc, nc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return z


def _solve_unconstrained(c):
    n = c.size
    if np.linalg.norm(c) == 0.0:
        return ConeSolution(np.zeros(n), np.zeros(0), np.zeros(0),
                            "optimal", 0, 0.0, 0.0, 0.0)
    return ConeSolution(-c / np.linalg.norm(c), np.zeros(0), np.zeros(0),
                        "unbounded", 0, np.nan, np.nan, np.nan)


def _solve_fixed_slack(b, dims, eps):
    """No variables: feasible iff b itself lies in the cone."""
    s = project_cone(b, dims, dual=False)
    m = b.size
    gap2 = float((s - b) @ (s - b))
    if np.sqrt(gap2) <= eps * (1.0 + np.linalg.norm(b)):
        return ConeSolution(np.zeros(0), np.zeros(m), s,
                            "optimal", 0, 0.0, 0.0, 0.0)
    # s - b is in K* and b'(s - b) = -|s - b|^2 < 0: a Farkas certificate
    return ConeSolution(np.zeros(0), (s - b) / gap2, np.full(m, np.nan),
                        "infeasible", 0, np.nan, np.nan, np.nan)


def _finish(A, b, c, Q, u_full, v_full, n, m, dims, eps, polish_tol=np.inf):
    """Polish the current iterate and measure true residuals.

    The polish runs only when the raw candidate's residuals are finite
    and at most polish_tol: Gauss-Newton from an iterate far from
    convergence overflows.  Returns the better of the raw and polished
    candidates as a tuple (x, y, s, pres, dres, gap), or None if tau has
    collapsed.
    """
    cands = []
    pair = _extract(u_full, v_full, n, m)
    if pair is not None:
        xs, ys, ss = pair
        cands.append((xs, ys, ss) + _residuals(A, b, c, xs, ys, ss))
    near = bool(cands) and np.all(np.asarray(cands[0][3:]) <= polish_tol)
    tau = u_full[-1]
    if near and tau > 1e-12 * (1.0 + np.linalg.norm(u_full)):
        z = _refine(Q, u_full - v_full, n, m, dims, eps)
        u_ref = _proj_embedding(z, n, m, dims)
        pair = _extract(u_ref, u_ref - z, n, m)
        if pair is not None:
            xs, ys, ss = pair
            cands.append((xs, ys, ss) + _residuals(A, b, c, xs, ys, ss))
    if not cands:
        return None
    return min(cands, key=lambda t: max(t[3], t[4], t[5]))


def solve(A, b, c, dims, *, eps=1e-8, max_iters=100000, warm_start=None):
    """Solve the cone program given by (A, b, c, dims).

    dims maps cone names to sizes: zero and nonneg count rows, exp
    counts triples; rows are ordered zero, nonneg, then exponential.
    Returns a ConeSolution; infeasibility and iteration exhaustion are
    reported through its status, while non-finite numeric data raises
    DataError.  warm_start takes (x, y, s) from a previous solution.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    _validate(A, b, c)
    if dims["zero"] + dims["nonneg"] + 3 * dims["exp"] != m:
        raise ValueError(f"cone dims {dims} do not sum to {m} rows")
    if m == 0:
        return _solve_unconstrained(c)
    if n == 0:
        return _solve_fixed_slack(b, dims, eps)

    As, bs, cs, d, e = _equilibrate(A, b, c, dims)
    step = _HsdStep(_factor_kkt(As), bs, cs)
    Q = _embed_matrix(A, b, c)
    N = n + m + 1

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
    admm_tol = max(eps, 1e-6)
    best = None
    it = 0
    while it < max_iters:
        it += 1
        ut = step.solve(u + v)
        rel = _ALPHA * ut + (1.0 - _ALPHA) * u
        u_next = _proj_embedding(rel - v, n, m, dims, rho)
        v = v - rel + u_next
        u = u_next

        if it % _CHECK_EVERY == 0:
            pair = _extract(u, v, n, m)
            if pair is not None:
                xs, ys, ss = pair
                pres, dres, gap = _residuals(A, b, c, xs * e, ys * d, ss / d)
                if max(pres, dres, gap) <= admm_tol:
                    u_full = np.concatenate([u[:n] * e, u[n:n + m] * d, u[-1:]])
                    v_full = np.concatenate([v[:n], v[n:n + m] / d, v[-1:]])
                    cand = _finish(A, b, c, Q, u_full, v_full, n, m, dims, eps)
                    if cand is not None and (best is None
                                             or max(cand[3:]) < max(best[3:])):
                        best = cand
                    if best is not None and max(best[3:]) <= eps:
                        return ConeSolution(best[0], best[1], best[2],
                                            "optimal", it, *best[3:])
                    # polish fell short: drive the splitting further
                    admm_tol = max(eps, admm_tol / 100.0)
        if it % _CERT_EVERY == 0:
            kind, _ = _certificates(As, bs, cs, u, v, n, m, max(eps, 1e-9))
            if kind is not None:
                u_full = np.concatenate([u[:n] * e, u[n:n + m] * d, u[-1:]])
                v_full = np.concatenate([v[:n], v[n:n + m] / d, v[-1:]])
                kind2, cert = _certificates(A, b, c, u_full, v_full, n, m, 1e-6)
                if kind2 == "infeasible":
                    return ConeSolution(np.full(n, np.nan), cert,
                                        np.full(m, np.nan), "infeasible", it,
                                        np.nan, np.nan, np.nan)
                if kind2 == "unbounded":
                    shat = project_cone(-(A @ cert), dims, dual=False)
                    return ConeSolution(cert, np.full(m, np.nan), shat,
                                        "unbounded", it,
                                        np.nan, np.nan, np.nan)

    u_full = np.concatenate([u[:n] * e, u[n:n + m] * d, u[-1:]])
    v_full = np.concatenate([v[:n], v[n:n + m] / d, v[-1:]])
    cand = _finish(A, b, c, Q, u_full, v_full, n, m, dims, eps, admm_tol)
    if cand is not None and (best is None or max(cand[3:]) < max(best[3:])):
        best = cand
    if best is None:
        return ConeSolution(np.full(n, np.nan), np.full(m, np.nan),
                            np.full(m, np.nan), "max_iters", it,
                            np.nan, np.nan, np.nan)
    status = "optimal" if max(best[3:]) <= eps else "max_iters"
    return ConeSolution(best[0], best[1], best[2], status, it, *best[3:])
