"""The homogeneous self-dual embedding of a cone program.

For the cone program

    minimize    c'x
    subject to  Ax + s = b,  s in K

the skew matrix

    Q = [[ 0,  A', c],
         [-A,  0,  b],
         [-c', -b', 0]]

pairs u = (x, y, tau) against v = (0, s, kappa), and a solution (or an
infeasibility certificate) is read off a complementary pair with Qu = v,
u in R^n x K* x R_+ and v in {0}^n x K x R_+.  With z = u - v the pair
is u = Pi(z), v = Pi(z) - z, where Pi projects onto R^n x K* x R_+, and
Qu = v becomes a zero of the residual map

    F(z) = Q Pi(z) - Pi(z) + z,

whose Jacobian is M = (Q - I) DPi(z) + I wherever Pi is differentiable.
The solver's polish drives F to zero with M, and the solution-map
derivatives solve least-squares problems with M and M'.

M is singular at a solution (M z = F(z) = 0, F being positively
homogeneous), so it has no inverse to factor.  jacobian(z) returns the
point's ReducedJacobian: M with a generalized inverse G from one sparse
LU of a square part of M, which the polish and the derivatives share.
Its docstring states how the least-squares solves with M and M' use G.

Q is linear in the data theta = (A.data, b, c), A's entries in sorted
CSC order with duplicates summed, and the embedding writes that map
once, as the signed gather Q.data = sign * theta[src].  Q_of(dtheta) is
then the perturbation dQ, and Q_of_adjoint(r, u), the theta-gradient of
r'Q u, is its adjoint.

Pi depends on (n, m, dims) alone, not on (A, b, c).  That is why the
ADMM loop, which iterates on equilibrated data, may project its iterates
with the embedding of the original data.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import dproject_cone, project_cone

__all__ = ["Embedding", "LsqrNoConvergence", "ReducedJacobian",
           "canonical"]

# LSQR's atol and btol, and the stopping test G r must meet
_LSQR_TOL = 1e-12
# a remainder whose smallest U pivot is this far below its largest has
# lost half the digits of G r, so it counts as singular
_PIVOT_RATIO = 1.5e-8


class LsqrNoConvergence(RuntimeError):
    """The least-squares solve hit its iteration cap."""


def canonical(A):
    """A as CSC with sorted indices and duplicates summed, the layout of
    A.data in theta; A itself when it is already in that form."""
    A = sp.csc_matrix(A)
    if not A.has_canonical_format:
        # one theta entry per (row, column): duplicates summed in the
        # id matrix below would add up their ids
        A = A.copy()
        A.sum_duplicates()
    return A


class Embedding:
    """Q, Pi, DPi, F and M for the cone program (A, b, c, dims).

    The constructor writes the map theta -> Q for A's pattern; at(theta)
    reuses it for other data on that pattern.  An instance is not changed
    after construction.
    """

    def __init__(self, A, b, c, dims):
        A = canonical(A)
        self.m, self.n = m, n = A.shape
        self.dims = dims
        self.theta_size = A.nnz + m + n
        # Q assembled over the ids 1..|theta|, each signed like its entry
        ids = np.arange(1.0, self.theta_size + 1)
        Aid = sp.csc_matrix((ids[:A.nnz], A.indices, A.indptr), shape=A.shape)
        bid = sp.csc_matrix(ids[A.nnz:A.nnz + m].reshape(-1, 1))
        cid = sp.csc_matrix(ids[A.nnz + m:].reshape(-1, 1))
        Qid = sp.bmat([[None, Aid.T, cid], [-Aid, None, bid],
                       [-cid.T, -bid.T, None]], format="csc")
        self._src = np.abs(Qid.data).astype(np.int64) - 1
        self._sign = np.sign(Qid.data).astype(np.int8)
        self._rows, self._indptr = Qid.indices, Qid.indptr
        self._shape = Qid.shape
        self.Q = self.Q_of(np.concatenate([A.data, b, c]))

    def at(self, theta):
        """The embedding of the data theta = (A.data, b, c) on this
        embedding's pattern and dims: one Q_of, no assembly."""
        other = copy.copy(self)
        other.Q = self.Q_of(theta)
        return other

    def shares_A(self, other):
        """Whether other is an embedding of data with this one's A (its
        pattern, values and dims), so that only b and c can differ."""
        if not (other.dims == self.dims and other._shape == self._shape
                and other.theta_size == self.theta_size
                and np.array_equal(other._indptr, self._indptr)
                and np.array_equal(other._rows, self._rows)):
            return False
        # Q's entries that come from A
        of_A = self._src < self.theta_size - self.m - self.n
        return np.array_equal(other.Q.data[of_A], self.Q.data[of_A])

    def Q_of(self, theta):
        """Q at the data vector theta = (A.data, b, c); linear in theta."""
        return sp.csc_matrix((self._sign * theta[self._src], self._rows,
                              self._indptr), shape=self._shape)

    def Q_of_adjoint(self, r, u):
        """The theta-gradient of r' Q(theta) u, the adjoint of Q_of."""
        u_col = np.repeat(u, np.diff(self._indptr))  # u at each entry's column
        return np.bincount(self._src, self._sign * r[self._rows] * u_col,
                           minlength=self.theta_size)

    def project(self, w, rho=None):
        """Project onto R^n x K* x R_+, the cone of the u iterate.

        w may also be an (N, k) stack of such vectors, one per column.
        rho is passed on to project_cone: the exponential root finds
        start from it, and it is updated in place."""
        n, m = self.n, self.m
        out = w.copy()
        if m:
            out[n:n + m] = project_cone(w[n:n + m], self.dims, dual=True,
                                        rho=rho)
        tau = w[-1]
        out[-1] = max(tau, 0.0) if w.ndim == 1 else np.where(tau < 0.0, 0.0,
                                                             tau)
        return out

    def dproject(self, w):
        """Derivative of project at w, and whether Pi kinks there.

        The CSR arrays of the K* block are shifted past the n identity
        rows and closed by the tau row, so the whole matrix is one
        constructor."""
        n, m = self.n, self.m
        Jy, nonsmooth = dproject_cone(w[n:n + m], self.dims, dual=True)
        data = np.concatenate([np.ones(n), Jy.data,
                               [1.0 if w[-1] > 0.0 else 0.0]])
        indices = np.concatenate([np.arange(n), Jy.indices + n, [n + m]])
        indptr = np.concatenate([np.arange(n + 1), Jy.indptr[1:] + n,
                                 [n + Jy.nnz + 1]])
        N = n + m + 1
        return sp.csr_matrix((data, indices, indptr), shape=(N, N)), nonsmooth

    def residual(self, z, u=None):
        """F(z) = Q Pi(z) - Pi(z) + z; u is Pi(z) where the caller has it."""
        if u is None:
            u = self.project(z)
        return self.Q @ u - u + z

    def jacobian(self, z):
        """The ReducedJacobian of F at z, M = (Q - I) DPi(z) + I as CSC."""
        DPi, nonsmooth = self.dproject(z)
        eye = sp.eye(self.n + self.m + 1, format="csc")
        return ReducedJacobian(((self.Q - eye) @ DPi + eye).tocsc(), DPi,
                               nonsmooth)

    def tau_row(self, red, b, c):
        """M's tau row at the point z of red for the data (A, b, c), where
        red is jacobian(z) on data with the same A.

        Such a point has tau = 1, and there M = (Q - I) DPi(z) + I
        involves b and c only in its tau row and column; the reduced
        remainder, and every other row, are red's.  The row is
        -(c, Jy'b, 0), where Jy, DPi's K* block, is I minus M's block of
        the K* rows and columns."""
        n, m = self.n, self.m
        pad = np.zeros(n + m + 1)
        pad[n:n + m] = b
        return np.concatenate([-c, (red.MT @ pad)[n:n + m] - b, [0.0]])

    def split(self, u, v):
        """(x, y, s) from a pair (u, v), or None if tau is not positive."""
        n, m = self.n, self.m
        tau = u[-1]
        if tau <= 0.0:
            return None
        return u[:n] / tau, u[n:n + m] / tau, v[n:n + m] / tau


class ReducedJacobian:
    """M = (Q - I) DPi(z) + I at one point z, and a generalized inverse G
    of M from one sparse LU.

    M is singular at a solution, so G comes from a square part of it.
    Where DPi's column is zero, M's column is the unit vector: those
    unknowns are eliminated and recovered by back-substitution.  The tau
    unknown is pinned to zero, and the rows and columns left without an
    entry are dropped.  The constructor assembles that remainder from M's
    CSC arrays, reading DPi only for its zero columns; the first use of
    lu factors it.  When the remainder is nonsingular, M G r = r for r in
    M's range.  free holds the indices of the dropped empty columns,
    unknowns that no kept equation involves: a variable that appears only
    in constraints whose dual is zero, and not in the objective.  The
    remainder has no factor (lu is None) when it is not square, SuperLU
    finds it singular, or its pivots span more than 1/_PIVOT_RATIO.
    nonsmooth says that Pi kinks at z, and MT is the CSR view M' that the
    transposed products use.

    solve(r) is G r: the remainder's solution on the kept unknowns, zero
    on the dropped ones and back-substitution for the eliminated ones.
    solve_T(s) is G' s, from the same factor.  The least-squares solves
    with M, or M' with transpose, take the first of these that works:
    - G rhs (G' rhs), where it is finite and its residual meets LSQR's
      stopping test;
    - dz = G y (G' y) with y from LSQR on M G (M' G'), which the factor
      preconditions to a few iterations;
    - plain LSQR on M (M'), where there is no factor or G gives a
      non-finite value.
    lstsq, the derivatives' solve, runs all three and raises
    LsqrNoConvergence where LSQR stops at its iteration cap.  lsqr, the
    polish's solve, starts at the second: its right-hand side
    -F(z) = M (-z) leans on tau, which the reduction pins, so G alone
    never solves it.  bordered(t) gives the solution that LSQR on M G
    converges to in closed form, for M with its tau row replaced by t:
    the solver's steps from a held point, on data whose b and c moved.
    """

    def __init__(self, M, DPi, nonsmooth):
        self.M, self.MT = M, M.T
        self.nonsmooth = bool(nonsmooth)
        N = M.shape[0]
        live = np.bincount(DPi.indices[DPi.data != 0.0], minlength=N) > 0
        self._elim = np.flatnonzero(~live)
        live[-1] = False
        rows, data = M.indices, M.data
        cols = np.repeat(np.arange(N), np.diff(M.indptr))
        entry = (data != 0.0) & live[rows] & live[cols]
        rows, cols = rows[entry], cols[entry]
        per_row = np.bincount(rows, minlength=N)
        per_col = np.bincount(cols, minlength=N)
        self._rows = np.flatnonzero(per_row)
        self._cols = np.flatnonzero(per_col)
        self.free = np.flatnonzero(live & (per_col == 0))
        self._B = None
        k = self._cols.size
        if self._rows.size == k:
            # entries stay in M's column order, so the kept rows of each
            # kept column are its CSC segment
            slot = np.cumsum(per_row > 0) - 1
            indptr = np.concatenate([[0], np.cumsum(per_col[self._cols])])
            self._B = sp.csc_matrix((data[entry], slot[rows], indptr),
                                    shape=(k, k))

    @functools.cached_property
    def lu(self):
        """SuperLU of the remainder, or None where there is none or it
        is numerically singular."""
        if self._B is None:
            return None
        try:
            # SuperLU keeps its L and U storage at a size estimated from
            # the panel size; one-column panels cut a factor at 59
            # unknowns from 85 to 26 KB, and at 1,000 from 405 to 61 KB
            lu = spla.splu(self._B, panel_size=1)
        except RuntimeError:  # exactly singular
            return None
        # cond(U) is at least the ratio of its largest to smallest pivot
        pivots = np.abs(lu.U.diagonal())
        if pivots.size and not pivots.min() > _PIVOT_RATIO * pivots.max():
            return None
        return lu

    def solve(self, r):
        """G r; lu must not be None."""
        d = np.zeros(r.size)
        d[self._cols] = self.lu.solve(r[self._rows])
        # M's eliminated columns are unit vectors, zero in d so far
        e = self._elim
        d[e] = r[e] - (self.M @ d)[e]
        return d

    def solve_T(self, s):
        """G' s; lu must not be None."""
        e = self._elim
        se = np.zeros(s.size)
        se[e] = s[e]
        w = s[self._cols] - (self.MT @ se)[self._cols]
        out = se
        out[self._rows] = self.lu.solve(w, trans="T")
        return out

    def bordered(self, t):
        """rhs -> dz = G y, where y minimizes ||M' G y - rhs|| and M' is
        M with its tau row replaced by t; lu must not be None.

        M' G y is y on the kept rows and the eliminated unknowns, zero on
        the dropped rows, and h'y with h = G' t in the tau row, so the
        minimizer is y = rhs + h (rhs_tau - h'rhs) / (1 + h'h): the
        solution that LSQR on M' G converges to, for one transposed solve
        per t and one solve per rhs."""
        h = self.solve_T(t)
        hh = 1.0 + float(h @ h)
        return lambda rhs: self.solve(rhs + h * ((rhs[-1] - h @ rhs) / hh))

    def lstsq(self, rhs, transpose=False):
        """A least-squares solution of M dz = rhs (M' dz = rhs with
        transpose); raises LsqrNoConvergence if LSQR hit its cap."""
        if self.lu is not None:
            dz = (self.solve_T if transpose else self.solve)(rhs)
            M = self.MT if transpose else self.M
            if np.all(np.isfinite(dz)) and np.linalg.norm(
                    M @ dz - rhs) <= _LSQR_TOL * (np.linalg.norm(rhs) + (
                        np.linalg.norm(M.data) * np.linalg.norm(dz))):
                return dz
        dz, capped = self.lsqr(rhs, transpose)
        if capped:
            raise LsqrNoConvergence(f"least-squares solve stopped at the "
                                    f"{10 * rhs.size}-iteration cap")
        return dz

    def lsqr(self, rhs, transpose=False):
        """lstsq without the G rhs attempt: the solution, and whether
        LSQR stopped at its iteration cap."""
        if self.lu is not None:
            M, MT = (self.MT, self.M) if transpose else (self.M, self.MT)
            G, GT = ((self.solve_T, self.solve) if transpose
                     else (self.solve, self.solve_T))
            op = spla.LinearOperator(M.shape, matvec=lambda y: M @ G(y),
                                     rmatvec=lambda s: GT(MT @ s),
                                     dtype=float)
            y, capped = _lsqr(op, rhs)
            dz = G(y)
            if np.all(np.isfinite(dz)):
                return dz, capped
        # a CSC copy, not the CSR view M.T: the two sum LSQR's products in
        # a different order, and LSQR carries that rounding into the result
        return _lsqr(self.M.T.tocsc() if transpose else self.M, rhs)


def _lsqr(op, rhs):
    """LSQR at _LSQR_TOL: the solution, and whether it hit the cap."""
    out = spla.lsqr(op, rhs, atol=_LSQR_TOL, btol=_LSQR_TOL,
                    iter_lim=10 * rhs.size)
    return out[0], out[1] == 7
