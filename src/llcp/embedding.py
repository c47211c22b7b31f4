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

DPi is block-diagonal with a fixed layout, so the terms that each entry
of M can sum depend on Q's pattern and the dims alone.  jacobian(z)
fills M by gathers over one index map of those terms (_JacobianMap),
which the first linearization builds and every embedding that at()
makes from this one shares, one per solver workspace.  A point then
costs dproject_cone, two gathers, a multiply and a bincount over the
terms, and M is SciPy's (Q - I) @ DPi + I to the bit.  jacobians(Z, ...)
linearizes the k points of a stack, each on its own embedding of the
pattern, from one dproject_cone of the stack; jacobian(z) is its stack
of one.

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
import threading

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
# held while a _JacobianMap lists its terms
_BUILD_LOCK = threading.Lock()


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
        # M's pattern at any point, built on the first jacobian() of this
        # embedding or of a copy that at() makes, which all share it
        self._jmap = _JacobianMap(self._rows, self._indptr, n, dims)

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

    def residual(self, z, u=None):
        """F(z) = Q Pi(z) - Pi(z) + z; u is Pi(z) where the caller has it."""
        if u is None:
            u = self.project(z)
        return self.Q @ u - u + z

    def jacobian(self, z):
        """The ReducedJacobian of F at z, M = (Q - I) DPi(z) + I as CSC:
        jacobians() of the one-column stack."""
        return next(self.jacobians(z[:, None], [self]))

    def jacobians(self, Z, embeddings):
        """The ReducedJacobians of F at the k columns of the (N, k) stack
        Z, column j's on embeddings[j], which share this embedding's
        pattern and dims (as the embeddings that at() makes do): one
        dproject_cone of the stack gives every column's DPi.  They are
        made one at a time, as the returned iterator is read."""
        n, m = self.n, self.m
        Jys, flags = dproject_cone(Z[n:n + m], self.dims, dual=True)
        for emb, Jy, nonsmooth, tau in zip(embeddings, Jys, flags, Z[-1]):
            M, live, cols = emb._jmap(emb.Q.data, Jy, float(tau > 0.0))
            yield ReducedJacobian(M, live, bool(nonsmooth), Jy, cols)

    def tau_row(self, red, b, c):
        """M's tau row at the point z of red for the data (A, b, c), where
        red is jacobian(z) on data with the same A.

        Such a point has tau = 1, and there M = (Q - I) DPi(z) + I
        involves b and c only in its tau row and column; the reduced
        remainder, and every other row, are red's.  The row is
        -(c, Jy'b, 0), with Jy, DPi's K* block, the one red keeps."""
        return np.concatenate([-c, -(red.Jy.T @ b), [0.0]])

    def split(self, u, v):
        """(x, y, s) from a pair (u, v), or None if tau is not positive."""
        n, m = self.n, self.m
        tau = u[-1]
        if tau <= 0.0:
            return None
        return u[:n] / tau, u[n:n + m] / tau, v[n:n + m] / tau


class _JacobianMap:
    """M = (Q - I) DPi(z) + I by gathers from Q's data and DPi's blocks.

    DPi is block-diagonal with a fixed layout: the identity on x, a
    diagonal on the zero and nonnegative rows of K*, one 3x3 block per
    exponential triple, and tau's scalar; dproject_cone stores its K*
    block in that layout, zeros included.  So M at any point sums the
    products (Q - I)[i, k] DPi[k, j] over one set of terms per entry.
    The first call lists them, sorted by entry and, within one, by k:
    the order in which SciPy's sparse product adds them.  Each call then
    makes the products by two gathers, sums them with bincount, which
    adds in that order from zero, and drops the entries that come out
    zero, as the sparse operations do; the columns where DPi is zero go
    with them.  A product that SciPy never forms has a zero factor, and
    adding it changes no sum of finite terms but a zero's sign, so M is
    SciPy's sum (Q - I) @ DPi + I, entry for entry and bit for bit, with
    sorted indices.  On the diagonal, -d + 1 is the one term 1 * (1 - d), and
    the x columns, where it is 1 - 1, have none.

    One map serves a Q pattern and is shared by the embeddings that at()
    makes; _BUILD_LOCK makes two threads that call first list the terms
    once, and leaves the map free of a lock that copy and pickle refuse.
    """

    def __init__(self, rows, indptr, n, dims):
        self._pattern = rows, indptr, n, dims
        self._maps = None

    def __call__(self, Qdata, Jy, tau):
        """M at the point where DPi's K* block is Jy, dproject_cone's
        matrix, and its tau entry is tau; the mask of DPi's nonzero
        columns; and the column of each of M's entries."""
        if self._maps is None:
            with _BUILD_LOCK:
                if self._maps is None:
                    self._maps = self._build(*self._pattern)
        entry, src, blk, rows, cols, d_col, d_blk = self._maps
        # q: Q's data, then -1 and 1; d: DPi's K* block and tau entry,
        # then 1 (DPi on x) and each of them as 1 - d
        q = np.concatenate([Qdata, [-1.0, 1.0]])
        d = np.append(Jy.data, tau)
        d = np.concatenate([d, [1.0], 1.0 - d])
        # bincount adds each entry's terms in their order, from zero
        full = np.bincount(entry, np.take(q, src) * np.take(d, blk),
                           minlength=rows.size)
        kept = np.flatnonzero(full != 0.0)
        cols = np.take(cols, kept)
        N = self._pattern[1].size - 1
        indptr = np.zeros(N + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=N), out=indptr[1:])
        M = sp.csc_matrix((full[kept], np.take(rows, kept), indptr),
                          shape=(N, N))
        live = np.bincount(d_col, np.take(d, d_blk) != 0.0, minlength=N)
        return M, live > 0.0, cols

    @staticmethod
    def _build(rows, indptr, n, dims):
        """The terms of M's entries, each the product q[src] * d[blk]
        for entry entry, sorted by entry and, within one, by the row of
        DPi they come through; the rows and columns of the entries,
        sorted by column and row; and DPi's pattern, its entries' columns
        and slots in d."""
        N, nq = indptr.size - 1, rows.size
        nd, ne = dims["zero"] + dims["nonneg"], dims["exp"]
        nj = nd + 9 * ne
        # DPi's pattern by rows: one entry in a diagonal block's row,
        # three in a triple's, each with its column and its slot in d
        per = np.ones(N, dtype=np.intp)
        per[n + nd:N - 1] = 3
        t, _, c = np.unravel_index(np.arange(9 * ne), (ne, 3, 3))
        d_col = np.concatenate([np.arange(n + nd), n + nd + 3 * t + c,
                                [N - 1]])
        d_blk = np.concatenate([np.full(n, nj + 1), np.arange(nj + 1)])
        # Q - I without the diagonal on x, where DPi's 1 makes it 0
        i = np.concatenate([rows, np.arange(n, N)])
        k = np.concatenate([np.repeat(np.arange(N), np.diff(indptr)),
                            np.arange(n, N)])
        src = np.append(np.arange(nq), np.full(N - n, nq))
        # a term per entry (i, k) of Q - I and entry (k, j) of DPi; Q's
        # come in the order of k, and an entry with a diagonal term has
        # no other, so a stable sort by entry keeps each one's in order
        reps = per[k]
        term = np.repeat(np.cumsum(per)[k] - np.cumsum(reps), reps) \
            + np.arange(reps.sum())
        i, k, src = (np.repeat(a, reps) for a in (i, k, src))
        j, blk = d_col[term], d_blk[term]
        # on the diagonal, -d + 1 is the term 1 * (1 - d)
        on = (i == k) & (k == j)
        src[on], blk[on] = nq + 1, nj + 2 + blk[on]
        ij = j * N + i
        order = np.argsort(ij, kind="stable")
        ij = ij[order]
        new = np.append(True, ij[1:] != ij[:-1])
        i32 = functools.partial(np.asarray, dtype=np.int32)
        return (i32(np.cumsum(new) - 1), i32(src[order]), i32(blk[order]),
                i32(i[order][new]), i32(j[order][new]), i32(d_col),
                i32(d_blk))


class ReducedJacobian:
    """M = (Q - I) DPi(z) + I at one point z, and a generalized inverse G
    of M from one sparse LU.

    M is singular at a solution, so G comes from a square part of it.
    Where DPi's column is zero, M's column is the unit vector: those
    unknowns are eliminated and recovered by back-substitution.  The tau
    unknown is pinned to zero, and the rows and columns left without an
    entry are dropped.  The constructor assembles that remainder from M's
    CSC arrays, which store no zeros, and live, the mask of DPi's nonzero
    columns; cols, the column of each of M's entries, comes from M where
    it is not given.  The first use of lu factors the remainder.  When
    it is nonsingular, M G r = r for r in M's range.  free holds the
    indices of the dropped empty columns, unknowns that no kept equation
    involves: a variable that appears only in constraints whose dual is
    zero, and not in the objective.  The
    remainder has no factor (lu is None) when it is not square, SuperLU
    finds it singular, or its pivots span more than 1/_PIVOT_RATIO.
    nonsmooth says that Pi kinks at z, and MT is the CSR view M' that the
    transposed products use.  Jy, DPi's K* block, is kept for
    Embedding.tau_row.

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

    def __init__(self, M, live, nonsmooth, Jy=None, cols=None):
        self.M, self.MT = M, M.T
        self.nonsmooth = bool(nonsmooth)
        self.Jy = Jy
        N = M.shape[0]
        self._elim = np.flatnonzero(~live)
        live = live.copy()
        live[-1] = False
        if cols is None:
            cols = np.repeat(np.arange(N), np.diff(M.indptr))
        # an eliminated column is M's unit vector, whose row is not live
        # either, so an entry is kept where its row is live, but in tau's
        # column
        entry = np.take(live, M.indices)
        entry[M.indptr[-2]:] = False
        entry = np.flatnonzero(entry)
        rows, cols = M.indices[entry], cols[entry]
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
            slot = np.zeros(N, dtype=np.int32)
            slot[self._rows] = np.arange(k, dtype=np.int32)
            indptr = np.zeros(k + 1, dtype=np.int32)
            np.cumsum(per_col[self._cols], out=indptr[1:])
            self._B = sp.csc_matrix(
                (M.data[entry], np.take(slot, rows), indptr), shape=(k, k))

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
