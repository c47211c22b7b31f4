"""Assembly of cone-program data from the lowered convex problem.

The target problem is

    minimize    c'v
    subject to  A v + s = b,   s in {0}^nz x R+^nl x Kexp^ne,

over v = (u, q), where u are the log-space variables and q are one extra
variable per log-sum-exp term.  A log-sum-exp constraint lse(w_1..w_r) <= t
becomes sum_i q_i <= 1 plus r exponential-cone triples exp(w_i - t) <= q_i;
a plain exponential bound uses one triple with middle entry fixed to one.

Rows come in cone order: the zero rows, then the nonnegative rows in
constraint order (a log-sum-exp's sum_i q_i <= 1 in its constraint's
place), then the exponential-cone triples in constraint order.  The q
variables are numbered in constraint order after the u variables.

Every entry of (A, b, c) is an affine function of the transformed parameter
vector beta, so the whole data vector is T [beta; 1] for a sparse matrix T
built once per problem structure.  The sparsity pattern of A is fixed at
compile time; updating parameter values only rescatters values into it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from llcp.canon import ConvexProblem, lin_const, lin_scale, lin_var

__all__ = [
    "ParamToDataMap",
    "UnsupportedPrimitiveError",
    "DimensionError",
    "compile_problem",
]


class UnsupportedPrimitiveError(ValueError):
    """The lowered problem contains a constraint kind with no cone recipe."""


class DimensionError(ValueError):
    """Vector length does not match the compiled layout."""


def compile_problem(prob: ConvexProblem) -> "ParamToDataMap":
    """Compile the lowered problem into the sparse parameter-to-data map.

    Every cone row is one pair (expr, sign) of a LinExpr and a sign, with
    the row's slack b - A v equal to sign * expr: sign -1 states
    expr <= 0 (or == 0), sign 1 makes the cone entry expr itself.  A
    term's variable part goes to A with coefficient -sign * c, its
    constant or parameter part to b with sign * c.
    """
    zero, nonneg, exp = [], [], []
    n_cone = prob.n_vars
    for con in prob.constraints:
        if con.kind == "zero":
            zero.append((con.args[0], -1))
        elif con.kind == "nonneg":
            nonneg.append((con.args[0], -1))
        elif con.kind == "expleq":
            exp += [(con.args[0], 1), (lin_const(1.0), 1), (con.rhs, 1)]
        elif con.kind == "lse":
            # the argument and the negated rhs stay concatenated: merging
            # them would drop terms that cancel and change A's pattern
            neg_rhs = lin_scale(con.rhs, -1.0)
            if len(con.args) == 1:
                # a one-term log-sum-exp is just an affine bound
                nonneg.append((con.args[0] + neg_rhs, -1))
                continue
            # sum_i q_i - 1 <= 0, and the triple (arg_i - rhs, 1, q_i)
            qs = range(n_cone, n_cone + len(con.args))
            n_cone += len(con.args)
            nonneg.append(([(None, q, 1.0) for q in qs] + lin_const(-1.0),
                           -1))
            for arg, q in zip(con.args, qs):
                exp += [(arg + neg_rhs, 1), (lin_const(1.0), 1),
                        (lin_var(q), 1)]
        else:
            raise UnsupportedPrimitiveError(
                f"no cone recipe for constraint kind {con.kind!r}"
            )
    rows = zero + nonneg + exp
    m, p = len(rows), prob.n_beta

    # one (row, var, beta column, coefficient) entry per term, var -1 for a
    # term of b; the objective's variable terms follow as row m.  Its
    # constant and parameter-only terms shift the value, not the minimizer.
    table = [(r, -1 if v is None else v, p if b is None else b,
              sign * c if v is None else -sign * c)
             for r, (le, sign) in enumerate(rows) for b, v, c in le]
    table += [(m, v, p if b is None else b, c)
              for b, v, c in prob.objective if v is not None]
    terms = np.array(table, dtype=float).reshape(-1, 4)
    row, var, col = terms[:, :3].astype(np.int64).T

    # A's CSC pattern: slots ordered by (column, row)
    in_A = (var >= 0) & (row < m)
    keys, slot = np.unique(var[in_A] * m + row[in_A], return_inverse=True)
    nnz = keys.size
    indptr = np.cumsum(np.bincount(keys // m + 1, minlength=n_cone + 1))
    # T's rows: A's slots, then b's rows, then c's entries; the CSR
    # constructor sums each row's duplicate terms
    t_row = np.where(var < 0, nnz + row, nnz + m + var)
    t_row[in_A] = slot
    T = sp.csr_matrix((terms[:, 3], (t_row, col)),
                      shape=(nnz + m + n_cone, p + 1))
    dims = {"zero": len(zero), "nonneg": len(nonneg), "exp": len(exp) // 3}
    return ParamToDataMap(
        T=T, nnz=nnz, m=m, n=n_cone, n_beta=p, dims=dims,
        csc_indptr=indptr, csc_rows=keys % m, n_x=prob.n_x,
    )


class ParamToDataMap:
    """Sparse affine map from transformed parameters to cone data.

    ``instantiate`` scatters T [beta; 1] into the fixed CSC pattern;
    ``apply_T`` and ``apply_T_adjoint`` are the map's Jacobian and its
    transpose, acting on data vectors theta = (A.data, b, c).
    """

    def __init__(self, T, nnz, m, n, n_beta, dims, csc_indptr, csc_rows,
                 n_x):
        self.T = T
        self.nnz = nnz
        self.m = m
        self.n = n
        self.n_beta = n_beta
        self.dims = dims
        # in the index type that SciPy would convert them to, so that each
        # instantiate's CSC constructor takes them as they are
        index = np.int32 if max(nnz, m, n) < 2**31 else np.int64
        self.csc_indptr = csc_indptr.astype(index)
        self.csc_rows = csc_rows.astype(index)
        self.n_x = n_x
        self._Tp = T[:, :n_beta].tocsr()

    @property
    def data_size(self) -> int:
        return self.nnz + self.m + self.n

    def _check_beta(self, beta):
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.size != self.n_beta:
            raise DimensionError(
                f"beta has size {beta.size}, expected {self.n_beta}"
            )
        return beta

    def data_vector(self, beta) -> np.ndarray:
        beta = self._check_beta(beta)
        return self.T @ np.concatenate([beta, [1.0]])

    def instantiate(self, beta):
        """Cone data (A, b, c) at the given transformed parameters."""
        vals = self.data_vector(beta)
        A = sp.csc_matrix(
            (vals[:self.nnz], self.csc_rows, self.csc_indptr),
            shape=(self.m, self.n),
        )
        b = vals[self.nnz:self.nnz + self.m]
        c = vals[self.nnz + self.m:]
        return A, b, c

    def apply_T(self, dbeta) -> np.ndarray:
        """Directional data perturbation d(A.data, b, c) for dbeta."""
        dbeta = self._check_beta(dbeta)
        return self._Tp @ dbeta

    def apply_T_adjoint(self, dvals) -> np.ndarray:
        dvals = np.asarray(dvals, dtype=float).ravel()
        if dvals.size != self.data_size:
            raise DimensionError(
                f"data vector has size {dvals.size}, expected {self.data_size}"
            )
        return self._Tp.T @ dvals
