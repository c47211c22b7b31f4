"""Assembly of cone-program data from the lowered convex problem.

The target problem is

    minimize    c'v
    subject to  A v + s = b,   s in {0}^nz x R+^nl x Kexp^ne,

over v = (u, q), where u are the log-space variables and q are one extra
variable per log-sum-exp term.  A log-sum-exp constraint lse(w_1..w_r) <= t
becomes sum_i q_i <= 1 plus r exponential-cone triples exp(w_i - t) <= q_i;
a plain exponential bound uses one triple with middle entry fixed to one.

Every entry of (A, b, c) is an affine function of the transformed parameter
vector beta, so the whole data vector is T [beta; 1] for a sparse matrix T
built once per problem structure.  The sparsity pattern of A is fixed at
compile time; updating parameter values only rescatters values into it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from llcp.canon import ConvexProblem

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


class _Assembler:
    def __init__(self, n_beta):
        self.n_beta = n_beta
        # (row, col) -> list of (beta index | None, coefficient)
        self.A_entries: dict = {}
        self.b_entries: dict = {}
        self.row = 0

    def new_row(self):
        r = self.row
        self.row += 1
        return r

    def add_A(self, row, col, beta, coef):
        self.A_entries.setdefault((row, col), []).append((beta, coef))

    def add_b(self, row, beta, coef):
        self.b_entries.setdefault(row, []).append((beta, coef))

    def put(self, row, linexpr, sign):
        """Install row whose slack b - A v is sign * expr: sign -1 for
        expr <= 0 (or == 0), sign 1 for a cone entry equal to expr."""
        for b, v, c in linexpr:
            if v is not None:
                self.add_A(row, v, b, -sign * c)
            else:
                self.add_b(row, b, sign * c)


def compile_problem(prob: ConvexProblem) -> "ParamToDataMap":
    """Compile the lowered problem into the sparse parameter-to-data map."""
    zero_rows, nonneg_rows, exp_cons = [], [], []
    n_q = 0
    for con in prob.constraints:
        if con.kind == "zero":
            zero_rows.append(con.args[0])
        elif con.kind == "nonneg":
            nonneg_rows.append(("row", con.args[0]))
        elif con.kind == "expleq":
            exp_cons.append(("expleq", con.args[0], con.rhs))
        elif con.kind == "lse":
            if len(con.args) == 1:
                # a one-term log-sum-exp is just an affine bound
                nonneg_rows.append(
                    ("row", con.args[0] + [(b, v, -c) for b, v, c in con.rhs])
                )
            else:
                qs = list(range(prob.n_vars + n_q,
                                prob.n_vars + n_q + len(con.args)))
                n_q += len(con.args)
                nonneg_rows.append(("sum_q", qs))
                exp_cons.append(("lse", con.args, con.rhs, qs))
        else:
            raise UnsupportedPrimitiveError(
                f"no cone recipe for constraint kind {con.kind!r}"
            )

    n_cone = prob.n_vars + n_q
    nz, nl, ne = len(zero_rows), len(nonneg_rows), 0

    asm = _Assembler(prob.n_beta)
    for le in zero_rows:
        asm.put(asm.new_row(), le, -1)
    for kind, payload in nonneg_rows:
        r = asm.new_row()
        if kind == "row":
            asm.put(r, payload, -1)
        else:
            for qi in payload:
                asm.add_A(r, qi, None, 1.0)
            asm.add_b(r, None, 1.0)

    def emit_triple(arg_le, rhs_le, q_col=None):
        r1 = asm.new_row()
        asm.put(r1, arg_le, 1)
        r2 = asm.new_row()
        asm.add_b(r2, None, 1.0)
        r3 = asm.new_row()
        if q_col is None:
            asm.put(r3, rhs_le, 1)
        else:
            asm.add_A(r3, q_col, None, -1.0)

    for item in exp_cons:
        if item[0] == "expleq":
            _, arg, rhs = item
            emit_triple(arg, rhs)
            ne += 1
        else:
            _, args, rhs, qs = item
            neg_rhs = [(b, v, -c) for b, v, c in rhs]
            for arg, qi in zip(args, qs):
                emit_triple(arg + neg_rhs, None, q_col=qi)
                ne += 1

    m = asm.row
    assert m == nz + nl + 3 * ne

    # objective: variable terms only; constant and parameter-only terms
    # shift the value but not the minimizer
    c_entries: dict = {}
    for b, v, coef in prob.objective:
        if v is not None:
            c_entries.setdefault(v, []).append((b, coef))

    # CSC pattern of A, slots ordered by (column, row)
    keys = sorted(asm.A_entries.keys(), key=lambda rc: (rc[1], rc[0]))
    nnz = len(keys)
    indptr = np.zeros(n_cone + 1, dtype=np.int64)
    for _, col in keys:
        indptr[col + 1] += 1
    indptr = np.cumsum(indptr)
    row_idx = np.array([r for r, _ in keys], dtype=np.int64)

    p = prob.n_beta
    T_rows, T_cols, T_vals = [], [], []

    def put_T(slot, contribs):
        for b, coef in contribs:
            T_rows.append(slot)
            T_cols.append(p if b is None else b)
            T_vals.append(coef)

    for slot, rc in enumerate(keys):
        put_T(slot, asm.A_entries[rc])
    for r, contribs in asm.b_entries.items():
        put_T(nnz + r, contribs)
    for v, contribs in c_entries.items():
        put_T(nnz + m + v, contribs)

    T = sp.csr_matrix(
        (T_vals, (T_rows, T_cols)),
        shape=(nnz + m + n_cone, p + 1),
    )
    dims = {"zero": nz, "nonneg": nl, "exp": ne}
    return ParamToDataMap(
        T=T, nnz=nnz, m=m, n=n_cone, n_beta=p, dims=dims,
        csc_indptr=indptr, csc_rows=row_idx, n_x=prob.n_x,
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
        self.csc_indptr = csc_indptr
        self.csc_rows = csc_rows
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
