"""Derivatives of the cone-program solution map.

Given an optimal primal-dual triple (x, y, s) for

    minimize c'x  subject to  Ax + s = b,  s in K,

the solution is a zero of the residual map F of the homogeneous
self-dual embedding (embedding.Embedding), evaluated at the normalized
point z = (x, y - s, 1).  Both the derivative of the solution in a data
direction (dA, db, dc) and its adjoint reduce to one sparse
least-squares solve with the Jacobian of F there,

    M = (Q - I) DPi(z) + I,

where DPi is the derivative of the projection onto R^n x K* x R_+.
Neither direction materializes a dense Jacobian; perturbations of A are
restricted to its sparsity pattern.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .embedding import Embedding

__all__ = ["LsqrNoConvergence", "NonsmoothWarning", "ResidualPoint",
           "dphi", "dphi_adjoint"]

_LSQR_TOL = 1e-10


class LsqrNoConvergence(RuntimeError):
    """The least-squares solve hit its iteration cap."""


class NonsmoothWarning(UserWarning):
    """The projection is not differentiable here; results are heuristic."""


class ResidualPoint:
    """Differentiation state at one solved cone program.

    Assembles z = (x, y - s, 1), caches the projection derivative and
    the operator M there, and exposes forward and adjoint sensitivities
    through dphi / dphi_adjoint.  Instances are read-only after
    construction and safe to share across threads.
    """

    def __init__(self, A, b, c, dims, x, y, s):
        self.A = sp.csc_matrix(A)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.dims = dict(dims)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.s = np.asarray(s, dtype=float)
        m, n = self.A.shape
        self.m, self.n = m, n
        self.z = np.concatenate([self.x, self.y - self.s, [1.0]])
        self.embedding = Embedding(self.A, self.b, self.c, self.dims)
        self.M, self.DPi, nonsmooth = self.embedding.jacobian(self.z)
        self.nonsmooth = bool(nonsmooth)
        if self.nonsmooth:
            warnings.warn("projection not differentiable at the solution; "
                          "sensitivities are a least-squares heuristic",
                          NonsmoothWarning, stacklevel=3)

    def splitting(self):
        """Recover (u, v) = (Pi(z), Pi(z) - z); reproduces (x, y, 1), (0, s, 0)."""
        u = self.embedding.project(self.z)
        return u, u - self.z


def _lsqr(op, rhs):
    N = rhs.size
    out = spla.lsqr(op, rhs, atol=_LSQR_TOL, btol=_LSQR_TOL, iter_lim=10 * N)
    dz, istop, itn = out[0], out[1], out[2]
    if istop == 7:
        raise LsqrNoConvergence(
            f"least-squares solve stopped at the {itn}-iteration cap")
    return dz


def dphi(point, dA, db, dc):
    """Directional derivative of the primal solution x in a data direction.

    dA may be dense or sparse with any pattern; db and dc are vectors.
    Linear in (dA, db, dc).
    """
    n = point.n
    dA = sp.csc_matrix(dA)
    db = np.asarray(db, dtype=float)
    dc = np.asarray(dc, dtype=float)
    x, y = point.x, point.y
    # right-hand side -dQ(d.) applied to u = (x, y, 1)
    g = -np.concatenate([
        dA.T @ y + dc,
        -(dA @ x) + db,
        [-float(dc @ x) - float(db @ y)],
    ])
    dz = _lsqr(point.M, g)
    du = point.DPi @ dz
    return du[:n] - x * du[-1]


def dphi_adjoint(point, dx):
    """Adjoint of dphi: map dx to (dA, db, dc).

    dA comes back as a CSC matrix on exactly the sparsity pattern of A.
    """
    n, m = point.n, point.m
    dx = np.asarray(dx, dtype=float)
    x, y = point.x, point.y
    A = point.A
    rhs = point.DPi.T @ np.concatenate([dx, np.zeros(m), [-float(x @ dx)]])
    # a CSC copy, not the CSR view M.T: the two sum LSQR's products in a
    # different order, and LSQR carries that rounding into the result
    r = _lsqr(point.M.T.tocsc(), rhs)
    rx, ry, rtau = r[:n], r[n:n + m], r[-1]
    dA = A.copy()
    rows = dA.indices
    cols = np.repeat(np.arange(n), np.diff(dA.indptr))
    dA.data = ry[rows] * x[cols] - y[rows] * rx[cols]
    db = rtau * y - ry
    dc = rtau * x - rx
    return dA, db, dc
