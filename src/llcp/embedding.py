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

import numpy as np
import scipy.sparse as sp

from .cones import dproject_cone, project_cone

__all__ = ["Embedding", "canonical"]


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

    def residual(self, z):
        """F(z) = Q Pi(z) - Pi(z) + z."""
        u = self.project(z)
        return self.Q @ u - u + z

    def jacobian(self, z):
        """M = (Q - I) DPi(z) + I as CSC, with DPi and the nonsmooth flag."""
        DPi, nonsmooth = self.dproject(z)
        eye = sp.eye(self.n + self.m + 1, format="csc")
        return ((self.Q - eye) @ DPi + eye).tocsc(), DPi, nonsmooth

    def split(self, u, v):
        """(x, y, s) from a pair (u, v), or None if tau is not positive."""
        n, m = self.n, self.m
        tau = u[-1]
        if tau <= 0.0:
            return None
        return u[:n] / tau, u[n:n + m] / tau, v[n:n + m] / tau
