"""Derivatives of the cone-program solution map.

Given an optimal primal-dual triple (x, y, s) for

    minimize c'x  subject to  Ax + s = b,  s in K,

the solution is a zero of the residual map F of the homogeneous
self-dual embedding (embedding.Embedding), evaluated at the normalized
point z = (x, y - s, 1).  A perturbation dtheta of the data theta =
(A.data, b, c) moves F by dQ u, u = (x, y, 1), with dQ the embedding's
Q_of(dtheta).  So the derivative in a direction dtheta, and its adjoint
through Q_of_adjoint, each take one sparse least-squares solve with the
Jacobian of F there,

    M = (Q - I) DPi(z) + I,

where DPi is the derivative of the projection onto R^n x K* x R_+.
Neither direction materializes a dense Jacobian.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse.linalg as spla

from .compiler import DimensionError

__all__ = ["LsqrNoConvergence", "NonsmoothWarning", "ResidualPoint",
           "dphi", "dphi_adjoint"]

_LSQR_TOL = 1e-12


class LsqrNoConvergence(RuntimeError):
    """The least-squares solve hit its iteration cap."""


class NonsmoothWarning(UserWarning):
    """The projection is not differentiable here; results are heuristic."""


class ResidualPoint:
    """Differentiation state at one solved cone program.

    Reuses the solve's embedding (ConeSolution.embedding) and caches
    u = (x, y, 1), z = (x, y - s, 1), DPi(z) and M there.  Instances are
    read-only after construction and safe to share across threads.
    """

    def __init__(self, embedding, x, y, s):
        self.embedding = embedding
        self.n, self.m = embedding.n, embedding.m
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.u = np.concatenate([self.x, self.y, [1.0]])
        self.z = np.concatenate([self.x, self.y - np.asarray(s, dtype=float),
                                 [1.0]])
        self.M, self.DPi, nonsmooth = embedding.jacobian(self.z)
        self.nonsmooth = bool(nonsmooth)
        if self.nonsmooth:
            # reported at the caller of Problem.solve or solve_many
            warnings.warn("projection not differentiable at the solution; "
                          "sensitivities are a least-squares heuristic",
                          NonsmoothWarning, stacklevel=4)


def _lsqr(op, rhs):
    dz, istop, itn = spla.lsqr(op, rhs, atol=_LSQR_TOL, btol=_LSQR_TOL,
                               iter_lim=10 * rhs.size)[:3]
    if istop == 7:
        raise LsqrNoConvergence(
            f"least-squares solve stopped at the {itn}-iteration cap")
    return dz


def dphi(point, dtheta):
    """Directional derivative of the primal solution x in a data direction.

    dtheta perturbs theta = (A.data, b, c), A's entries on its CSC
    pattern.  Linear in dtheta.
    """
    dtheta = np.asarray(dtheta, dtype=float).ravel()
    if dtheta.size != point.embedding.theta_size:
        raise DimensionError(f"data direction has size {dtheta.size}, "
                             f"expected {point.embedding.theta_size}")
    dz = _lsqr(point.M, -(point.embedding.Q_of(dtheta) @ point.u))
    du = point.DPi @ dz
    return du[:point.n] - point.x * du[-1]


def dphi_adjoint(point, dx):
    """Adjoint of dphi: map dx to the gradient over theta = (A.data, b, c)."""
    dx = np.asarray(dx, dtype=float).ravel()
    if dx.size != point.n:
        raise DimensionError(
            f"solution direction has size {dx.size}, expected {point.n}")
    rhs = point.DPi.T @ np.concatenate([dx, np.zeros(point.m),
                                        [-float(point.x @ dx)]])
    # a CSC copy, not the CSR view M.T: the two sum LSQR's products in a
    # different order, and LSQR carries that rounding into the result
    r = _lsqr(point.M.T.tocsc(), rhs)
    return -point.embedding.Q_of_adjoint(r, point.u)
