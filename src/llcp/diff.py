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

The solves go through the point's ReducedJacobian.lstsq, on one sparse
LU made on the first use at the point: dphi takes G rhs and dphi_adjoint
G' rhs, the generalized inverse and its transpose, wherever that meets
LSQR's own stopping test.  Elsewhere the right-hand side lies outside
M's range, as a random data direction does once the solution has free
directions, and LSQR on M G (M' G') finds the least-squares solution.
Only where the remainder has no factor, is numerically singular, or G
gives a non-finite value does LSQR run on M itself.  With one G for both
directions, derivative and adjoint agree to roundoff.

A free direction of the solution in an original variable, a column that
the reduction finds empty among the first n_x unknowns, makes the
solution non-unique there; the point reports it and warns with
NonuniqueWarning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .compiler import DimensionError
from .embedding import ReducedJacobian

__all__ = ["LsqrNoConvergence", "NonsmoothWarning", "NonuniqueWarning",
           "ResidualPoint", "dphi", "dphi_adjoint"]


class LsqrNoConvergence(RuntimeError):
    """The least-squares solve hit its iteration cap."""


class NonsmoothWarning(UserWarning):
    """The projection is not differentiable here; results are heuristic."""


class NonuniqueWarning(UserWarning):
    """The solution is not unique in an original variable; derivatives
    follow one solution of many."""


class ResidualPoint:
    """Differentiation state at one solved cone program.

    Reuses the solve's embedding (ConeSolution.embedding) and caches
    u = (x, y, 1), z = (x, y - s, 1), DPi(z), M and its ReducedJacobian
    there; the reduction's factor is made by the first solve that needs
    it.  unique is False when the reduction leaves free one of the first
    n_x unknowns, the original variables' logarithms.  Instances are safe
    to share across threads: two threads that both make the factor make
    the same one.
    """

    def __init__(self, embedding, x, y, s, n_x):
        self.embedding = embedding
        self.n, self.m = embedding.n, embedding.m
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.u = np.concatenate([self.x, self.y, [1.0]])
        self.z = np.concatenate([self.x, self.y - np.asarray(s, dtype=float),
                                 [1.0]])
        self.M, self.DPi, nonsmooth = embedding.jacobian(self.z)
        self.reduced = ReducedJacobian(self.M, self.DPi)
        self.nonsmooth = bool(nonsmooth)
        self.unique = not np.any(self.reduced.free < n_x)
        # both reported at the caller of Problem.solve or solve_many
        if self.nonsmooth:
            warnings.warn("projection not differentiable at the solution; "
                          "sensitivities are a least-squares heuristic",
                          NonsmoothWarning, stacklevel=4)
        if not self.unique:
            warnings.warn("the solution is not unique in a variable; "
                          "sensitivities follow one of the solutions",
                          NonuniqueWarning, stacklevel=4)


def _solve(point, rhs, transpose=False):
    """A least-squares solution of M dz = rhs, or M' dz = rhs with
    transpose; raises LsqrNoConvergence if LSQR hit its cap."""
    dz, capped = point.reduced.lstsq(rhs, transpose)
    if capped:
        raise LsqrNoConvergence(f"least-squares solve stopped at the "
                                f"{10 * rhs.size}-iteration cap")
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
    dz = _solve(point, -(point.embedding.Q_of(dtheta) @ point.u))
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
    r = _solve(point, rhs, transpose=True)
    return -point.embedding.Q_of_adjoint(r, point.u)
