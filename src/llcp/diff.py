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

Both solves go through the point's ReducedJacobian.lstsq, whose
docstring states the policy: G rhs and G' rhs, from one sparse LU made
on the first use at the point, wherever they meet LSQR's own stopping
test, and LSQR elsewhere.  With one G for both directions, derivative
and adjoint agree to roundoff.  DPi's x rows and its tau row are unit
rows at tau = 1, so the derivative reads dx = dz_x - x dz_tau off the
solution dz, and DPi enters only through M.

A free direction of the solution in an original variable, a column that
the reduction finds empty among the first n_x unknowns, makes the
solution non-unique there; the point reports it and warns with
NonuniqueWarning.

The points of one solve's columns, one or many, are linearized
together: linearize stacks their z and makes all their Jacobians from
one derivative of the projection of the stack (Embedding.jacobians),
each the one its point would make alone.

The point also seeds the next warm solve (solver.solve): where only b
and c move, its factor gives Gauss-Newton steps from the solution, and
the first of them is this module's derivative of the solution in the
data's change.
"""

from __future__ import annotations

import warnings

import numpy as np

from .compiler import DimensionError
from .embedding import LsqrNoConvergence

__all__ = ["LsqrNoConvergence", "NonsmoothWarning", "NonuniqueWarning",
           "ResidualPoint", "dphi", "dphi_adjoint", "linearize"]


class NonsmoothWarning(UserWarning):
    """The projection is not differentiable here; results are heuristic."""


class NonuniqueWarning(UserWarning):
    """The solution is not unique in an original variable; derivatives
    follow one solution of many."""


class ResidualPoint:
    """Differentiation state at one solved cone program.

    Reuses the solve's embedding (ConeSolution.embedding) and caches
    u = (x, y, 1), z = (x, y - s, 1) and jacobian, the ReducedJacobian at
    z, whose factor the first solve that needs it makes.  The pair (z,
    jacobian) may be passed in as linearized, as Problem passes
    linearize's for the points of one solve; without it the point makes
    its own (linearize of the point alone).  unique is False
    when the reduction leaves free one of the first n_x unknowns, the
    original variables' logarithms.  Instances are safe to share across
    threads: two threads that both make the factor make the same one.

    A warm start (x, y, s, scale, point) hands the point to the next
    solve, which steps from z with its factor while A is unchanged
    (solver.solve); Problem does so after solve(derivatives=True).
    """

    def __init__(self, embedding, x, y, s, n_x, linearized=None):
        self.embedding = embedding
        self.n, self.m = embedding.n, embedding.m
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.s = np.asarray(s, dtype=float)
        self.u = np.concatenate([self.x, self.y, [1.0]])
        self.z, self.jacobian = linearized or next(linearize([self]))
        self.nonsmooth = self.jacobian.nonsmooth
        self.unique = not np.any(self.jacobian.free < n_x)
        # both reported at the caller of Problem.solve or solve_batch
        if self.nonsmooth:
            warnings.warn("projection not differentiable at the solution; "
                          "sensitivities are a least-squares heuristic",
                          NonsmoothWarning, stacklevel=5)
        if not self.unique:
            warnings.warn("the solution is not unique in a variable; "
                          "sensitivities follow one of the solutions",
                          NonuniqueWarning, stacklevel=5)


def linearize(solutions):
    """The pairs (z, jacobian) at the points z = (x, y - s, 1) of
    solutions, ConeSolutions (or ResidualPoints) of programs with one A
    pattern and dims, in order: z is a row of one (k, N) stack, and the
    ReducedJacobians come from one dproject_cone of it
    (Embedding.jacobians), each the one of the point alone, to the bit.
    A ResidualPoint takes its pair as linearized.  The jacobians are made
    one at a time, as the returned iterator is read."""
    Z = np.array([np.concatenate([sol.x, sol.y - sol.s, [1.0]])
                  for sol in solutions])
    return zip(Z, solutions[0].embedding.jacobians(
        Z.T, [sol.embedding for sol in solutions])) if solutions else iter(())


def dphi(point, dtheta):
    """Directional derivative of the primal solution x in a data direction.

    dtheta perturbs theta = (A.data, b, c), A's entries on its CSC
    pattern.  Linear in dtheta.
    """
    dtheta = np.asarray(dtheta, dtype=float).ravel()
    if dtheta.size != point.embedding.theta_size:
        raise DimensionError(f"data direction has size {dtheta.size}, "
                             f"expected {point.embedding.theta_size}")
    dz = point.jacobian.lstsq(-(point.embedding.Q_of(dtheta) @ point.u))
    return dz[:point.n] - point.x * dz[-1]


def dphi_adjoint(point, dx):
    """Adjoint of dphi: map dx to the gradient over theta = (A.data, b, c)."""
    dx = np.asarray(dx, dtype=float).ravel()
    if dx.size != point.n:
        raise DimensionError(
            f"solution direction has size {dx.size}, expected {point.n}")
    rhs = np.concatenate([dx, np.zeros(point.m), [-float(point.x @ dx)]])
    r = point.jacobian.lstsq(rhs, transpose=True)
    return -point.embedding.Q_of_adjoint(r, point.u)
