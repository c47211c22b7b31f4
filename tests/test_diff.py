"""Solution-map derivatives: finite-difference and adjoint consistency."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import diff
from llcp.compiler import DimensionError, compile_problem
from llcp.diff import NonsmoothWarning, ResidualPoint, dphi, dphi_adjoint
from llcp.embedding import Embedding
from llcp.solver import solve

from oracles import planted_regular_program
from test_canon import canon_hello


def solved_point(rng, n=5, ne=1):
    A, b, c, dims, *_ = planted_regular_program(rng, n, ne=ne)
    A = sp.csc_matrix(A)
    sol = solve(A, b, c, dims, eps=1e-11)
    assert sol.status == "optimal"
    return A, b, c, dims, sol


def random_direction(rng, A):
    """A random dtheta = (dA.data, db, dc), dA on the pattern of A."""
    m, n = A.shape
    return rng.normal(size=A.nnz + m + n)


def point(sol):
    return ResidualPoint(sol.embedding, sol.x, sol.y, sol.s)


def test_splitting_reconstructs_solution():
    rng = np.random.default_rng(1)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    u = sol.embedding.project(pt.z)
    v = u - pt.z
    n, m = pt.n, pt.m
    assert np.allclose(u[:n], sol.x, atol=1e-9)
    assert np.allclose(u[n:n + m], sol.y, atol=1e-9)
    assert u[-1] == 1.0
    assert np.allclose(v[:n], 0.0, atol=1e-9)
    assert np.allclose(v[n:n + m], sol.s, atol=1e-9)


def test_zero_direction():
    rng = np.random.default_rng(2)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    dx = dphi(pt, np.zeros(A.nnz + pt.m + pt.n))
    assert np.array_equal(dx, np.zeros(pt.n))


def test_direction_size_is_checked():
    rng = np.random.default_rng(2)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    dtheta = random_direction(rng, A)
    for bad in (np.append(dtheta, 0.0), dtheta[:-1]):
        with pytest.raises(DimensionError):
            dphi(pt, bad)
    assert np.array_equal(dphi(pt, list(dtheta)), dphi(pt, dtheta))


def test_adjoint_direction_size_is_checked():
    rng = np.random.default_rng(2)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    dx = rng.normal(size=pt.n)
    for bad in (dx[:-1], np.append(dx, 0.0), np.stack([dx, dx], axis=1)):
        with pytest.raises(DimensionError):
            dphi_adjoint(pt, bad)
    assert np.array_equal(dphi_adjoint(pt, list(dx)), dphi_adjoint(pt, dx))


def test_zero_adjoint_direction():
    rng = np.random.default_rng(3)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    dtheta = dphi_adjoint(pt, np.zeros(pt.n))
    assert dtheta.shape == (A.nnz + pt.m + pt.n,) and not np.any(dtheta)


def test_linearity():
    rng = np.random.default_rng(4)
    A, b, c, dims, sol = solved_point(rng)
    pt = point(sol)
    d1 = random_direction(rng, A)
    one = dphi(pt, d1)
    two = dphi(pt, 2 * d1)
    assert np.allclose(two, 2 * one, atol=1e-9 * (1 + np.linalg.norm(one)))
    d2 = random_direction(rng, A)
    summed = dphi(pt, d1 + d2)
    parts = one + dphi(pt, d2)
    assert np.allclose(summed, parts, atol=1e-9 * (1 + np.linalg.norm(parts)))


def test_matches_finite_differences():
    # the solve() oracle: central differences with eps-tight re-solves
    rng = np.random.default_rng(5)
    h = 3e-5
    for _ in range(30):
        n = int(rng.integers(3, 8))
        ne = int(rng.integers(0, 3))
        A, b, c, dims, *_ = planted_regular_program(rng, n, ne=ne)
        A = sp.csc_matrix(A)
        sol = solve(A, b, c, dims, eps=1e-11)
        assert sol.status == "optimal"
        pt = point(sol)
        dtheta = random_direction(rng, A)
        dx = dphi(pt, dtheta)
        dA = A.copy()
        dA.data = dtheta[:A.nnz]
        db, dc = dtheta[A.nnz:A.nnz + pt.m], dtheta[A.nnz + pt.m:]
        ws = (sol.x, sol.y, sol.s)
        hi = solve(A + h * dA, b + h * db, c + h * dc, dims,
                   eps=1e-11, warm_start=ws)
        lo = solve(A - h * dA, b - h * db, c - h * dc, dims,
                   eps=1e-11, warm_start=ws)
        assert hi.status == lo.status == "optimal"
        fd = (hi.x - lo.x) / (2 * h)
        assert np.linalg.norm(dx - fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        ne = int(rng.integers(0, 3))
        A, b, c, dims, sol = solved_point(rng, n=n, ne=ne)
        pt = point(sol)
        dtheta = random_direction(rng, A)
        g = rng.normal(size=pt.n)
        lhs = float(dphi(pt, dtheta) @ g)
        rhs = float(dtheta @ dphi_adjoint(pt, g))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_adjoint_keeps_sparsity_pattern(monkeypatch):
    rng = np.random.default_rng(7)
    A, b, c, dims, *_ = planted_regular_program(rng, 6, ne=1, density=0.6)
    A = sp.csc_matrix(A)
    assert A.nnz < A.shape[0] * A.shape[1]
    sol = solve(A, b, c, dims, eps=1e-11)
    assert sol.status == "optimal"
    pt = point(sol)
    solves = []
    lsqr = diff._lsqr
    monkeypatch.setattr(diff, "_lsqr",
                        lambda op, rhs: solves.append(lsqr(op, rhs)) or solves[-1])
    dtheta = dphi_adjoint(pt, rng.normal(size=pt.n))
    assert dtheta.size == A.nnz + pt.m + pt.n
    # reference: one entry of r_y x' - y r_x' per nonzero of A
    n, m = pt.n, pt.m
    rx, ry = solves[0][:n], solves[0][n:n + m]
    want = np.empty(A.nnz)
    for j in range(n):
        for k in range(A.indptr[j], A.indptr[j + 1]):
            i = A.indices[k]
            want[k] = ry[i] * pt.x[j] - pt.y[i] * rx[j]
    assert np.array_equal(dtheta[:A.nnz], want)


def test_compiled_problem_layout_adjoint():
    # adjoint consistency on the cone layout coming out of the compiler
    prob, cmap = canon_hello()
    pmap = compile_problem(prob)
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    sol = solve(A, b, c, pmap.dims, eps=1e-10)
    assert sol.status == "optimal"
    pt = point(sol)
    rng = np.random.default_rng(8)
    dtheta = random_direction(rng, A)
    assert dtheta.size == pmap.data_size
    g = rng.normal(size=pt.n)
    lhs = float(dphi(pt, dtheta) @ g)
    rhs = float(dtheta @ dphi_adjoint(pt, g))
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_smooth_points_do_not_warn():
    rng = np.random.default_rng(9)
    A, b, c, dims, sol = solved_point(rng, n=6, ne=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonsmoothWarning)
        pt = point(sol)
        dphi(pt, random_direction(rng, A))
    assert not pt.nonsmooth


def test_degenerate_point_warns():
    # x >= 0 with zero objective: y* = s* = 0, so the projection kinks
    A = sp.csc_matrix([[-1.0]])
    emb = Embedding(A, np.zeros(1), np.zeros(1),
                    {"zero": 0, "nonneg": 1, "exp": 0})
    with pytest.warns(NonsmoothWarning):
        pt = ResidualPoint(emb, np.zeros(1), np.zeros(1), np.zeros(1))
    assert pt.nonsmooth
