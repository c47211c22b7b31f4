"""Solution-map derivatives: finite-difference and adjoint consistency."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import diff
from llcp.compiler import compile_problem
from llcp.diff import NonsmoothWarning, ResidualPoint, dphi, dphi_adjoint
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
    dA = A.copy()
    dA.data = rng.normal(size=A.nnz)
    return dA, rng.normal(size=A.shape[0]), rng.normal(size=A.shape[1])


def test_splitting_reconstructs_solution():
    rng = np.random.default_rng(1)
    A, b, c, dims, sol = solved_point(rng)
    pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
    u, v = pt.splitting()
    n, m = pt.n, pt.m
    assert np.allclose(u[:n], sol.x, atol=1e-9)
    assert np.allclose(u[n:n + m], sol.y, atol=1e-9)
    assert u[-1] == 1.0
    assert np.allclose(v[:n], 0.0, atol=1e-9)
    assert np.allclose(v[n:n + m], sol.s, atol=1e-9)


def test_zero_direction():
    rng = np.random.default_rng(2)
    A, b, c, dims, sol = solved_point(rng)
    pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
    zA = A.copy()
    zA.data = np.zeros_like(zA.data)
    dx = dphi(pt, zA, np.zeros(pt.m), np.zeros(pt.n))
    assert np.array_equal(dx, np.zeros(pt.n))


def test_zero_adjoint_direction():
    rng = np.random.default_rng(3)
    A, b, c, dims, sol = solved_point(rng)
    pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
    dA, db, dc = dphi_adjoint(pt, np.zeros(pt.n))
    assert dA.nnz == A.nnz and not np.any(dA.data)
    assert not np.any(db) and not np.any(dc)


def test_linearity():
    rng = np.random.default_rng(4)
    A, b, c, dims, sol = solved_point(rng)
    pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
    dA, db, dc = random_direction(rng, A)
    one = dphi(pt, dA, db, dc)
    two = dphi(pt, 2 * dA, 2 * db, 2 * dc)
    assert np.allclose(two, 2 * one, atol=1e-9 * (1 + np.linalg.norm(one)))
    dA2, db2, dc2 = random_direction(rng, A)
    summed = dphi(pt, dA + dA2, db + db2, dc + dc2)
    parts = one + dphi(pt, dA2, db2, dc2)
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
        pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
        dA, db, dc = random_direction(rng, A)
        dx = dphi(pt, dA, db, dc)
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
        pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
        dA, db, dc = random_direction(rng, A)
        g = rng.normal(size=pt.n)
        lhs = float(dphi(pt, dA, db, dc) @ g)
        dA2, db2, dc2 = dphi_adjoint(pt, g)
        rhs = float(dA.data @ dA2.data) + float(db @ db2) + float(dc @ dc2)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_adjoint_keeps_sparsity_pattern(monkeypatch):
    rng = np.random.default_rng(7)
    A, b, c, dims, *_ = planted_regular_program(rng, 6, ne=1, density=0.6)
    A = sp.csc_matrix(A)
    assert A.nnz < A.shape[0] * A.shape[1]
    sol = solve(A, b, c, dims, eps=1e-11)
    assert sol.status == "optimal"
    pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
    solves = []
    lsqr = diff._lsqr
    monkeypatch.setattr(diff, "_lsqr",
                        lambda op, rhs: solves.append(lsqr(op, rhs)) or solves[-1])
    dA, _, _ = dphi_adjoint(pt, rng.normal(size=pt.n))
    assert dA.nnz == A.nnz
    assert np.array_equal(dA.indices, A.indices)
    assert np.array_equal(dA.indptr, A.indptr)
    # reference: one entry of r_y x' - y r_x' per nonzero of A
    n, m = pt.n, pt.m
    rx, ry = solves[0][:n], solves[0][n:n + m]
    want = np.empty(A.nnz)
    for j in range(n):
        for k in range(A.indptr[j], A.indptr[j + 1]):
            i = A.indices[k]
            want[k] = ry[i] * pt.x[j] - pt.y[i] * rx[j]
    assert np.array_equal(dA.data, want)


def test_compiled_problem_layout_adjoint():
    # adjoint consistency on the cone layout coming out of the compiler
    prob, cmap = canon_hello()
    pmap = compile_problem(prob)
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    sol = solve(A, b, c, pmap.dims, eps=1e-10)
    assert sol.status == "optimal"
    pt = ResidualPoint(A, b, c, pmap.dims, sol.x, sol.y, sol.s)
    rng = np.random.default_rng(8)
    dA, db, dc = random_direction(rng, sp.csc_matrix(A))
    g = rng.normal(size=pt.n)
    lhs = float(dphi(pt, dA, db, dc) @ g)
    dA2, db2, dc2 = dphi_adjoint(pt, g)
    rhs = float(dA.data @ dA2.data) + float(db @ db2) + float(dc @ dc2)
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_smooth_points_do_not_warn():
    rng = np.random.default_rng(9)
    A, b, c, dims, sol = solved_point(rng, n=6, ne=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonsmoothWarning)
        pt = ResidualPoint(A, b, c, dims, sol.x, sol.y, sol.s)
        dphi(pt, *random_direction(rng, A))
    assert not pt.nonsmooth


def test_degenerate_point_warns():
    # x >= 0 with zero objective: y* = s* = 0, so the projection kinks
    A = sp.csc_matrix([[-1.0]])
    with pytest.warns(NonsmoothWarning):
        pt = ResidualPoint(A, np.zeros(1), np.zeros(1),
                           {"zero": 0, "nonneg": 1, "exp": 0},
                           np.zeros(1), np.zeros(1), np.zeros(1))
    assert pt.nonsmooth
