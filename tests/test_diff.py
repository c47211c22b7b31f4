"""Solution-map derivatives: finite-difference and adjoint consistency."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import llcp
from llcp import examples, solver
from llcp.compiler import DimensionError, compile_problem
from llcp.diff import (NonsmoothWarning, NonuniqueWarning, ResidualPoint,
                       dphi, dphi_adjoint)
from llcp.embedding import Embedding, ReducedJacobian
from llcp.solver import solve

from oracles import planted_regular_program
from test_canon import _random_program, canon_hello


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
    # every unknown of a bare cone program is an original variable
    return ResidualPoint(sol.embedding, sol.x, sol.y, sol.s,
                         n_x=sol.embedding.n)


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
    lstsq = ReducedJacobian.lstsq
    monkeypatch.setattr(ReducedJacobian, "lstsq",
                        lambda *a, **k: solves.append(lstsq(*a, **k))
                        or solves[-1])
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
    # x >= 0 with zero objective: y* = s* = 0, so the projection kinks;
    # and x is free, as any x >= 0 is optimal
    A = sp.csc_matrix([[-1.0]])
    emb = Embedding(A, np.zeros(1), np.zeros(1),
                    {"zero": 0, "nonneg": 1, "exp": 0})
    with pytest.warns(NonsmoothWarning), pytest.warns(NonuniqueWarning):
        pt = ResidualPoint(emb, np.zeros(1), np.zeros(1), np.zeros(1),
                           n_x=1)
    assert pt.nonsmooth
    assert not pt.unique


# -- the reduced factor on the bundled programs -------------------------------

PROGRAMS = {
    "hello": examples.hello_world,
    "queuing": examples.queuing,
    "benchmark250": lambda: examples.benchmark(n=250),
    "benchmark500": lambda: examples.benchmark(n=500),
}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def solved(request):
    p = PROGRAMS[request.param]()
    p.solve(derivatives=True)
    # queuing's and n=500's free directions are auxiliary variables
    assert p.status == "optimal" and p.unique and not p.nonsmooth
    return request.param, p


def random_sensitivities(p, rng):
    """Random parameter deltas and variable gradients set on p; returns
    (deltas, derivative(), gradients, backward()) flattened."""
    for q in p.parameters:
        q.delta = rng.normal(size=q.size) * np.abs(q.value)
    for v in p.variables:
        v.gradient = rng.normal(size=v.size)
    fwd = np.concatenate(list(p.derivative().values()))
    back = np.concatenate(list(p.backward().values()))
    return (np.concatenate([q.delta for q in p.parameters]), fwd,
            np.concatenate([v.gradient for v in p.variables]), back)


def test_reduced_inverse_solves_on_the_range(solved):
    pt = solved[1]._point
    red = pt.jacobian
    M = red.M
    assert red.lu is not None
    rng = np.random.default_rng(12)
    for _ in range(3):
        r = M @ rng.normal(size=M.shape[0])
        assert (np.linalg.norm(M @ red.solve(r) - r)
                <= 1e-12 * np.linalg.norm(r))
        s = M.T @ rng.normal(size=M.shape[0])
        assert (np.linalg.norm(M.T @ red.solve_T(s) - s)
                <= 1e-12 * np.linalg.norm(s))


def test_adjoint_identity_to_roundoff(solved, monkeypatch):
    p = solved[1]
    # every solve takes G or G', none falls back to LSQR
    monkeypatch.setattr(spla, "lsqr", None)
    rng = np.random.default_rng(13)
    for _ in range(3):
        dalpha, fwd, g, back = random_sensitivities(p, rng)
        scale = max(np.linalg.norm(fwd) * np.linalg.norm(g),
                    np.linalg.norm(back) * np.linalg.norm(dalpha))
        assert abs(fwd @ g - back @ dalpha) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["hello", "queuing", "benchmark250"])
def test_plain_lsqr_fallback_matches_the_factor(name, monkeypatch):
    # not n=500: there plain LSQR's own backward() error is 4e-9 relative
    # (its 1e-12 stop on an M with singular values below 1e-15)
    p, twin = PROGRAMS[name](), PROGRAMS[name]()
    p.solve(derivatives=True)
    twin.solve(derivatives=True)
    want = random_sensitivities(p, np.random.default_rng(14))
    assert p._point.jacobian.lu is not None

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    # after the solves, whose factors of K the patch would break
    monkeypatch.setattr(spla, "splu", singular)
    got = random_sensitivities(twin, np.random.default_rng(14))
    assert twin._point.jacobian.lu is None
    for a, b in zip(got, want):
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


def test_direction_outside_the_range_takes_preconditioned_lsqr(monkeypatch):
    # queuing's 20 free auxiliary variables put a random data direction
    # outside M's range, where G's residual fails LSQR's stopping test
    p = examples.queuing()
    p.solve(derivatives=True)
    sol, n_x = p.solution, p._compiled[2].n_x
    dtheta = np.random.default_rng(15).normal(size=sol.embedding.theta_size)
    ops = []
    lsqr = spla.lsqr
    monkeypatch.setattr(spla, "lsqr",
                        lambda op, *a, **k: ops.append(op) or lsqr(op, *a, **k))
    got = dphi(p._point, dtheta)
    assert len(ops) == 1 and not sp.issparse(ops[0])

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    want = dphi(ResidualPoint(sol.embedding, sol.x, sol.y, sol.s, n_x=n_x),
                dtheta)
    assert len(ops) == 2 and sp.issparse(ops[1])
    # least-squares solutions differ along the free directions only
    assert (np.linalg.norm(got[:n_x] - want[:n_x])
            <= 1e-9 * np.linalg.norm(want[:n_x]))


def test_near_singular_remainder_has_no_factor():
    # tau's row and column drop out; the remainder [[1, 1], [1, 1 + d]]
    # has pivots 1 and d
    def reduced(d):
        M = sp.csc_matrix([[1.0, 1.0, 0.0], [1.0, 1.0 + d, 0.0],
                           [0.0, 0.0, 1.0]])
        return ReducedJacobian(M, np.ones(3, dtype=bool), False)

    assert reduced(1e-4).lu is not None
    assert reduced(1e-12).lu is None
    # plain LSQR then gives the least-squares solution
    red = reduced(1e-12)
    dz = red.lstsq(np.array([1.0, 1.0, 2.0]))
    assert np.allclose(red.M @ dz, [1.0, 1.0, 2.0])


def _random_problem(seed):
    objective, constraints, _ = _random_program(np.random.default_rng(seed))
    return llcp.Problem(llcp.Minimize(objective), constraints)


def test_non_unique_point_without_free_column_takes_plain_lsqr(monkeypatch):
    # the optimum of this program is not unique, but no empty column shows
    # it: the reduced remainder is singular at the solution and its pivots
    # span 1e16 at the polish's first point, so both take plain LSQR.
    # The polish then ends at the first check within its tolerance.
    p, twin = _random_problem(124), _random_problem(124)
    p.solve(eps=1e-10, derivatives=True)
    assert p.status == "optimal" and p.solution.iterations <= 75
    assert p._point.jacobian.lu is None
    want = random_sensitivities(p, np.random.default_rng(16))
    assert all(np.all(np.isfinite(w)) for w in want)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    twin.solve(eps=1e-10, derivatives=True)
    monkeypatch.setattr(spla, "splu", singular)
    got = random_sensitivities(twin, np.random.default_rng(16))
    for a, b in zip(got, want):
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


def test_derivatives_across_the_random_grammar():
    # the random programs of test_canon reach max, diff_pos, exp, log and
    # exponent parameters; seeds 110, 120 and 133 have a free variable,
    # and seed 124's optimum is not unique either, unflagged: a warm
    # re-solve there at parameters moved by -1e-6 delta ends max_iters
    iterations = checked = 0
    for seed in range(100, 140):
        p = _random_problem(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonuniqueWarning)
            p.solve(derivatives=True, eps=1e-10)
        assert p.status == "optimal"
        iterations += p.solution.iterations
        assert p.unique == (seed not in (110, 120, 133))
        if not p.unique or seed == 124:
            continue
        rng = np.random.default_rng(seed)
        for q in p.parameters:
            q.delta = rng.normal(size=q.size) * (
                q.value if q.positive else 1.0)
        for v in p.variables:
            v.gradient = rng.normal(size=v.size)
        x = np.concatenate([v.value for v in p.variables])
        fwd = np.concatenate(list(p.derivative().values()))
        back = np.concatenate(list(p.backward().values()) or [np.zeros(0)])
        delta = np.concatenate([q.delta for q in p.parameters] or
                               [np.zeros(0)])
        g = np.concatenate([v.gradient for v in p.variables])
        scale = max(np.linalg.norm(g) * np.linalg.norm(fwd),
                    np.linalg.norm(back) * np.linalg.norm(delta),
                    np.linalg.norm(g) * np.linalg.norm(delta))
        assert abs(g @ fwd - back @ delta) <= 1e-12 * scale
        # central differences; several optima sit on constant bounds,
        # where the derivative is exactly 0 and the difference ~1e-10
        h, values, ends = 1e-6, [q.value for q in p.parameters], []
        for sign in (1.0, -1.0):
            for q, value in zip(p.parameters, values):
                q.set_value(value + sign * h * q.delta)
            p.solve(eps=1e-10)
            assert p.status == "optimal"
            ends.append(np.concatenate([v.value for v in p.variables]))
        fd = (ends[0] - ends[1]) / (2.0 * h)
        assert (np.linalg.norm(fwd - fd)
                <= 1e-5 * (np.linalg.norm(fd) + 1e-4 * np.linalg.norm(x)))
        checked += 1
    assert iterations == 2175 and checked == 36


@pytest.mark.parametrize("name", ["hello", "queuing"])
def test_derivatives_share_the_solve_point(name, monkeypatch):
    # derivative() and backward() reuse the point that solve() linearized
    # at, and the first of them factors its reduction once for all three
    p = PROGRAMS[name]()
    p.solve(derivatives=True)
    factors, points = [], []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: factors.append(1) or splu(*a, **k))
    jacobian = Embedding.jacobian
    monkeypatch.setattr(Embedding, "jacobian",
                        lambda *a: points.append(1) or jacobian(*a))
    p.derivative()
    p.backward()
    p.derivative()
    assert len(factors) == 1 and not points


def test_capped_lsqr_raises(monkeypatch):
    # the remainder of test_near_singular_remainder_has_no_factor, with no
    # factor, so lstsq runs plain LSQR; here LSQR reports its cap
    M = sp.csc_matrix([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-12, 0.0],
                       [0.0, 0.0, 1.0]])
    red = ReducedJacobian(M, np.ones(3, dtype=bool), False)
    assert red.lu is None
    lsqr = spla.lsqr
    monkeypatch.setattr(spla, "lsqr",
                        lambda *a, **k: (lsqr(*a, **k)[0], 7) + (0,) * 8)
    with pytest.raises(llcp.LsqrNoConvergence, match="30-iteration cap"):
        red.lstsq(np.array([1.0, 1.0, 2.0]))
    assert llcp.LsqrNoConvergence is llcp.diff.LsqrNoConvergence


# -- the held point seeds the next warm solve ---------------------------------


def _moved(p, size, rng):
    """Move p's positive parameters, which enter b and c alone, by
    exp(size N(0, 1)) each."""
    for q in p.parameters:
        if q.positive:
            q.set_value(q.value * np.exp(size * rng.standard_normal(q.size)))


def test_moved_b_and_c_keep_the_point_reduction(solved):
    # at z, the reduced remainder involves A and DPi(z) alone; b and c
    # enter M only in tau's row and column
    pt = solved[1]._point
    held, emb = pt.jacobian, pt.embedding
    assert held.lu is not None
    rng = np.random.default_rng(17)
    _, cmap, pmap = solved[1]._compiled
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    b = b * (1.0 + 0.01 * rng.standard_normal(b.size))
    c = c * (1.0 + 0.01 * rng.standard_normal(c.size))
    moved = emb.at(np.concatenate([A.data, b, c]))
    assert emb.shares_A(moved)
    red = moved.jacobian(pt.z)
    for part in ("_rows", "_cols", "_elim", "free"):
        assert np.array_equal(getattr(red, part), getattr(held, part)), part
    # splu sorted the held remainder's indices in place: compare matrices
    assert red._B.shape == held._B.shape and (red._B != held._B).nnz == 0
    diff = (red.M - held.M).tocoo()
    tau = red.M.shape[0] - 1
    off = (diff.row != tau) & (diff.col != tau) & (diff.data != 0.0)
    assert not off.any() and np.any(diff.data != 0.0)
    # the tau row the held steps use is the relinearized one
    row = red.M.tocsr()[tau].toarray().ravel()
    assert (np.abs(moved.tau_row(held, b, c) - row).max()
            <= 1e-15 * np.abs(row).max())
    # and the bordered step is LSQR's on the relinearized M
    rhs = -moved.residual(pt.z)
    want = red.lsqr(rhs)[0]
    got = held.bordered(moved.tau_row(held, b, c))(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_moved_A_takes_no_held_steps(monkeypatch):
    # the exponents A enter the cone matrix: a held point made on the old
    # A does not count, and the solve factors K and runs ADMM
    p = examples.benchmark(n=60)
    p.solve(derivatives=True)
    pt = p._point
    a = {q.name: q for q in p.parameters}["A"]
    a.set_value(1.05 * a.value)
    calls = []
    held_steps = solver._held_steps
    monkeypatch.setattr(solver, "_held_steps",
                        lambda *args: calls.append(1) or held_steps(*args))
    p.solve(derivatives=True)
    assert p.status == "optimal" and not calls
    assert p.stats["iterations"] > 0 and p.stats["factorizations"] >= 1
    assert not pt.embedding.shares_A(p.solution.embedding)
    # M moved outside tau's row and column, so the point's factor is no
    # longer the one of its z on the new data
    diff = (p.solution.embedding.jacobian(pt.z).M - pt.jacobian.M).tocoo()
    tau = diff.shape[0] - 1
    assert np.any((diff.row != tau) & (diff.col != tau) & (diff.data != 0.0))


@pytest.mark.parametrize("name, size", [
    ("hello", 0.01), ("queuing", 3e-4), ("benchmark250", 1e-3),
    ("benchmark500", 0.01)])
def test_warm_solves_step_from_the_held_point(name, size, monkeypatch):
    # ten moves of the parameters in b and c: each re-solve ends at
    # iteration 0 on the previous point's factor, so the step's one
    # sparse LU is the new point's, made by derivative().  Larger moves
    # leave the steps' reach on queuing (1e-3 from the 8th move on, where
    # a piece of the projection changes) and n=250 (3e-3 at the 10th)
    p = PROGRAMS[name]()
    p.solve(derivatives=True)
    rng = np.random.default_rng(18)
    random_sensitivities(p, rng)
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: factors.append(1) or splu(*a, **k))
    for _ in range(10):
        _moved(p, size, rng)
        factors.clear()
        p.solve(derivatives=True)
        assert p.status == "optimal"
        assert (p.stats["iterations"], p.stats["factorizations"]) == (0, 0)
        dalpha, fwd, g, back = random_sensitivities(p, rng)
        assert len(factors) == 1
        scale = max(np.linalg.norm(fwd) * np.linalg.norm(g),
                    np.linalg.norm(back) * np.linalg.norm(dalpha))
        assert abs(fwd @ g - back @ dalpha) <= 1e-12 * scale


def test_missed_held_steps_leave_the_solve_as_without_the_point():
    # a 0.5 log-scale move is too far for the held steps on queuing: the
    # solve then runs ADMM from the warm start, bit for bit as without
    # the point
    p = examples.queuing()
    p.solve(derivatives=True)
    prev, pt = p.solution, p._point
    _moved(p, 0.5, np.random.default_rng(19))
    _, cmap, pmap = p._compiled
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    warm = (prev.x, prev.y, prev.s, prev.scale)
    got = solver.solve(A, b, c, pmap.dims, warm_start=warm + (pt,))
    want = solver.solve(A, b, c, pmap.dims, warm_start=warm)
    assert got.status == "optimal" and got.iterations > 0
    assert (got.iterations, got.factorizations) == (want.iterations,
                                                   want.factorizations)
    for f in ("x", "y", "s", "pres", "dres", "gap", "scale"):
        assert (np.asarray(getattr(got, f)).tobytes()
                == np.asarray(getattr(want, f)).tobytes()), f


def test_held_steps_across_the_random_grammar():
    # chains of moves of the positive parameters, each re-solve stepping
    # from the last solve's point: every one optimal, no RuntimeWarning
    held = solves = 0
    for seed in range(100, 140):
        if seed == 124:  # no factor at its point, so no held steps
            continue
        p = _random_problem(seed)
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonuniqueWarning)
            warnings.simplefilter("error", RuntimeWarning)
            p.solve(derivatives=True, eps=1e-10)
            for size in (1e-6, 1e-3, 0.1, 0.5):
                _moved(p, size, rng)
                p.solve(derivatives=True, eps=1e-10)
                assert p.status == "optimal", (seed, size)
                solves += 1
                held += p.stats["iterations"] == 0
    assert solves == 156 and held == 141
