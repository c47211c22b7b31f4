"""Operator-splitting solver: exactness, certificates, and edge shapes."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import cones, examples, solver
from llcp.canon import canonicalize
from llcp.cones import in_dual_expcone, in_expcone
from llcp.compiler import compile_problem
from llcp.embedding import Embedding
from llcp.solver import (ConeSolution, DataError, _equilibrate, _factor_kkt,
                         _HsdStep, solve)

from oracles import planted_cone_program
from test_canon import canon_hello

NONNEG1 = {"zero": 0, "nonneg": 1, "exp": 0}


def lp_geq_one():
    # min x s.t. x >= 1, written as -x + s = -1 with s >= 0
    return sp.csc_matrix([[-1.0]]), np.array([-1.0]), np.array([1.0]), NONNEG1


def test_scalar_lp():
    sol = solve(*lp_geq_one())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.s[0] == pytest.approx(0.0, abs=1e-9)


def test_exp_epigraph():
    # min z s.t. (1, 1, z) in Kexp, so z* = e
    A = sp.csc_matrix(np.array([[0.0], [0.0], [-1.0]]))
    b = np.array([1.0, 1.0, 0.0])
    sol = solve(A, b, np.array([1.0]), {"zero": 0, "nonneg": 0, "exp": 1})
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(np.e, rel=1e-8)


def test_optimal_meets_tolerances():
    sol = solve(*lp_geq_one())
    assert max(sol.pres, sol.dres, sol.gap) <= 1e-8
    sol = solve(*lp_geq_one()[:3], NONNEG1, eps=1e-4)
    assert sol.status == "optimal"
    assert max(sol.pres, sol.dres, sol.gap) <= 1e-4


def test_infeasible_certificate():
    # x >= 1 together with -x >= 1
    A = sp.csc_matrix(np.array([[-1.0], [1.0]]))
    b = np.array([-1.0, -1.0])
    sol = solve(A, b, np.array([0.0]), {"zero": 0, "nonneg": 2, "exp": 0})
    assert sol.status == "infeasible"
    assert b @ sol.y == pytest.approx(-1.0, rel=1e-9)
    assert np.linalg.norm(A.T @ sol.y) <= 1e-6
    assert np.all(sol.y >= -1e-9)
    assert np.isnan(sol.pres)


def test_unbounded_certificate():
    # min -x s.t. x >= 0
    sol = solve(sp.csc_matrix([[-1.0]]), np.array([0.0]), np.array([-1.0]),
                NONNEG1)
    assert sol.status == "unbounded"
    assert float(np.array([-1.0]) @ sol.x) == pytest.approx(-1.0, rel=1e-9)


def test_empty_program():
    sol = solve(sp.csc_matrix((0, 0)), np.zeros(0), np.zeros(0),
                {"zero": 0, "nonneg": 0, "exp": 0})
    assert sol.status == "optimal"
    assert sol.x.shape == (0,)


def test_no_constraints_unbounded():
    sol = solve(sp.csc_matrix((0, 1)), np.zeros(0), np.array([2.0]),
                {"zero": 0, "nonneg": 0, "exp": 0})
    assert sol.status == "unbounded"
    # the ray is scaled like every unbounded certificate
    assert 2.0 * sol.x[0] == pytest.approx(-1.0, rel=1e-9)


def test_no_variables():
    dims = {"zero": 0, "nonneg": 2, "exp": 0}
    sol = solve(sp.csc_matrix((2, 0)), np.array([1.0, 2.0]), np.zeros(0), dims)
    assert sol.status == "optimal"
    sol = solve(sp.csc_matrix((2, 0)), np.array([-1.0, 2.0]), np.zeros(0), dims)
    assert sol.status == "infeasible"
    assert np.array([-1.0, 2.0]) @ sol.y == pytest.approx(-1.0, rel=1e-9)


@pytest.mark.parametrize("shape, b, c, dims, status", [
    ((0, 0), [], [], {}, "optimal"),
    ((0, 1), [], [2.0], {}, "unbounded"),
    ((0, 2), [], [0.0, 0.0], {}, "optimal"),
    ((0, 2), [], [1.0, -3.0], {}, "unbounded"),
    ((2, 0), [1.0, 2.0], [], {"nonneg": 2}, "optimal"),
    ((2, 0), [-1.0, 2.0], [], {"nonneg": 2}, "infeasible"),
    ((3, 0), [1.0, 1.0, 3.0], [], {"exp": 1}, "optimal"),
    ((3, 0), [1.0, 1.0, 2.0], [], {"exp": 1}, "infeasible"),
    ((1, 0), [0.0], [], {"zero": 1}, "optimal"),
    ((1, 0), [1.0], [], {"zero": 1}, "infeasible"),
], ids=["0x0", "0x1", "0x2-zero-c", "0x2", "2x0-nonneg", "2x0-nonneg-infeas",
        "3x0-exp", "3x0-exp-infeas", "1x0-zero", "1x0-zero-infeas"])
def test_empty_shapes(shape, b, c, dims, status):
    # no variables or no constraints: the main loop, not a special case
    b, c = np.array(b), np.array(c)
    dims = {"zero": 0, "nonneg": 0, "exp": 0, **dims}
    sol = solve(sp.csc_matrix(shape), b, c, dims)
    assert sol.status == status
    assert (sol.x.shape, sol.y.shape, sol.s.shape) == (
        (shape[1],), (shape[0],), (shape[0],))
    if status == "optimal":
        assert max(sol.pres, sol.dres, sol.gap) <= 1e-8
        assert np.allclose(sol.s, b, atol=1e-8)
    elif status == "unbounded":
        assert c @ sol.x == pytest.approx(-1.0, rel=1e-9)
    else:
        assert b @ sol.y == pytest.approx(-1.0, rel=1e-9)
        y_dual = cones.project_cone(sol.y, dims, dual=True)
        assert np.linalg.norm(y_dual - sol.y) <= 1e-9 * np.linalg.norm(sol.y)


def test_nonfinite_data_raises():
    A, b, c, dims = lp_geq_one()
    with pytest.raises(DataError):
        solve(A, np.array([np.nan]), c, dims)
    with pytest.raises(DataError):
        solve(A, b, np.array([np.inf]), dims)
    bad = sp.csc_matrix([[np.inf]])
    with pytest.raises(DataError):
        solve(bad, b, c, dims)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_invalid_eps_raises(eps):
    with pytest.raises(ValueError, match="eps"):
        solve(*lp_geq_one(), eps=eps)


def test_dims_mismatch_raises():
    A, b, c, _ = lp_geq_one()
    with pytest.raises(ValueError):
        solve(A, b, c, {"zero": 0, "nonneg": 2, "exp": 0})


def test_planted_battery():
    # random feasible programs with a planted KKT point: the recovered
    # objective must match the planted optimum to 1e-6 relative
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        nz = int(rng.integers(0, 3))
        nl = int(rng.integers(1, 6))
        ne = int(rng.integers(0, 4))
        A, b, c, dims, xs, _, _ = planted_cone_program(rng, n, nz, nl, ne)
        sol = solve(A, b, c, dims)
        assert sol.status == "optimal"
        opt = float(c @ xs)
        assert abs(float(c @ sol.x) - opt) <= 1e-6 * (1.0 + abs(opt))
        # a loose eps ends on the iterate that meets it; no polish starts
        # from that far off, so LSQR does not overflow
        loose = solve(A, b, c, dims, eps=1e-4)
        assert loose.status == "optimal"
        assert max(loose.pres, loose.dres, loose.gap) <= 1e-4


def test_solution_lies_in_cones():
    rng = np.random.default_rng(21)
    A, b, c, dims, *_ = planted_cone_program(rng, 6, 1, 3, 2)
    sol = solve(A, b, c, dims)
    assert sol.status == "optimal"
    nz, nl = dims["zero"], dims["nonneg"]
    assert np.allclose(sol.s[:nz], 0.0, atol=1e-7)
    assert np.all(sol.s[nz:nz + nl] >= -1e-7)
    assert np.all(sol.y[nz:nz + nl] >= -1e-7)
    for k in range(dims["exp"]):
        j = nz + nl + 3 * k
        assert in_expcone(tuple(sol.s[j:j + 3]), tol=1e-7)
        assert in_dual_expcone(tuple(sol.y[j:j + 3]), tol=1e-7)
    assert abs(sol.s @ sol.y) <= 1e-7 * (1.0 + abs(c @ sol.x))


def test_warm_start_reconverges_fast():
    rng = np.random.default_rng(3)
    A, b, c, dims, *_ = planted_cone_program(rng, 8, 1, 4, 2)
    cold = solve(A, b, c, dims)
    again = solve(A, b, c, dims, warm_start=(cold.x, cold.y, cold.s))
    assert again.status == "optimal"
    # an exact fixed point: done by the first residual check
    assert again.iterations <= 25
    b2 = b + 1e-3 * rng.normal(size=b.size)
    warm = solve(A, b2, c, dims, warm_start=(cold.x, cold.y, cold.s))
    cold2 = solve(A, b2, c, dims)
    assert warm.status == cold2.status == "optimal"
    assert warm.iterations <= cold2.iterations


def test_warm_start_shape_mismatch_ignored():
    A, b, c, dims = lp_geq_one()
    sol = solve(A, b, c, dims, warm_start=(np.zeros(5), np.zeros(2), np.zeros(2)))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)


def test_max_iters_reported():
    rng = np.random.default_rng(5)
    A, b, c, dims, *_ = planted_cone_program(rng, 10, 2, 5, 2)
    # the cap falls far from convergence: no polish, so nothing overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(A, b, c, dims, max_iters=10)
    assert sol.status == "max_iters"
    assert sol.iterations == 10


def test_max_iters_zero_returns_the_start():
    A, b, c, dims = lp_geq_one()
    sol = solve(A, b, c, dims, max_iters=0)
    # the cold start (x, y, s) = 0 is the capped answer
    assert sol.status == "max_iters"
    assert sol.iterations == 0
    assert np.array_equal(sol.x, [0.0]) and np.array_equal(sol.s, [0.0])


def hello_cone_program():
    prob, cmap = canon_hello()
    pmap = compile_problem(prob)
    return (*pmap.instantiate(cmap.eval_C(cmap.pack_alpha())), pmap.dims)


def test_polish_that_falls_short_tightens_the_splitting(monkeypatch):
    A, b, c, dims = hello_cone_program()
    polished = solve(A, b, c, dims)
    # a polish that never moves: the first check within the polish
    # tolerance falls short of eps, so the tolerance tightens and the
    # splitting alone must reach eps
    monkeypatch.setattr(solver, "_refine", lambda emb, z, eps: z)
    sol = solve(A, b, c, dims)
    assert sol.status == "optimal"
    assert max(sol.pres, sol.dres, sol.gap) <= 1e-8
    assert sol.iterations > polished.iterations


def test_polish_retries_are_bounded(monkeypatch):
    # eps out of reach: every polish falls short and tightens the polish
    # tolerance 100-fold, so only a few checks polish before the cap
    # (without the retry, 78 would)
    calls = []
    refine = solver._refine
    monkeypatch.setattr(solver, "_refine",
                        lambda *args: calls.append(1) or refine(*args))
    sol = solve(*hello_cone_program(), eps=1e-16, max_iters=2000)
    assert sol.status == "max_iters"
    assert 1 <= len(calls) <= 6


def test_polish_stops_at_the_first_step_that_does_not_help(monkeypatch):
    A, b, c, dims = hello_cone_program()
    far = solve(A, b, c, dims, max_iters=25)
    z = np.concatenate([far.x, far.y - far.s, [1.0]])
    evals = []
    residual = Embedding.residual
    monkeypatch.setattr(Embedding, "residual",
                        lambda self, zz: evals.append(1) or residual(self, zz))
    lsqr = solver.spla.lsqr

    def uphill(*args, **kwargs):
        out = lsqr(*args, **kwargs)
        return (-out[0],) + tuple(out[1:])

    # the reversed Gauss-Newton direction raises ||F||: the polish gives
    # back its input after one trial step, with no halving of the step
    monkeypatch.setattr(solver.spla, "lsqr", uphill)
    assert np.array_equal(solver._refine(far.embedding, z, 1e-8), z)
    assert len(evals) == 2


def test_hello_world_through_solver():
    sol = solve(*hello_cone_program())
    assert sol.status == "optimal"
    got = np.exp(sol.x[:3])
    want = np.array([0.5612147, 0.3149620, 0.3689206])
    assert np.max(np.abs(got - want)) <= 2e-6


def test_solution_is_frozen():
    sol = solve(*lp_geq_one())
    assert isinstance(sol, ConeSolution)
    with pytest.raises(AttributeError):
        sol.status = "other"


def test_equilibrate_matches_grouped_loop():
    # reference: one max per row group, each exp triple one group
    rng = np.random.default_rng(11)
    A, b, c, dims, *_ = planted_cone_program(rng, 9, 2, 4, 3)
    A = sp.csc_matrix(A * rng.lognormal(0.0, 3.0, size=A.shape))
    A[5, :] = 0.0
    base = dims["zero"] + dims["nonneg"]
    groups = [[i] for i in range(base)] + [
        [base + 3 * k, base + 3 * k + 1, base + 3 * k + 2]
        for k in range(dims["exp"])]
    m, n = A.shape
    d, e = np.ones(m), np.ones(n)
    As = A.tocsr()
    for _ in range(10):
        absA = abs(As)
        rmax = np.asarray(absA.max(axis=1).todense()).ravel()
        cmax = np.asarray(absA.max(axis=0).todense()).ravel()
        dr = np.ones(m)
        for g in groups:
            peak = max(rmax[i] for i in g)
            if peak > 0.0:
                dr[g] = 1.0 / np.sqrt(peak)
        dc = np.where(cmax > 0.0, 1.0 / np.sqrt(np.maximum(cmax, 1e-300)), 1.0)
        As = sp.diags(dr) @ As @ sp.diags(dc)
        d *= dr
        e *= dc
    As = As.tocsc()
    As_got, _, _, d_got, e_got = _equilibrate(A, b, c, dims)
    assert np.array_equal(d_got, d)
    assert np.array_equal(e_got, e)
    assert np.array_equal(As_got.indptr, As.indptr)
    assert np.array_equal(As_got.indices, As.indices)
    assert np.array_equal(As_got.data.view(np.uint64), As.data.view(np.uint64))


@pytest.mark.parametrize("seed", range(4))
def test_hsd_step_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    A, b, c, dims, *_ = planted_cone_program(rng, 7, 2, 4, 3)
    As, bs, cs, _, _ = _equilibrate(sp.csc_matrix(A), b, c, dims)
    lu = _factor_kkt(As)
    m, n = As.shape
    # the factor depends on A alone: reuse it after b and c change
    for bb, cc in ((bs, cs), (rng.normal(size=m), 10.0 * rng.normal(size=n))):
        step = _HsdStep(lu, bb, cc)
        dense = np.eye(n + m + 1) + Embedding(As, bb, cc, dims).Q.toarray()
        for _ in range(3):
            w = rng.normal(size=n + m + 1)
            want = np.linalg.solve(dense, w)
            got = step.solve(w)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_kkt_factor_fill_is_linear():
    p = examples.benchmark(n=500)
    prob, cmap = canonicalize(p.objective.sense, p.objective.expr,
                              p.constraints, p.variables, p.parameters)
    pmap = compile_problem(prob)
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    As, *_ = _equilibrate(A, b, c, pmap.dims)
    m, n = As.shape
    lu = _factor_kkt(As)
    # K = [[I, A'], [A, -I]]; splu(I + Q) in the COLAMD order filled to
    # about 70 times this
    nnz_K = n + m + 2 * As.nnz
    assert lu.L.nnz + lu.U.nnz <= 2 * nnz_K


def test_projection_root_finds_are_warm_started(monkeypatch):
    p = examples.benchmark(n=250)
    prob, cmap = canonicalize(p.objective.sense, p.objective.expr,
                              p.constraints, p.variables, p.parameters)
    pmap = compile_problem(prob)
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    counts = {"root_fun": 0, "boundary": 0}
    root_fun, solve_boundary = cones._root_fun, cones._solve_boundary

    def counted_root_fun(*args):
        counts["root_fun"] += 1
        return root_fun(*args)

    def counted_solve_boundary(*args):
        counts["boundary"] += 1
        return solve_boundary(*args)

    monkeypatch.setattr(cones, "_root_fun", counted_root_fun)
    monkeypatch.setattr(cones, "_solve_boundary", counted_solve_boundary)
    solve(A, b, c, pmap.dims, max_iters=2000)
    assert counts["boundary"] > 1000
    # each ADMM iteration starts from the previous root: a few Newton
    # steps per triple, where a cold bracket scan takes about 27
    assert counts["root_fun"] <= 4 * counts["boundary"]
