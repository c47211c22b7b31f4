"""Operator-splitting solver: exactness, certificates, and edge shapes."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import cones, examples, solver
from llcp.canon import canonicalize
from llcp.cones import in_dual_expcone, in_expcone
from llcp.compiler import compile_problem
from llcp.embedding import Embedding
from llcp.expr import Parameter
from llcp.fitting import least_squares_monomials, model_problem, synthetic_data
from llcp.solver import (ConeSolution, DataError, _equilibrate, _factor_kkt,
                         _HsdStep, solve)

from oracles import loosened_program, planted_cone_program, separated_program
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


@pytest.mark.parametrize("scale, want", [
    (50.0, 50.0), (1e12, solver._SCALE_MAX), (np.nan, solver._SCALE_START),
    (-1.0, solver._SCALE_START)])
def test_warm_start_scale(scale, want):
    A, b, c, dims = lp_geq_one()
    cold = solve(A, b, c, dims)
    # the scale of a warm start is clamped, and ignored unless finite and
    # positive; at a fixed point the first check ends the solve
    sol = solve(A, b, c, dims, warm_start=(cold.x, cold.y, cold.s, scale))
    assert sol.status == "optimal" and sol.iterations == 25
    assert (sol.scale, sol.factorizations) == (want, 1)


def test_workspace_rejects_another_pattern():
    A, b, c, dims = lp_geq_one()
    ws = solver.Workspace(A, dims)
    assert solve(A, b, c, dims, workspace=ws).status == "optimal"
    with pytest.raises(ValueError):
        solve(sp.csc_matrix((1, 1)), b, c, dims, workspace=ws)
    with pytest.raises(ValueError):
        solve(A, b, c, {"zero": 1, "nonneg": 0, "exp": 0}, workspace=ws)


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


def cone_program(p):
    """(A, b, c, dims) of a Problem at its parameter values."""
    prob, cmap = canonicalize(p.objective.sense, p.objective.expr,
                              p.constraints, p.variables, p.parameters)
    pmap = compile_problem(prob)
    return (*pmap.instantiate(cmap.eval_C(cmap.pack_alpha())), pmap.dims)


def test_polish_that_falls_short_tightens_the_splitting(monkeypatch):
    # queuing, not hello: hello meets eps by the splitting alone at the
    # first check within the polish tolerance, so there the polish saves
    # no iterations
    A, b, c, dims = cone_program(examples.queuing())
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
    far = solve(A, b, c, dims, max_iters=10)
    z = np.concatenate([far.x, far.y - far.s, [1.0]])
    # the premise: z is far enough that the polish takes a step at all
    assert np.linalg.norm(far.embedding.residual(z)) > 1e-8 * 1e-3
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


def test_polish_takes_few_lsqr_iterations_per_step(monkeypatch):
    # LSQR on J G, G the reduced factor's generalized inverse, against
    # about 34 iterations per step of LSQR on J alone
    itns = []
    lsqr = solver.spla.lsqr

    def counted(*args, **kwargs):
        out = lsqr(*args, **kwargs)
        itns.append(out[2])
        return out

    monkeypatch.setattr(solver.spla, "lsqr", counted)
    sol = solve(*cone_program(examples.benchmark(n=250)))
    assert sol.status == "optimal"
    assert itns and max(itns) <= 5


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
    As_got, d_got, e_got = _equilibrate(A, dims)
    assert np.array_equal(d_got, d)
    assert np.array_equal(e_got, e)
    assert np.array_equal(As_got.indptr, As.indptr)
    assert np.array_equal(As_got.indices, As.indices)
    assert np.array_equal(As_got.data.view(np.uint64), As.data.view(np.uint64))


def metric(n, m, rho_x, rho_y):
    return np.concatenate([np.full(n, rho_x), np.full(m, rho_y), [1.0]])


@pytest.mark.parametrize("seed", range(4))
def test_hsd_step_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    A, b, c, dims, *_ = planted_cone_program(rng, 7, 2, 4, 3)
    As, d, e = _equilibrate(sp.csc_matrix(A), dims)
    bs, cs = b * d, c * e
    m, n = As.shape
    r = metric(n, m, 1.0, 1.0)
    lu = _factor_kkt(As, r)
    # the factor depends on A alone: reuse it after b and c change
    for bb, cc in ((bs, cs), (rng.normal(size=m), 10.0 * rng.normal(size=n))):
        step = _HsdStep(lu, bb, cc, r)
        dense = np.eye(n + m + 1) + Embedding(As, bb, cc, dims).Q.toarray()
        for _ in range(3):
            w = rng.normal(size=n + m + 1)
            want = np.linalg.solve(dense, w)
            got = step.solve(w)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("program", ["hello", "planted"])
@pytest.mark.parametrize("rho_x, rho_y", [(1e-6, 1.0), (1e-6, 100.0),
                                          (1e-3, 1e-3), (1.0, 30.0)])
def test_scaled_hsd_step_matches_dense_solve(program, rho_x, rho_y):
    rng = np.random.default_rng(17)
    if program == "hello":
        A, b, c, dims = hello_cone_program()
    else:
        A, b, c, dims, *_ = planted_cone_program(rng, 7, 2, 4, 3)
    As, d, e = _equilibrate(sp.csc_matrix(A), dims)
    bs, cs = b * d, c * e
    m, n = As.shape
    r = metric(n, m, rho_x, rho_y)
    step = _HsdStep(_factor_kkt(As, r), bs, cs, r)
    dense = np.diag(r) + Embedding(As, bs, cs, dims).Q.toarray()
    for _ in range(3):
        w = rng.normal(size=n + m + 1)
        want = np.linalg.solve(dense, r * w)
        got = step.solve(w)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_kkt_factor_fill_is_linear():
    A, b, c, dims = cone_program(examples.benchmark(n=500))
    As, *_ = _equilibrate(A, dims)
    m, n = As.shape
    lu = _factor_kkt(As, metric(n, m, solver._RHO_X, solver._SCALE_START))
    # K = [[Rx, A'], [A, -Ry]]; splu(I + Q) in the COLAMD order filled to
    # about 70 times this
    nnz_K = n + m + 2 * As.nnz
    assert lu.L.nnz + lu.U.nnz <= 2 * nnz_K


def test_projection_root_finds_are_warm_started(monkeypatch):
    # n=1000, not 250: the accelerated n=250 solve ends after 325
    # iterations, fewer than 1,000 root finds
    A, b, c, dims = cone_program(examples.benchmark(n=1000))
    counts = {"fun_der": 0, "boundary": 0}
    fun_der, solve_boundary = cones._fun_der, cones._solve_boundary

    def counted_fun_der(*args):
        counts["fun_der"] += 1
        return fun_der(*args)

    def counted_solve_boundary(*args):
        counts["boundary"] += 1
        return solve_boundary(*args)

    monkeypatch.setattr(cones, "_fun_der", counted_fun_der)
    monkeypatch.setattr(cones, "_solve_boundary", counted_solve_boundary)
    solve(A, b, c, dims, max_iters=2000)
    assert counts["boundary"] > 1000
    # each ADMM iteration starts from the previous root: a few Newton
    # steps per triple, where a cold find takes about 5 on random triples
    assert counts["fun_der"] <= 4 * counts["boundary"]


# -- batches ---------------------------------------------------------------


def fit_cone_programs(scale_c=1.0):
    """(A, bs, cs, dims) of the 45 programs of a fit on
    synthetic_data(30, 8, 5), at the least-squares weights with c scaled
    by scale_c: every one has the same A, c and dims."""
    X, Y, X_val, _, *_ = synthetic_data(30, 8, 5)
    A_mat, c_vec = least_squares_monomials(X, Y)
    m, n = A_mat.shape
    A = Parameter("A", m * n, value=A_mat.ravel())
    c = Parameter("c", m, positive=True, value=scale_c * c_vec)
    progs = [cone_program(model_problem(x, A, c)) for x in np.vstack([X, X_val])]
    A0, _, _, dims = progs[0]
    for Ak, _, _, dk in progs:
        assert dk == dims and (Ak != A0).nnz == 0
    return A0, [p[1] for p in progs], [p[2] for p in progs], dims


def assert_solutions_agree(got, want):
    """The counts equal, and (x, y, s), the residuals and the scale bit
    for bit, NaNs included."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert (got.accelerations, got.rejections) == (want.accelerations,
                                                   want.rejections)
    for f in ("x", "y", "s", "pres", "dres", "gap", "scale"):
        g, w = np.asarray(getattr(got, f)), np.asarray(getattr(want, f))
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), f


@pytest.mark.parametrize("warm", [False, True])
def test_batch_matches_per_program_solves_on_fit_programs(warm):
    A, bs, cs, dims = fit_cone_programs()
    starts = [None] * len(bs)
    if warm:
        # from the optima at nearby weights, as the next step of fit
        _, bs0, cs0, _ = fit_cone_programs(scale_c=1.05)
        starts = [(s.x, s.y, s.s, s.scale) for s in
                  (solve(A, b, c, dims) for b, c in zip(bs0, cs0))]
    ws = solver.Workspace(A, dims)
    batch = solver.solve_batch(A, bs, cs, dims, warm_starts=starts,
                               workspace=ws)
    for b, c, start, got in zip(bs, cs, starts, batch):
        assert_solutions_agree(got, solve(A, b, c, dims, warm_start=start))
    # one factor of K serves them all
    assert [s.factorizations for s in batch] == [1] + [0] * (len(bs) - 1)
    # the workspace keeps the factor at each final scale
    again = solver.solve_batch(
        A, bs, cs, dims, warm_starts=[(s.x, s.y, s.s, s.scale) for s in batch],
        workspace=ws)
    assert sum(s.factorizations for s in again) == 0


def test_mixed_batch_columns_end_on_their_own():
    # x1 >= 1, x2 >= 1, x1 + x2 <= u: optimal for u >= 2, infeasible below
    A = sp.csc_matrix([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    dims = {"zero": 0, "nonneg": 3, "exp": 0}
    us = (3.0, 1.0, 50.0, 3.0, 4.0)
    bs = [np.array([-1.0, -1.0, u]) for u in us]
    cs = [np.array(c) for c in ([1.0, 2.0], [1.0, 1.0], [3.0, 1e-3],
                                [1.0, 2.0], [2.0, 5.0])]
    ref = solve(A, bs[0], cs[0], dims)
    # two warm starts at scales of their own, so three factors at first
    starts = [None, None, None, (ref.x, ref.y, ref.s, 50.0),
              (ref.x, ref.y, ref.s, 0.02)]
    batch = solver.solve_batch(A, bs, cs, dims, warm_starts=starts)
    solos = [solve(A, b, c, dims, warm_start=w)
             for b, c, w in zip(bs, cs, starts)]
    for got, want in zip(batch, solos):
        assert_solutions_agree(got, want)
        assert got.scale == want.scale
    assert [s.status for s in batch] == ["optimal", "infeasible", "optimal",
                                         "optimal", "optimal"]
    assert len({s.iterations for s in batch}) >= 3
    assert batch[1].iterations >= solver._CERT_EVERY
    # each scale that two programs hold is factored once
    assert 3 <= sum(s.factorizations for s in batch) < sum(
        s.factorizations for s in solos)


def test_empty_batch_and_argument_checks():
    A, b, c, dims = lp_geq_one()
    assert solver.solve_batch(A, [], [], dims) == []
    with pytest.raises(ValueError):
        solver.solve_batch(A, [b, b], [c], dims)
    with pytest.raises(DataError):
        solver.solve_batch(A, [b, np.array([np.nan])], [c, c], dims)
    with pytest.raises(ValueError):
        solver.solve_batch(A, [b], [c], dims, eps=0.0)


# -- acceleration ------------------------------------------------------------


def _run_anderson(B, c, w0, scales, resets, iters):
    """The iterates of solver._Anderson on T(w) = B w + c, one column per
    entry of scales (its c[:, j], w0[:, j] and metric scale), as the loop
    of solve_batch runs it: a lone column on vectors.  resets maps an
    iteration to the columns whose memory is cleared after it."""
    n, m = 4, B.shape[0] - 5
    cols = [SimpleNamespace(r=np.concatenate([np.full(n, 1e-2),
                                              np.full(m, s), [1.0]]),
                            accelerations=0, rejections=0) for s in scales]
    shape = w0[:, 0].shape if len(scales) == 1 else w0.shape
    w = w0.reshape(shape)
    aa = solver._Anderson(cols, w, np.zeros(shape))
    out = []
    for it in range(1, iters + 1):
        # T per column, so that a column's g does not depend on the others
        wk = w.reshape(len(B), -1)
        g = np.column_stack([B @ wk[:, j] + c[:, j] for j in range(len(cols))])
        np.copyto(aa.out(), g.reshape(shape))
        w = aa.advance(it).copy()
        out.append(w.reshape(len(B), -1))
        for p in resets.get(it, ()):
            aa.reset(p, w, np.zeros(shape), it)
    return out, cols, aa.pending


def test_anderson_matches_a_dense_reference():
    rng = np.random.default_rng(3)
    N, k = 24, 3
    B = rng.normal(size=(N, N))
    B *= 0.9 / np.linalg.norm(B, 2)
    c = rng.normal(size=(N, k))
    w0 = rng.normal(size=(N, k))
    scales = [1.0, 3.0, 0.2]
    # the first extrapolation with secant pairs falls on iteration
    # _AA_EVERY + _AA_PHASE; clearing column 1's memory three iterations
    # before it and column 2's one before leaves them 2 pairs and none
    first = solver._AA_EVERY + solver._AA_PHASE
    resets = {first - 3: [1], first - 1: [2]}
    stacked, cols, pending = _run_anderson(B, c, w0, scales, resets, first)
    for p, s in enumerate(scales):
        # the plain iteration up to there, from the start on
        ws = [w0[:, p]]
        for _ in range(first):
            ws.append(B @ ws[-1] + c[:, p])
        gs = ws[1:]
        # the memory: iterates from the start (whose f is no residual of
        # T) or the reset on, the last _AA_MEM + 1 at most
        start = max({0: 2, 1: first - 2, 2: first}[p],
                    first - solver._AA_MEM)
        W = np.array(ws[start - 1:first])
        G = np.array(gs[start - 1:first])
        F = G - W
        dF, dG = np.diff(F, axis=0).T, np.diff(G, axis=0).T
        g, f = G[-1], F[-1]
        got = stacked[-1][:, p]
        if dF.shape[1] == 0:
            # no pair: the plain step
            assert np.array_equal(got, B @ stacked[-2][:, p] + c[:, p])
            continue
        rh = np.sqrt(cols[p].r)
        gram = (rh[:, None] * dF).T @ (rh[:, None] * dF)
        lam = solver._AA_REG * np.linalg.norm(gram)
        # min ||R^(1/2) (f - dF gamma)||^2 + lam ||gamma||^2
        lhs = np.vstack([rh[:, None] * dF, np.sqrt(lam) * np.eye(dF.shape[1])])
        rhs = np.concatenate([rh * f, np.zeros(dF.shape[1])])
        gamma = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        want = g - dG @ gamma
        # tau - kappa stays the plain step's
        want[-1] = g[-1]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert not np.array_equal(got, g)
        # what the safeguard tests next: the norms of f and w before it,
        # and of the point it made
        norms = [np.linalg.norm(rh * x) for x in (f, W[-1], want)]
        assert np.allclose(pending[p], norms, rtol=1e-12, atol=0.0)
    # and each column, run for longer, is the column run alone, to the bit
    stacked, cols, _ = _run_anderson(B, c, w0, scales, resets, 60)
    assert sum(col.accelerations + col.rejections for col in cols) >= 6
    for p, s in enumerate(scales):
        alone, *_ = _run_anderson(B, c[:, p:p + 1], w0[:, p:p + 1], [s],
                                 {it: [0] for it, ps in resets.items()
                                  if p in ps}, 60)
        for a, b in zip(stacked, alone):
            assert np.array_equal(a[:, p], b[:, 0])


@pytest.mark.parametrize("kind", ["infeasible", "unbounded"])
def test_certificates_after_accepted_extrapolations(kind):
    if kind == "infeasible":
        A, b_of, c, dims, beta = separated_program(0)
        bs, cs = [b_of(beta + 1.0), b_of(beta - 1.0)], [c, c]
    else:
        A, b, c_of, dims = loosened_program(0)
        bs, cs = [b, b], [c_of(-1.0), c_of(3.0)]
    sol = solve(A, bs[0], cs[0], dims)
    assert sol.status == kind
    # the certificate is read off iterates that extrapolations moved
    assert sol.accelerations >= 1
    nl = dims["nonneg"]
    if kind == "infeasible":
        cert, cone_test = sol.y, in_dual_expcone
        assert bs[0] @ sol.y == pytest.approx(-1.0, rel=1e-9)
        assert np.linalg.norm(A.T @ sol.y) <= 1e-6
    else:
        cert, cone_test = sol.s, in_expcone
        assert cs[0] @ sol.x == pytest.approx(-1.0, rel=1e-9)
        assert np.linalg.norm(A @ sol.x + sol.s) <= 1e-6
    assert np.all(cert[:nl] >= -1e-9)
    for j in range(nl, A.shape[0], 3):
        assert cone_test(tuple(cert[j:j + 3]), tol=1e-7)
    # the same beside an optimal program in one batch
    batch = solver.solve_batch(A, bs, cs, dims)
    assert [s.status for s in batch] == [kind, "optimal"]
    for got, b, c in zip(batch, bs, cs):
        assert_solutions_agree(got, solve(A, b, c, dims))


def test_batch_column_rescales_while_another_leaves():
    A, b_of, c, dims, beta = separated_program(0)
    bs = [b_of(beta + 1.0)] + [b_of(beta - 1.0)] * 3
    cs = [c, c, 30.0 * c, c / 30.0]
    batch = solver.solve_batch(A, bs, cs, dims)
    for got, b, cc in zip(batch, bs, cs):
        want = solve(A, b, cc, dims)
        assert_solutions_agree(got, want)
        assert got.scale == want.scale
    # the premises: a column leaves at a certificate check with a memory
    # of extrapolations, and columns that change their scale run on
    leaving = batch[0]
    assert leaving.status == "infeasible" and leaving.accelerations >= 1
    assert [s.status for s in batch[1:]] == ["optimal"] * 3
    rescaled = [s for s in batch if s.scale != solver._SCALE_START]
    assert len(rescaled) >= 2
    assert all(s.iterations > leaving.iterations for s in rescaled)


@pytest.mark.parametrize("seed", [1000, 1012])
def test_extrapolation_leaves_tau_minus_kappa_alone(seed):
    # infeasible programs on which extrapolating tau - kappa too led the
    # iterates to a fixed point with tau = kappa = 0, which is neither a
    # solution nor a certificate, and kept them there until max_iters
    rng = np.random.default_rng(seed)
    n, nl, ne = (int(rng.integers(lo, hi)) for lo, hi in ((3, 10), (2, 8),
                                                           (1, 4)))
    A, b, c, dims, x, _, _ = planted_cone_program(rng, n, 0, nl, ne)
    a = rng.normal(size=n)
    beta = float(a @ x)
    gap = float(rng.choice([1.0, 0.1, 1e-2]))
    A = sp.csc_matrix(np.vstack([A[:nl], a, -a, A[nl:]]))
    b = np.concatenate([b[:nl], [beta, -beta - gap], b[nl:]])
    sol = solve(A, b, c, dict(dims, nonneg=nl + 2), max_iters=5000)
    assert sol.status == "infeasible"
    assert sol.accelerations >= 1

