"""End-to-end Problem behavior: solving, sensitivities, and gradients."""

import warnings

import numpy as np
import pytest

from llcp import NonuniqueWarning, canon, solver
from llcp.examples import benchmark, hello_world, queuing
from llcp.expr import (
    Constant,
    DomainError,
    Parameter,
    ShapeError,
    Variable,
    evaluate,
    log,
)
from llcp.problem import (
    Maximize,
    Minimize,
    NoDerivativeStateError,
    NotDgpError,
    Problem,
    _Outcome,
)

from oracles import queuing_solution
from test_canon import _random_program
from test_diff import _random_problem

HELLO_OPT = np.array([0.5612147, 0.3149620, 0.3689206])


def named(prob, which="variables"):
    return {leaf.name: leaf for leaf in getattr(prob, which)}


def concat_values(leaves, field):
    return np.concatenate([np.atleast_1d(getattr(p, field)) for p in leaves])


# -- solving -----------------------------------------------------------------


def test_hello_world_solution():
    p = hello_world()
    value = p.solve()
    assert p.status == "optimal"
    got = concat_values(p.variables, "value")
    assert np.allclose(got, HELLO_OPT, atol=1e-4)
    # the optimal objective is 1/(x y z)
    assert value == pytest.approx(1.0 / HELLO_OPT.prod(), rel=1e-4)


def test_variables_are_positive():
    p = queuing()
    p.solve()
    for v in p.variables:
        assert np.all(v.value > 0)


def test_value_matches_expression_evaluation():
    for p in (hello_world(), queuing()):
        value = p.solve()
        assert value == pytest.approx(
            evaluate(p.objective.expr).item(), rel=1e-6)


def test_queuing_matches_closed_form():
    p = queuing()
    p.solve(eps=1e-10)
    lam_star, mu_star, _ = queuing_solution(
        np.array([1.0, 2.0]), np.array([2.0, 2.0]), 3.0)
    vals = named(p)
    assert np.allclose(vals["lam"].value, lam_star, atol=1e-6)
    assert np.allclose(vals["mu"].value, mu_star, atol=1e-6)


def test_maximize_sense():
    x = Variable("x")
    b = Parameter("b", positive=True, value=2.0)
    p = Problem(Maximize(x), [x <= b])
    assert p.solve() == pytest.approx(2.0, rel=1e-7)
    p.solve(derivatives=True)
    b.delta = np.array([1.0])
    dx = p.derivative()["x"]
    assert dx == pytest.approx(1.0, rel=1e-6)


def test_revalue_then_resolve_skips_canonicalization():
    p = hello_world()
    p.solve()
    first = p.value
    before = canon.traversal_count()
    named(p, "parameters")["b"].set_value(2.0)
    second = p.solve()
    assert canon.traversal_count() == before
    # doubling the budget b scales the feasible set; the optimum drops
    assert p.status == "optimal" and second < first


def test_warm_start_reuses_previous_solution():
    p = queuing()
    p.solve()
    cold_iters = p.stats["iterations"]
    named(p, "parameters")["mu_max"].set_value(3.01)
    p.solve()
    assert p.stats["iterations"] <= cold_iters


@pytest.mark.parametrize("n, ceiling", [(1000, 3750), (2000, 2500)])
def test_large_ladder_rungs_reach_optimal(n, ceiling):
    # an equal weight on the primal and dual blocks left n=1000 at
    # max_iters; the adaptive scale takes 3,000 and 2,025 iterations
    p = benchmark(n=n)
    p.solve()
    assert p.status == "optimal"
    assert p.stats["iterations"] <= ceiling


@pytest.mark.parametrize("make, ceiling", [
    (queuing, 150), (lambda: benchmark(n=250), 1500)],
    ids=["queuing", "benchmark250"])
def test_acceleration_keeps_iteration_counts_down(make, ceiling):
    # the splitting without acceleration took 250 and 5,800 iterations
    p = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p.solve()
    assert p.status == "optimal"
    assert p.stats["iterations"] <= ceiling
    assert p.stats["accelerations"] >= 1


def test_random_programs_take_few_iterations():
    # 4,025 iterations in all without acceleration
    total = 0
    for seed in range(100, 140):
        objective, constraints, _ = _random_program(
            np.random.default_rng(seed))
        p = Problem(Minimize(objective), constraints)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p.solve(eps=1e-10)
        assert p.status == "optimal", seed
        total += p.stats["iterations"]
    assert total <= 2500


def test_warm_resolve_keeps_the_scale():
    p = benchmark(n=500)
    p.solve()
    scale = p.stats["scale"]
    assert p.stats["factorizations"] > 1
    u = named(p, "parameters")["u"]
    u.set_value(1.01 * u.value)
    p.solve()
    assert p.status == "optimal"
    # the warm start carries the scale, so nothing is learned again, and
    # the workspace holds the factor of K at that scale
    assert p.stats["factorizations"] == 0
    assert p.stats["scale"] == scale
    warm_iters = p.stats["iterations"]
    p.solve(warm_start=False)
    assert p.status == "optimal"
    assert warm_iters <= p.stats["iterations"]


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("name, min_factors", [("A", 1), ("u", 0)])
def test_warm_resolve_matches_a_solve_without_workspace(name, min_factors):
    p = benchmark(n=60)
    p.solve()
    prev = p.solution
    param = named(p, "parameters")[name]
    # the exponents enter the cone matrix A, the bounds only b
    param.set_value(1.05 * param.value)
    p.solve()
    got = p.solution
    assert got.status == "optimal"
    assert got.factorizations >= min_factors
    _, cmap, pmap = p._compiled
    A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
    want = solver.solve(A, b, c, pmap.dims,
                        warm_start=(prev.x, prev.y, prev.s, prev.scale))
    assert _bits(got.x, got.y, got.s) == _bits(want.x, want.y, want.s)
    assert got.iterations == want.iterations
    # a cold solve of a used problem is the cold solve of a fresh one
    p.solve(warm_start=False)
    fresh = benchmark(n=60)
    named(fresh, "parameters")[name].set_value(param.value)
    fresh.solve()
    a, f = p.solution, fresh.solution
    assert _bits(a.x, a.y, a.s) == _bits(f.x, f.y, f.s)
    assert a.iterations == f.iterations


def test_free_original_variable_is_reported():
    # y is anywhere in [0.5, 2] at the optimum: neither bound is active and
    # the objective does not involve it
    x, y = Variable("x"), Variable("y")
    p = Problem(Minimize(x), [x >= 1.0, y >= 0.5, y <= 2.0])
    with pytest.warns(NonuniqueWarning):
        p.solve(derivatives=True)
    assert p.status == "optimal" and not p.unique and not p.nonsmooth
    assert p.derivative()["x"] == pytest.approx(0.0)
    p.solve()
    assert p.unique


def test_infeasible_reports_and_blocks_derivatives():
    x = Variable("x")
    p = Problem(Minimize(x), [x <= 0.5, Constant(2.0) <= x])
    assert p.solve(derivatives=True) is None
    assert p.status == "infeasible"
    assert p.value is None
    with pytest.raises(NoDerivativeStateError):
        p.derivative()


def test_derivative_before_solve_raises():
    p = hello_world()
    with pytest.raises(NoDerivativeStateError):
        p.backward()


def test_solve_without_derivatives_blocks_them():
    p = hello_world()
    p.solve()
    with pytest.raises(NoDerivativeStateError):
        p.derivative()


# -- grammar and domain errors ------------------------------------------------


def test_non_dgp_objective_raises_with_diagnostic():
    x = Variable("x")
    p = Problem(Minimize(log(x)))
    assert not p.is_dgp()
    with pytest.raises(NotDgpError) as info:
        p.solve()
    assert "objective" in str(info.value)
    assert "log" in str(info.value)


def test_non_dgp_constraint_names_the_side():
    x = Variable("x")
    y = Variable("y")
    # a sum of monomials can only sit on the small side of <=
    p = Problem(Minimize(x), [x <= y + 1.0])
    msg = p.explain()
    assert msg is not None and "constraints[0].rhs" in msg


def test_unset_parameter_value_raises():
    x = Variable("x")
    b = Parameter("b", positive=True)
    p = Problem(Minimize(x), [Constant(1.0) <= b * x])
    with pytest.raises(DomainError):
        p.solve()


def test_signless_multiplicative_parameter_rejected():
    # a parameter without positive=True may only appear as an exponent
    x = Variable("x")
    k = Parameter("k", value=-2.0)
    p = Problem(Minimize(x), [Constant(1.0) <= k * x])
    with pytest.raises(NotDgpError) as info:
        p.solve()
    assert "'k'" in str(info.value)


# -- forward sensitivities ----------------------------------------------------


def test_hello_world_forward_sensitivity():
    p = hello_world()
    p.solve(derivatives=True)
    for q in p.parameters:
        q.delta = np.array([0.01])
    deltas = p.derivative()
    predicted = concat_values(p.variables, "value") + np.concatenate(
        [deltas["x"], deltas["y"], deltas["z"]])
    assert np.allclose(predicted, [0.55729, 0.31783, 0.37179], atol=5e-4)

    params = named(p, "parameters")
    for name, q in params.items():
        q.set_value(float(q.value[0]) + 0.01)
    p.solve()
    actual = concat_values(p.variables, "value")
    assert np.allclose(actual, [0.55732, 0.31781, 0.37178], atol=5e-4)
    assert np.allclose(predicted, actual, atol=5e-4)


def test_zero_delta_gives_zero_derivative():
    p = queuing()
    p.solve(derivatives=True)
    deltas = p.derivative()
    assert all(np.allclose(d, 0.0) for d in deltas.values())


def test_derivative_is_linear_in_delta():
    p = hello_world()
    p.solve(derivatives=True)
    params = named(p, "parameters")
    params["a"].delta = np.array([1.0])
    params["b"].delta = np.array([0.0])
    params["c"].delta = np.array([0.0])
    da = np.concatenate(list(p.derivative().values()))
    params["a"].delta = np.array([2.0])
    da2 = np.concatenate(list(p.derivative().values()))
    assert np.allclose(da2, 2.0 * da, atol=1e-9)


# -- backward -----------------------------------------------------------------


def test_hello_world_gradient_step():
    p = hello_world()
    p.solve(derivatives=True)
    x_star = concat_values(p.variables, "value")
    f0 = 0.5 * float(x_star @ x_star)
    assert f0 == pytest.approx(0.27513, abs=2e-3)

    # gradient of f(x) = ||x||^2 / 2 is x itself
    for v in p.variables:
        v.gradient = v.value.copy()
    grads = p.backward()
    eta = 0.5
    grad_alpha = np.concatenate([grads[q.name] for q in
                                 (named(p, "parameters")[k] for k in "abc")])
    predicted = f0 - eta * float(grad_alpha @ grad_alpha)
    assert predicted == pytest.approx(0.22709, abs=2e-3)

    for q in p.parameters:
        q.set_value(float(q.value[0]) - eta * float(q.gradient[0]))
    p.solve()
    x_new = concat_values(p.variables, "value")
    actual = 0.5 * float(x_new @ x_new)
    assert actual == pytest.approx(0.22942, abs=2e-3)


def test_zero_gradient_gives_zero_backward():
    p = queuing()
    p.solve(derivatives=True)
    for v in p.variables:
        v.gradient = np.zeros(v.size)
    grads = p.backward()
    assert all(np.allclose(g, 0.0) for g in grads.values())


def test_gradient_defaults_to_ones():
    p = hello_world()
    p.solve(derivatives=True)
    for v in p.variables:
        v.gradient = None
    by_default = np.concatenate(list(p.backward().values()))
    for v in p.variables:
        v.gradient = np.ones(v.size)
    explicit = np.concatenate(list(p.backward().values()))
    assert np.allclose(by_default, explicit, atol=1e-12)


# -- adjoint identity and finite differences ----------------------------------


def set_deltas(prob, dalpha):
    pos = 0
    for q in prob.parameters:
        q.delta = dalpha[pos:pos + q.size]
        pos += q.size


def alpha_of(prob):
    return concat_values(prob.parameters, "value")


def set_alpha(prob, alpha):
    pos = 0
    for q in prob.parameters:
        q.set_value(alpha[pos:pos + q.size]
                    if q.size > 1 else float(alpha[pos]))
        pos += q.size


def solution_of(prob):
    return concat_values(prob.variables, "value")


def test_adjoint_identity():
    rng = np.random.default_rng(3)
    for make in (hello_world, queuing):
        p = make()
        p.solve(derivatives=True, eps=1e-10)
        n_alpha = sum(q.size for q in p.parameters)
        n_x = sum(v.size for v in p.variables)
        for _ in range(5):
            dalpha = rng.standard_normal(n_alpha)
            dx = rng.standard_normal(n_x)
            set_deltas(p, dalpha)
            fwd = np.concatenate(list(p.derivative().values()))
            pos = 0
            for v in p.variables:
                v.gradient = dx[pos:pos + v.size]
                pos += v.size
            back = np.concatenate(list(p.backward().values()))
            lhs = float(fwd @ dx)
            rhs = float(back @ dalpha)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-6


def finite_difference_check(p, rng, h=1e-6, eps=1e-10, rel=1e-3):
    p.solve(derivatives=True, eps=eps)
    alpha0 = alpha_of(p)
    dalpha = rng.standard_normal(alpha0.size)
    dalpha /= np.linalg.norm(dalpha)
    set_deltas(p, dalpha)
    fwd = np.concatenate(list(p.derivative().values()))

    set_alpha(p, alpha0 + h * dalpha)
    assert p.solve(eps=eps) is not None
    plus = solution_of(p)
    set_alpha(p, alpha0 - h * dalpha)
    assert p.solve(eps=eps) is not None
    minus = solution_of(p)
    set_alpha(p, alpha0)

    fd = (plus - minus) / (2.0 * h)
    err = np.linalg.norm(fwd - fd) / max(np.linalg.norm(fd), 1e-12)
    assert err < rel, f"relative error {err:.2e}"


def test_derivative_matches_finite_differences_hello():
    finite_difference_check(hello_world(), np.random.default_rng(0))


def test_derivative_matches_finite_differences_queuing():
    finite_difference_check(queuing(), np.random.default_rng(1), h=1e-7)


def test_derivative_matches_finite_differences_random():
    rng = np.random.default_rng(2)
    for k in range(5):
        p = benchmark(n=int(rng.integers(2, 6)),
                      m=int(rng.integers(1, 4)), seed=k)
        finite_difference_check(p, rng)


# -- queuing sensitivities ----------------------------------------------------


def queuing_jacobian_wrt(p, name):
    """Dense Jacobian d(lam, mu)/d(parameter) assembled column by column."""
    params = named(p, "parameters")
    target = params[name]
    cols = []
    for j in range(target.size):
        for q in p.parameters:
            q.delta = np.zeros(q.size)
        target.delta = np.eye(target.size)[j]
        d = p.derivative()
        cols.append(np.concatenate([d["lam"], d["mu"]]))
    return np.column_stack(cols)


def test_queuing_slack_parameters_have_no_effect():
    p = queuing()
    p.solve(derivatives=True, eps=1e-10)
    for name in ("w_max", "q_max", "lam_min"):
        J = queuing_jacobian_wrt(p, name)
        assert np.max(np.abs(J)) <= 1e-6, name


def test_queuing_active_jacobians_match_closed_form():
    gamma = np.array([1.0, 2.0])
    d_max = np.array([2.0, 2.0])
    mu_max = 3.0

    def closed_form(theta):
        lam, mu, _ = queuing_solution(theta[0:2], theta[2:4], theta[4])
        return np.concatenate([lam, mu])

    theta0 = np.concatenate([gamma, d_max, [mu_max]])
    h = 1e-7
    fd = np.zeros((4, 5))
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd[:, j] = (closed_form(theta0 + e) - closed_form(theta0 - e)) / (2 * h)

    p = queuing()
    p.solve(derivatives=True, eps=1e-10)
    got = np.column_stack([
        queuing_jacobian_wrt(p, "gamma"),
        queuing_jacobian_wrt(p, "d_max"),
        queuing_jacobian_wrt(p, "mu_max"),
    ])
    assert np.allclose(got, fd, atol=1e-4)


# -- batches -----------------------------------------------------------------


def _fit_model(count, seed):
    """The regression program over a positive input parameter x, as fit
    builds it, the inputs of count samples as solve_batch values, and the
    weight parameter A."""
    from llcp.fitting import least_squares_monomials, model_problem
    from llcp.fitting import synthetic_data

    X, Y, *_ = synthetic_data(count, 3, 3, seed=seed)
    A_mat, c_vec = least_squares_monomials(X, Y)
    A = Parameter("A", A_mat.size, value=A_mat.ravel())
    c = Parameter("c", c_vec.size, positive=True, value=c_vec)
    x = Parameter("x", X.shape[1], positive=True)
    return model_problem(x, A, c), {x: X}, A


def _fit_solo(count, seed):
    """One regression program per sample of _fit_model(count, seed), its
    input x set to the sample's, and their weight parameters."""
    solo = []
    for row in range(count):
        model, inputs, A = _fit_model(count, seed)
        (x, X), = inputs.items()
        x.set_value(X[row])
        solo.append((model, A))
    return solo


def test_fit_batch_ends_each_column_as_solve_does():
    model, inputs, A_batch = _fit_model(7, seed=4)
    solo = _fit_solo(7, seed=4)[:5]
    flags = [True] * 5 + [False] * 2
    values = model.solve_batch(inputs, derivatives=flags)
    # the columns share one cone matrix, and so one workspace
    assert len({id(col._workspace) for col in model.columns}) == 1
    for step in range(2):
        if step:
            # a weight step: the columns re-solve warm in one batch
            for a in [A_batch] + [a for _, a in solo]:
                a.set_value(a.value * 1.02)
            values = model.solve_batch(inputs, derivatives=flags)
        for j, ((want, _), value) in enumerate(zip(solo, values)):
            got = model.columns[j]
            assert want.solve(derivatives=True) == pytest.approx(value,
                                                                 rel=1e-12)
            assert got.status == want.status == "optimal"
            assert got.value == value
            assert got.solution.iterations == want.solution.iterations
            assert set(got.stats) == set(want.stats)
            for g, w in zip(model.variables, want.variables):
                assert np.allclose(got.values[g.name], w.value, rtol=1e-12,
                                   atol=0.0)
                g.gradient = w.gradient = np.linspace(1.0, 2.0, g.size)
            for g, w in zip(model.backward(column=j).values(),
                            want.backward().values()):
                assert np.allclose(g, w, rtol=1e-6, atol=1e-9)
    for j in (5, 6):
        assert model.columns[j].status == "optimal"
        with pytest.raises(NoDerivativeStateError):
            model.backward(column=j)


def test_held_points_batch_as_each_problem_alone():
    # a weight step of fit: every column re-solves from its point, in one
    # batch of held steps, each as its own solve() does it
    from test_solver import assert_solutions_agree
    model, inputs, A_batch = _fit_model(8, seed=4)
    solo = _fit_solo(8, seed=4)
    model.solve_batch(inputs, derivatives=True)
    for p, _ in solo:
        p.solve(derivatives=True)
    for step in range(3):
        for a in [A_batch] + [a for _, a in solo]:
            a.set_value(a.value * 1.01)
        model.solve_batch(inputs, derivatives=True)
        for got, (want, _) in zip(model.columns, solo):
            want.solve(derivatives=True)
            assert got.solution.iterations == 0
            assert got.solution.factorizations == 0
            assert_solutions_agree(got.solution, want.solution)


def test_held_points_are_gone_before_the_new_ones(monkeypatch):
    # the solver takes each point with its warm start and drops it after
    # the held steps, so no old point lives on beside the new ones
    import weakref
    model, inputs, A = _fit_model(8, seed=4)
    model.solve_batch(inputs, derivatives=True)
    old = [weakref.ref(col._point) for col in model.columns]
    seen = []
    finish = _Outcome._finish

    def spied(self, *args, **kwargs):
        seen.append([ref() is None for ref in old])
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(_Outcome, "_finish", spied)
    A.set_value(A.value * 1.01)
    model.solve_batch(inputs, derivatives=True)
    assert [col.solution.iterations for col in model.columns] == [0] * 8
    assert seen[0] == [True] * 8
    assert all(col._warm[4] is col._point for col in model.columns)


@pytest.mark.parametrize("batched, groups", [("a", 1), ("c", 3)])
def test_solve_batch_columns_end_as_solve_does(batched, groups):
    # a enters b only, so the columns share one cone matrix and solver
    # workspace; c is an exponent of a variable, so each column has its own
    rows = {"a": [[2.0], [1.5], [3.0]], "c": [[0.5], [0.8], [0.3]]}[batched]
    p = hello_world()
    before = canon.traversal_count()
    values = p.solve_batch({named(p, "parameters")[batched]: rows},
                           derivatives=[True, False, True])
    assert canon.traversal_count() == before + 1
    assert len({id(col._workspace) for col in p.columns}) == groups
    # the problem's own outcome and its variables stay unsolved
    assert p.status is None and p.value is None
    assert all(v.value is None for v in p.variables)
    for j, (row, value) in enumerate(zip(rows, values)):
        alone = hello_world()
        named(alone, "parameters")[batched].set_value(row)
        want = alone.solve(derivatives=True)
        col = p.columns[j]
        assert col.status == "optimal" and col.value == value
        assert value == pytest.approx(want, rel=1e-12)
        assert col.solution.iterations == alone.solution.iterations
        assert set(col.stats) == set(alone.stats)
        for v in alone.variables:
            assert np.allclose(col.values[v.name], v.value, rtol=1e-12,
                               atol=0.0)
        if j == 1:
            with pytest.raises(NoDerivativeStateError):
                p.backward(column=j)
            continue
        for q, r in zip(p.parameters, alone.parameters):
            q.delta = r.delta = 0.01
        for g, w in zip(p.derivative(column=j).values(),
                        alone.derivative().values()):
            assert np.allclose(g, w, rtol=1e-6, atol=1e-9)
        for g, w in zip(p.backward(column=j).values(),
                        alone.backward().values()):
            assert np.allclose(g, w, rtol=1e-6, atol=1e-9)
    with pytest.raises(NoDerivativeStateError):
        p.backward()


def test_solve_batch_checks_its_values():
    p = hello_world()
    a, b, c = (named(p, "parameters")[n] for n in "abc")
    with pytest.raises(ValueError, match="at least one"):
        p.solve_batch({})
    with pytest.raises(ValueError, match="not a parameter"):
        p.solve_batch({Parameter("a", positive=True): [[1.0]]})
    with pytest.raises(ShapeError, match=r"expected \(2, 1\)"):
        p.solve_batch({a: [[1.0], [2.0]], b: [[1.0]]})
    with pytest.raises(ShapeError, match=r"expected \(1, 1\)"):
        p.solve_batch({a: [1.0]})
    with pytest.raises(DomainError, match="positive"):
        p.solve_batch({a: [[1.0], [-2.0]]})
    with pytest.raises(DomainError, match="finite"):
        p.solve_batch({c: [[np.nan]]})
    with pytest.raises(ValueError, match="derivative flags"):
        p.solve_batch({a: [[1.0], [2.0]]}, derivatives=[True])
    assert p.columns == [] and p.status is None


@pytest.mark.parametrize("entry", ["solve", "solve_batch"])
def test_one_problem_warns_at_the_caller_through_one_solve(monkeypatch,
                                                           entry):
    # seed 110's optimum leaves a variable free: NonuniqueWarning
    calls = []
    original = solver.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counted)
    p = _random_problem(110)
    with pytest.warns(NonuniqueWarning) as record:
        if entry == "solve":
            p.solve(derivatives=True, eps=1e-10)
        else:
            q = p.parameters[0]
            p.solve_batch({q: [q.value]}, derivatives=True, eps=1e-10)
    end = p if entry == "solve" else p.columns[0]
    assert end.status == "optimal" and not end.unique
    assert [w.filename for w in record] == [__file__]
    assert len(calls) == 1


@pytest.mark.parametrize("max_iters", [2.5, -1])
def test_problem_rejects_a_bad_max_iters(max_iters):
    p = hello_world()
    with pytest.raises(ValueError, match="max_iters"):
        p.solve(max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        p.solve_batch({named(p, "parameters")["a"]: [[1.0], [2.0]]},
                      max_iters=max_iters)
    assert p.status is None


def test_solve_releases_the_old_derivative_state(monkeypatch):
    p = hello_world()
    p.solve(derivatives=True)
    point = p._point
    seen = []
    original = solver.solve_batch

    def raising(*args, **kwargs):
        seen.append(p._point)
        raise solver.DataError("non-finite data")

    monkeypatch.setattr(solver, "solve_batch", raising)
    with pytest.raises(solver.DataError):
        p.solve(derivatives=True)
    # the old point was gone while the solver ran, and stays gone
    assert seen == [None]
    with pytest.raises(NoDerivativeStateError):
        p.derivative()
    monkeypatch.setattr(solver, "solve_batch", original)
    p.solve(derivatives=True)
    assert p._point is not point and p.derivative()


def test_bad_batch_row_leaves_every_column_as_it_was():
    model, inputs, _ = _fit_model(8, seed=4)
    model.solve_batch(inputs, derivatives=True)
    columns = list(model.columns)
    kept = [(col._point, col.stats) for col in columns]
    (x, X), = inputs.items()
    bad = X.copy()
    bad[2, 1] = -1.0
    with pytest.raises(DomainError):
        model.solve_batch({x: bad}, derivatives=True)
    assert model.columns == columns
    assert [(col._point, col.stats) for col in columns] == kept
    assert all(model.derivative(column=j) for j in range(8))
