"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Tolerances are asserted exactly as stated in the package's contract.
Reference-table entries that a correct implementation cannot reproduce
(they disagree with the closed-form solution of the queuing instance)
are marked xfail(strict=True); companion tests pin the implementation
against independently derived ground truth instead.
"""

import time

import numpy as np
import pytest

import llcp
from llcp import solver
from llcp.canon import traversal_count
from llcp.cones import dproject_expcone, project_cone, project_expcone
from llcp.examples import benchmark, hello_world, queuing
from llcp.expr import PowerRuleError, add, curvature, exp, log, maximum, mul
from llcp.fitting import fit, predict, synthetic_data

from oracles import central_jacobian, queuing_jacobians
from test_cones import EXP_PROJ_FIXTURES
from test_problem import (
    alpha_of,
    concat_values,
    finite_difference_check,
    named,
    queuing_jacobian_wrt,
    set_alpha,
    set_deltas,
)


# ---------------------------------------------------------------------------
# three-variable design study: solve, forward sensitivity, gradient step


def test_hello_world_solution_accuracy_and_speed():
    p = hello_world()
    t0 = time.perf_counter()
    p.solve()
    assert p.status == "optimal"
    elapsed = time.perf_counter() - t0
    got = concat_values(p.variables, "value")
    assert np.allclose(got, [0.5612147, 0.3149620, 0.3689206], atol=1e-4)
    assert elapsed < 1.0


def test_hello_world_forward_sensitivity():
    p = hello_world()
    p.solve(derivatives=True)
    for q in p.parameters:
        q.delta = np.array([0.01])
    deltas = p.derivative()
    predicted = concat_values(p.variables, "value") + np.concatenate(
        [deltas["x"], deltas["y"], deltas["z"]])
    assert np.allclose(predicted, [0.55729, 0.31783, 0.37179], atol=5e-4)

    set_alpha(p, alpha_of(p) + 0.01)
    p.solve()
    assert p.status == "optimal"
    actual = concat_values(p.variables, "value")
    assert np.allclose(actual, [0.55732, 0.31781, 0.37178], atol=5e-4)


def test_hello_world_gradient_step():
    p = hello_world()
    p.solve(derivatives=True)
    x_star = concat_values(p.variables, "value")
    original = 0.5 * float(x_star @ x_star)
    assert original == pytest.approx(0.27513, abs=2e-3)

    for v in p.variables:
        v.gradient = v.value.copy()
    grads = p.backward()
    grad_alpha = np.concatenate([grads[k] for k in ("a", "b", "c")])
    eta = 0.5
    predicted = original - eta * float(grad_alpha @ grad_alpha)
    assert predicted == pytest.approx(0.22709, abs=2e-3)

    set_alpha(p, alpha_of(p) - eta * grad_alpha)
    p.solve()
    assert p.status == "optimal"
    x_new = concat_values(p.variables, "value")
    actual = 0.5 * float(x_new @ x_new)
    assert actual == pytest.approx(0.22942, abs=2e-3)


# ---------------------------------------------------------------------------
# queuing design study: solution, derivative table, percent-change forecast

QUEUING_GAMMA = np.array([1.0, 2.0])
QUEUING_D_MAX = np.array([2.0, 2.0])
QUEUING_MU_MAX = 3.0

# Reference sensitivities of (lam, mu, ell) w.r.t. (d_max, mu_max, gamma)
# for the queuing instance, as published with the design study.
PRINTED_TABLE = {
    ("lam", "d_max"): [[-0.028, 0.30], [0.028, -0.052]],
    ("lam", "mu_max"): [[0.46], [0.54]],
    ("lam", "gamma"): [[0.34, -0.17], [-0.34, 0.17]],
    ("mu", "d_max"): [[-0.28, 0.30], [0.28, -0.30]],
    ("mu", "mu_max"): [[0.46], [0.54]],
    ("mu", "gamma"): [[0.34, -0.17], [-0.34, 0.17]],
    ("ell", "d_max"): [[-0.28, -0.22], [-0.10, -0.20]],
    ("ell", "mu_max"): [[-0.33], [-0.20]],
    ("ell", "gamma"): [[-0.24, 0.12], [0.12, -0.061]],
}

# Entries of PRINTED_TABLE that differ from the closed-form sensitivity
# of this instance by more than the 0.02 gate (by up to 0.24); verified
# twice, analytically and by central differences of the closed form.
INCONSISTENT_ENTRIES = {
    ("lam", "d_max"): {(0, 1), (1, 0), (1, 1)},
    ("lam", "mu_max"): {(0, 0), (1, 0)},
    ("lam", "gamma"): {(0, 0), (0, 1), (1, 0), (1, 1)},
    ("mu", "d_max"): {(0, 1), (1, 1)},
    ("mu", "mu_max"): {(0, 0), (1, 0)},
    ("mu", "gamma"): {(0, 0), (0, 1), (1, 0), (1, 1)},
    ("ell", "d_max"): {(0, 1), (1, 1)},
    ("ell", "mu_max"): {(0, 0)},
    ("ell", "gamma"): {(0, 0), (0, 1), (1, 0)},
}


@pytest.fixture(scope="module")
def queuing_jacobian_table():
    """Solver-produced Jacobians, keyed by (variable, parameter)."""
    p = queuing()
    p.solve(derivatives=True, eps=1e-10)
    assert p.status == "optimal"
    lam = named(p)["lam"].value.copy()
    mu = named(p)["mu"].value.copy()
    table = {}
    for pname in ("gamma", "d_max", "mu_max"):
        J = queuing_jacobian_wrt(p, pname)
        table[("lam", pname)] = J[:2]
        table[("mu", pname)] = J[2:]
        # ell = mu / lam elementwise, so d ell follows the quotient rule
        table[("ell", pname)] = (
            lam[:, None] * J[2:] - mu[:, None] * J[:2]) / lam[:, None] ** 2
    return table


def test_queuing_solution_values():
    p = queuing()
    p.solve()
    assert p.status == "optimal"
    vals = named(p)
    assert np.allclose(vals["lam"].value, [0.828, 1.172], atol=1e-2)
    assert np.allclose(vals["mu"].value, [1.328, 1.672], atol=1e-2)


def _table_cases():
    cases = []
    for (var, pname), rows in PRINTED_TABLE.items():
        arr = np.atleast_2d(np.asarray(rows, dtype=float))
        for i in range(arr.shape[0]):
            for j in range(arr.shape[1]):
                marks = ()
                if (i, j) in INCONSISTENT_ENTRIES.get((var, pname), ()):
                    marks = pytest.mark.xfail(
                        strict=True,
                        reason="printed value disagrees with the closed-form "
                        "sensitivity of this instance; the closed-form "
                        "companion test pins the correct value")
                cases.append(pytest.param(
                    var, pname, i, j, arr[i, j],
                    id=f"{var}-{pname}-{i}{j}", marks=marks))
    return cases


@pytest.mark.parametrize("var,pname,i,j,expected", _table_cases())
def test_queuing_derivative_table(queuing_jacobian_table,
                                  var, pname, i, j, expected):
    got = queuing_jacobian_table[(var, pname)][i, j]
    assert abs(got - expected) <= 0.02


def test_queuing_derivatives_match_closed_form(queuing_jacobian_table):
    truth = queuing_jacobians(QUEUING_GAMMA, QUEUING_D_MAX, QUEUING_MU_MAX)
    # oracle rows stack lam, mu, ell
    for pname in ("gamma", "d_max", "mu_max"):
        for idx, var in enumerate(("lam", "mu", "ell")):
            got = queuing_jacobian_table[(var, pname)]
            want = truth[pname][2 * idx:2 * idx + 2]
            assert np.allclose(got, want, atol=1e-4), (var, pname)


def test_queuing_inactive_constraints_have_zero_sensitivity():
    p = queuing()
    p.solve(derivatives=True, eps=1e-10)
    for pname in ("w_max", "q_max", "lam_min"):
        J = queuing_jacobian_wrt(p, pname)
        assert np.max(np.abs(J)) <= 1e-6, pname


def test_queuing_percent_change_forecast():
    p = queuing()
    p.solve(derivatives=True, eps=1e-10)
    base = {v.name: v.value.copy() for v in p.variables}
    for q in p.parameters:
        q.delta = 0.01 * q.value
    d = p.derivative()
    pred = {k: 100.0 * d[k] / base[k] for k in ("lam", "mu")}

    set_alpha(p, 1.01 * alpha_of(p))
    p.solve(eps=1e-10)
    assert p.status == "optimal"
    true = {k: 100.0 * (named(p)[k].value - base[k]) / base[k]
            for k in ("lam", "mu")}

    # one reference entry sits exactly 0.3 away in exact arithmetic; the
    # epsilon absorbs solver rounding only
    tol = 0.3 + 1e-6
    assert np.max(np.abs(pred["lam"] - [2.3, 1.8])) <= tol
    assert np.max(np.abs(true["lam"] - [2.0, 2.0])) <= tol
    assert np.max(np.abs(pred["mu"] - [1.1, 0.9])) <= tol
    assert np.max(np.abs(true["mu"] - [0.9, 1.1])) <= tol


# ---------------------------------------------------------------------------
# derivative soundness across problem instances


def adjoint_identity_check(p, rng, trials=3, rel=1e-6):
    n_alpha = sum(q.size for q in p.parameters)
    n_x = sum(v.size for v in p.variables)
    for _ in range(trials):
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
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < rel


def test_derivative_soundness_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    instances = [(hello_world(), 1e-6), (queuing(), 1e-7)]
    for k in range(30):
        p = benchmark(n=int(rng.integers(2, 7)),
                      m=int(rng.integers(1, 5)), seed=k)
        instances.append((p, 1e-6))
    for p, h in instances:
        finite_difference_check(p, rng, h=h)
        p.solve(derivatives=True, eps=1e-10)
        adjoint_identity_check(p, rng)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# cone layer


def test_cone_projection_identities():
    dims = {"zero": 2, "nonneg": 3, "exp": 2}
    rng = np.random.default_rng(21)
    for _ in range(200):
        v = rng.uniform(-5.0, 5.0, size=11)
        p = project_cone(v, dims)
        n = project_cone(-v, dims, dual=True)
        assert np.allclose(p - n, v, atol=1e-9)
        assert abs(p @ (p - v)) <= 1e-9 * (1.0 + v @ v)
        assert np.allclose(project_cone(p, dims), p, atol=1e-9)
        d = project_cone(v, dims, dual=True)
        assert np.allclose(project_cone(d, dims, dual=True), d, atol=1e-9)


def test_cone_projection_fixtures_match_bisection_oracle():
    for v, expected in EXP_PROJ_FIXTURES:
        p, _ = project_expcone(np.asarray(v))
        assert np.allclose(p, expected, atol=1e-9)


def test_cone_projection_derivative_accuracy():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 40:
        v = rng.uniform(-3.0, 3.0, size=3)
        J, nonsmooth = dproject_expcone(v)
        if nonsmooth:
            continue
        Jfd = central_jacobian(lambda w: project_expcone(w)[0], v, h=1e-7)
        assert np.max(np.abs(J - Jfd)) <= 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# re-solve caching


def test_resolve_cost_dominated_by_solver(monkeypatch):
    p = benchmark(n=500, m=3, seed=0)
    t0 = time.perf_counter()
    p.solve()
    assert p.status == "optimal"
    first = time.perf_counter() - t0

    # the share is taken in this thread's CPU time: under CPU contention a
    # preemption of 8-10 ms outside the solver exceeds the ~2 ms budget
    # alone, and it is not work of the library
    solve = solver.solve
    solver_cpu = []

    def timed_solve(*args, **kwargs):
        c0 = time.thread_time()
        out = solve(*args, **kwargs)
        solver_cpu.append(time.thread_time() - c0)
        return out

    monkeypatch.setattr(solver, "solve", timed_solve)
    c = named(p, "parameters")["c"]
    c.set_value(1.01 * c.value)
    before = traversal_count()
    t1, cpu1 = time.perf_counter(), time.thread_time()
    p.solve()
    cpu = time.thread_time() - cpu1
    wall = time.perf_counter() - t1
    assert p.status == "optimal"

    assert traversal_count() == before  # no expression re-traversal
    assert 0.0 < p.stats["solver_time"] <= wall
    outside = cpu - solver_cpu[-1]
    assert outside < 0.10 * cpu, (
        f"outside {outside * 1e3:.2f} ms of {cpu * 1e3:.2f} ms CPU "
        f"({wall * 1e3:.2f} ms wall)")
    assert first + wall < 30.0


# ---------------------------------------------------------------------------
# monotone regression fit


@pytest.mark.filterwarnings("ignore::llcp.diff.NonsmoothWarning")
def test_monotone_fit_beats_least_squares_start():
    t0 = time.perf_counter()
    X_tr, Y_tr, X_val, Y_val, _, _ = synthetic_data(30, 8, 5, seed=0)
    result = fit(X_tr, Y_tr, X_val, Y_val, iters=10, step=0.1)
    assert result.final_train_mse < result.initial_train_mse
    for x in X_val:
        y_pred = predict(result.A, result.c, x)
        assert np.all(np.diff(y_pred) >= -1e-7)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# grammar verdicts


def test_grammar_verdicts():
    n = 3
    x = llcp.Variable("x", n)
    c = llcp.Parameter("c", positive=True)
    a = llcp.Parameter("a", n)
    mono = mul(c, *[x[j] ** a[j] for j in range(n)])
    assert curvature(mono).kind == "affine"

    with pytest.raises(PowerRuleError):
        mono ** llcp.Parameter("a_extra")

    cv = llcp.Parameter("cv", 2, positive=True)
    A = llcp.Parameter("A", 2 * n)
    posy = add(*[mul(cv[i], *[x[j] ** A[i * n + j] for j in range(n)])
                 for i in range(2)])
    assert curvature(posy).kind == "convex"
    assert curvature(maximum(posy, mono)).kind == "convex"

    cp = llcp.Parameter("cp", n, positive=True)
    inner = add(*[cp[i] * x[i] for i in range(n)])
    assert curvature(exp(cp * x)).kind == "convex"
    assert curvature(exp(inner)).kind == "convex"
    assert curvature(log(cp * x)).kind == "concave"
    assert curvature(log(inner)).kind == "unknown"
