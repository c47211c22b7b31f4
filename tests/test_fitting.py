"""Sorted-output regression: data, warm start, model, and training."""

import dataclasses
import warnings

import numpy as np
import pytest

from llcp import embedding, problem, solver
from llcp.diff import NonsmoothWarning
from llcp.fitting import (
    fit,
    least_squares_monomials,
    model_problem,
    predict,
    synthetic_data,
)
from llcp.expr import Parameter

from oracles import pava_multiplicative


@pytest.fixture(autouse=True)
def quiet_nonsmooth():
    # pooled (tied) outputs solve at nonsmooth points by design
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonsmoothWarning)
        yield


def monomial_features(A_mat, c_vec, x):
    return c_vec * np.exp(A_mat @ np.log(x))


def test_synthetic_data_is_sorted_positive_and_deterministic():
    X, Y, Xv, Yv, A_star, c_star = synthetic_data(8, 3, 4, seed=5)
    assert X.shape == (8, 3) and Y.shape == (8, 4)
    assert Xv.shape == (4, 3) and Yv.shape == (4, 4)
    assert np.all(X > 0) and np.all(Y > 0)
    for row in np.vstack([Y, Yv]):
        assert np.all(np.diff(row) >= -1e-9)
    X2, Y2, *_ = synthetic_data(8, 3, 4, seed=5)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)


def test_least_squares_recovers_exact_monomial_data():
    rng = np.random.default_rng(11)
    A_true = rng.normal(0.0, 0.4, size=(3, 4))
    c_true = np.exp(rng.normal(size=3))
    X = np.exp(rng.standard_normal((40, 4)))
    Y = np.array([monomial_features(A_true, c_true, x) for x in X])
    A_fit, c_fit = least_squares_monomials(X, Y)
    assert np.allclose(A_fit, A_true, atol=1e-8)
    assert np.allclose(c_fit, c_true, atol=1e-8)


def test_prediction_equals_features_when_already_sorted():
    # ascending features make y = z feasible, and each summand z/y + y/z
    # attains its floor of 2 there, so the model must return z itself
    A_mat = np.array([[0.0], [0.0], [0.0]])
    c_vec = np.array([0.5, 1.0, 2.5])
    yhat = predict(A_mat, c_vec, np.array([1.7]))
    assert np.allclose(yhat, c_vec, atol=1e-6)


def test_prediction_matches_isotonic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(6):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        A_mat = rng.normal(0.0, 0.3, size=(m, n))
        c_vec = np.exp(rng.normal(size=m))
        x = np.exp(rng.standard_normal(n))
        yhat = predict(A_mat, c_vec, x, eps=1e-10)
        expected = pava_multiplicative(monomial_features(A_mat, c_vec, x))
        assert np.allclose(yhat, expected, rtol=1e-6, atol=1e-8)


def test_model_problem_shares_parameter_leaves():
    A = Parameter("A", 4, value=np.zeros(4))
    c = Parameter("c", 2, positive=True, value=[1.0, 2.0])
    p1 = model_problem(np.array([0.5, 2.0]), A, c)
    p2 = model_problem(np.array([3.0, 0.25]), A, c)
    assert set(p1.parameters) == {A, c} == set(p2.parameters)
    # with zero exponents the features equal c, so y* tracks c exactly;
    # one set_value must reach both problems
    for target in ([1.0, 2.0], [2.0, 3.0]):
        c.set_value(target)
        for p in (p1, p2):
            p.solve()
            y = {v.name: v for v in p.variables}["y"]
            assert np.allclose(y.value, target, atol=1e-6)


def test_model_problem_on_a_parameter_input_is_the_layer():
    # the input as a positive parameter: one compiled program whose
    # columns solve as the constant-input programs do, and whose adjoint
    # gives d(loss)/dx, which central differences of re-solves confirm
    rng = np.random.default_rng(8)
    m, n = 3, 2
    A = Parameter("A", m * n, value=rng.normal(0.0, 0.5, m * n))
    c = Parameter("c", m, positive=True, value=np.exp(rng.normal(size=m)))
    x = Parameter("x", n, positive=True)
    X = np.exp(rng.standard_normal((4, n)))
    target = np.exp(rng.standard_normal(m))
    model = model_problem(x, A, c)
    values = model.solve_batch({x: X}, derivatives=True, eps=1e-10)
    assert model.status is None and [col.status for col in model.columns] \
        == ["optimal"] * 4
    variables = {v.name: v for v in model.variables}

    def loss(xk):
        p = model_problem(xk, A, c)
        p.solve(eps=1e-10)
        y = {v.name: v for v in p.variables}["y"].value
        return float(np.sum((y - target) ** 2))

    h = 1e-5
    for k, xk in enumerate(X):
        alone = model_problem(xk, A, c)
        assert alone.solve(eps=1e-10) == pytest.approx(values[k], rel=1e-12)
        y = model.columns[k].values["y"]
        assert np.allclose(y, {v.name: v for v in alone.variables}["y"].value,
                           rtol=1e-12, atol=0.0)
        variables["y"].gradient = 2.0 * (y - target)
        variables["z"].gradient = np.zeros(m)
        grad = model.backward(column=k)["x"]
        assert x.gradient is grad
        fd = [(loss(xk + h * e) - loss(xk - h * e)) / (2 * h)
              for e in np.eye(n)]
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_fit_compiles_one_program():
    from llcp.canon import traversal_count

    X, Y, Xv, Yv, *_ = synthetic_data(8, 3, 3, seed=5)
    before = traversal_count()
    res = fit(X, Y, Xv, Yv, iters=2)
    assert traversal_count() == before + 1
    assert res.solves == 3 * (8 + 4)


def test_batch_exp_cone_work_is_stacked(monkeypatch):
    # one fit(iters=2) on synthetic_data(30, 8, 5): 45 columns per
    # evaluation, whose polish and derivative points take one stacked
    # DPi per Gauss-Newton step and per evaluation with derivatives (the
    # per-column code took 105), and no one-column projection of the
    # exponential cone while more than one column polishes or builds its
    # points
    X, Y, Xv, Yv, *_ = synthetic_data(30, 8, 5)
    phase = []  # the batched phase running, "polish" or "points"
    calls = {"dproject": [], "project": []}
    steps = []

    def recorded(kind, fn):
        def call(v, *args, **kwargs):
            calls[kind].append((np.ndim(v), tuple(phase)))
            return fn(v, *args, **kwargs)
        return call

    def during(name, fn, programs, lazy=False):
        def call(*args):
            if len(programs(args)) < 2:
                return fn(*args)
            phase.append(name)
            try:
                # an iterator's items are made here, within the phase
                return iter(list(fn(*args))) if lazy else fn(*args)
            finally:
                phase.pop()
        return call

    def counted(self, Z, embeddings):
        steps.append(tuple(phase))
        return jacobians(self, Z, embeddings)

    for kind in ("dproject", "project"):
        name = kind + "_cone"
        monkeypatch.setattr(embedding, name,
                            recorded(kind, getattr(embedding, name)))
    jacobians = embedding.Embedding.jacobians
    monkeypatch.setattr(embedding.Embedding, "jacobians", counted)
    monkeypatch.setattr(solver, "_polish", during(
        "polish", solver._polish, lambda args: args[1]))
    monkeypatch.setattr(problem, "linearize", during(
        "points", problem.linearize, lambda args: args[0], lazy=True))
    res = fit(X, Y, Xv, Yv, iters=2)
    assert res.solves == 135
    # every DPi is one stacked call: one per lockstep step of a polish,
    # one per evaluation with derivatives (the last takes no gradient)
    assert all(ndim == 2 for ndim, _ in calls["dproject"])
    assert len(calls["dproject"]) == len(steps)
    assert steps.count(("points",)) == 2
    assert len(steps) == steps.count(("polish",)) + 2 < 105
    # the projections of a polish, one per step, are stacks too
    inside = [ndim for ndim, at in calls["project"] if at]
    assert inside and all(ndim == 2 for ndim in inside)


def test_fit_zero_iterations_is_the_warm_start():
    X, Y, Xv, Yv, *_ = synthetic_data(10, 3, 3, seed=2)
    res = fit(X, Y, Xv, Yv, iters=0)
    A_ls, c_ls = least_squares_monomials(X, Y)
    assert np.array_equal(res.A, A_ls) and np.array_equal(res.c, c_ls)
    assert np.array_equal(res.A, res.A_init)
    assert len(res.history) == 1


def test_fit_reduces_training_loss():
    X, Y, Xv, Yv, *_ = synthetic_data(12, 4, 3, seed=1)
    res = fit(X, Y, Xv, Yv, iters=4)
    assert len(res.history) == 5
    assert res.final_train_mse < res.initial_train_mse
    assert [h["iteration"] for h in res.history] == list(range(5))
    # the returned weights agree with the last history row
    loss = np.mean([np.sum((predict(res.A, res.c, x) - y) ** 2)
                    for x, y in zip(X, Y)])
    assert loss == pytest.approx(res.final_train_mse, rel=1e-5)


def test_fit_predictions_stay_sorted():
    X, Y, Xv, Yv, *_ = synthetic_data(12, 4, 3, seed=4)
    res = fit(X, Y, Xv, Yv, iters=3)
    for x in Xv:
        yhat = predict(res.A, res.c, x)
        assert np.all(np.diff(yhat) >= -1e-7)


def test_failed_sample_is_skipped_and_counted(monkeypatch, caplog):
    X, Y, Xv, Yv, *_ = synthetic_data(6, 3, 3, seed=7)
    from llcp import solver

    original = solver.solve_batch

    def first_fails(*args, **kwargs):
        # the first training sample's column ends without an optimum
        sols = original(*args, **kwargs)
        sols[0] = dataclasses.replace(sols[0], status="max_iters")
        return sols

    monkeypatch.setattr(solver, "solve_batch", first_fails)
    with caplog.at_level("WARNING", logger="llcp.fitting"):
        res = fit(X, Y, Xv, Yv, iters=1)
    assert res.skipped_solves == 2  # once per evaluation pass
    assert any("skipping" in rec.message for rec in caplog.records)


def test_val_predictions_are_the_last_validation_solves():
    X, Y, Xv, Yv, *_ = synthetic_data(8, 3, 3, seed=5)
    res = fit(X, Y, Xv, Yv, iters=2)
    preds = np.array(res.val_predictions)
    assert preds.shape == Yv.shape
    mse = np.mean(np.sum((preds - Yv) ** 2, axis=1))
    assert mse == pytest.approx(res.history[-1]["val_mse"], rel=1e-14)
    # a fresh solve at the returned weights gives the same outputs
    for x, y_hat in zip(Xv, preds):
        assert np.allclose(predict(res.A, res.c, x, eps=1e-10), y_hat,
                           rtol=1e-6)


def test_skipped_validation_solve_has_no_prediction(monkeypatch):
    X, Y, Xv, Yv, *_ = synthetic_data(6, 3, 3, seed=7)
    from llcp import solver

    original = solver.solve_batch

    def last_fails(*args, **kwargs):
        # the last validation sample's column ends without an optimum
        sols = original(*args, **kwargs)
        sols[-1] = dataclasses.replace(sols[-1], status="max_iters")
        return sols

    monkeypatch.setattr(solver, "solve_batch", last_fails)
    res = fit(X, Y, Xv, Yv, iters=1)
    assert res.val_predictions[-1] is None
    assert all(y is not None for y in res.val_predictions[:-1])


def test_bad_sizes_raise_before_any_solve(monkeypatch):
    X, Y, Xv, Yv, *_ = synthetic_data(4, 3, 2, seed=3)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad size")

    monkeypatch.setattr("llcp.solver.solve", no_solve)
    monkeypatch.setattr("llcp.solver.solve_batch", no_solve)
    with pytest.raises(ValueError, match="iters"):
        fit(X, Y, Xv, Yv, iters=-1)
    with pytest.raises(ValueError, match="validation"):
        fit(X, Y, Xv[:0], Yv[:0], iters=0)
    with pytest.raises(ValueError, match="training"):
        fit(X[:0], Y[:0], Xv, Yv, iters=0)
    # N // 2 = 0 validation samples
    with pytest.raises(ValueError, match="n_val=0"):
        synthetic_data(1, 3, 2)


def test_fit_counts_its_solves_and_one_factor(monkeypatch):
    X, Y, Xv, Yv, *_ = synthetic_data(6, 3, 3, seed=2)
    from llcp import solver

    batches = []
    original = solver.solve_batch

    def recorded(*args, **kwargs):
        sols = original(*args, **kwargs)
        batches.append([s.iterations for s in sols])
        return sols

    monkeypatch.setattr(solver, "solve_batch", recorded)
    res = fit(X, Y, Xv, Yv, iters=2)
    # three evaluations of the weights, each solving every sample
    assert res.solves == 3 * (6 + 3)
    # the cold first evaluation runs ADMM on every sample; after it the
    # training samples step from their derivative points and end at
    # iteration 0, and the validation samples, which have none, run ADMM
    # from their warm starts
    assert batches == [[50] * 9] + [[0] * 6 + [25] * 3] * 2
    assert res.iterations == 600
    # all samples share one cone matrix, factored once at the one scale
    assert res.factorizations == 1


def test_exact_fit_stops_at_the_warm_start():
    # four samples, three features and an intercept: the least-squares
    # start fits the training set exactly, to roundoff, so no descent
    # step is taken
    X, Y, Xv, Yv, *_ = synthetic_data(4, 3, 2, seed=3)
    res = fit(X, Y, Xv, Yv, iters=2)
    assert res.initial_train_mse <= 1e-20
    assert len(res.history) == 1 and res.solves == 4 + 2
    assert np.array_equal(res.A, res.A_init)
    assert np.array_equal(res.c, res.c_init)
    assert len(res.val_predictions) == 2
    # a dataset the model family does not fit runs every iteration
    X, Y, Xv, Yv, *_ = synthetic_data(6, 3, 2, seed=3)
    assert len(fit(X, Y, Xv, Yv, iters=2).history) == 3
