"""The three benchmark workloads.

Each workload function takes a ``Run`` that collects timings, counts and
check outcomes, the run seed, and a budget: ``seconds`` of measured work or
an exact number of work ``units`` (the traced run repeats the unit count of
its untraced phase).  Work units start while the budget lasts, so a run
overshoots by at most one unit.  Set-up is repeated ``setups`` times and
its median reported.  Inputs are generated before each timed region;
correctness checks run after it.
"""

from __future__ import annotations

import time
import traceback

import numpy as np

import llcp
from llcp import fitting

import checks
from instances import (FIT_ITERS, FIT_SIZE, INSTANCE_SEED, LADDER, SWEEP_N,
                       build_gp, gp_data, relabel_fit, relabel_gp, streams)

SETUPS = 3
SWEEP_DECAY = 0.9         # AR(1) log-scale path: about 1% moves per step,
SWEEP_STEP = 0.01         # a few percent from the base instance at most
FD_H = 1e-4
FD_EPS = 1e-10
FIT_FD_SAMPLES = 4


class Run:
    """What one workload run measured and checked."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.record = {}
        self.units = 0
        self.timed_s = 0.0

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def crash(self, what, count=1):
        """An operation raised: count it failed and keep the traceback."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def _more(run, start, seconds, units):
    if units is not None:
        return run.units < units
    return run.units == 0 or time.perf_counter() - start < seconds


def _timed(run, name, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    run.timed_s += dt
    run.sample(name, dt)
    return out, dt


# -- gp_cold ---------------------------------------------------------------

def gp_cold(run, seed, seconds=None, units=None, setups=SETUPS,
            ladder=LADDER, fd=True):
    """Build, grammar-check, compile and solve each ladder rung from nothing.

    A unit is one pass over the ladder.  Set-up is instance generation (the
    caller adds the import time).  There is no derivative, so ``fd`` is
    unused."""
    (rng,) = streams(seed, 1)
    for _ in range(setups):
        bases, _ = _timed(run, "setup_s",
                          lambda: {n: gp_data(n) for n in ladder})
    # a relabelling leaves the optimum where it was
    refs = {n: checks.dual_log_optimum(bases[n]) for n in ladder}
    run.record["cold_solves"] = cold = []
    start = time.perf_counter()
    while _more(run, start, seconds, units):
        pass_s = 0.0
        for n in ladder:
            data = relabel_gp(bases[n], rng)
            t0 = time.perf_counter()
            try:
                problem, _, x = build_gp(data)
                value = problem.solve()
            except Exception:
                run.crash(f"cold solve n={n}")
                continue
            dt = time.perf_counter() - t0
            run.timed_s += dt
            pass_s += dt
            run.sample(f"cold_s.n{n}", dt)
            cold.append({"n": n, "pass": run.units, "status": problem.status,
                         "iterations": problem.solution.iterations,
                         "seconds": dt})
            ok = (problem.status == "optimal"
                  and checks.gp_feasible(data, x.value)
                  and checks.gp_optimal(value, refs[n]))
            run.check(ok, f"cold solve n={n}: status {problem.status}, "
                          f"value {value}")
        run.sample("task_s", pass_s)
        run.units += 1


# -- gp_sweep --------------------------------------------------------------

def _set(params, values):
    for name, value in values.items():
        params[name].set_value(value)


def _sweep_fd_check(run, problem, params, x, rng):
    """derivative() against finite differences of re-solves."""
    c0 = params["c"].value.copy()
    u0 = params["u"].value.copy()
    dc = c0 * rng.standard_normal(c0.size)
    du = u0 * rng.standard_normal(u0.size)

    def x_at(t):
        _set(params, {"c": c0 + t * dc, "u": u0 + t * du})
        if problem.solve(eps=FD_EPS) is None:
            raise RuntimeError(f"check solve ended {problem.status}")
        return x.value.copy()

    try:
        problem.solve(derivatives=True, eps=FD_EPS)
        for name, p in params.items():
            p.delta = {"c": dc, "u": du}.get(name, np.zeros(p.size))
        analytic = problem.derivative()["x"]
        run.check(checks.fd_agrees(checks.fd_slope(x_at, FD_H), analytic),
                  "sweep derivative disagrees with finite differences")
    except Exception:
        run.crash("sweep finite-difference check")
    finally:
        _set(params, {"c": c0, "u": u0})


def gp_sweep(run, seed, seconds=None, units=None, setups=SETUPS, n=SWEEP_N,
             fd=True):
    """Warm re-solves with derivatives along a seeded parameter path.

    Set-up is building the model plus its first (cold) solve.  A unit is
    one step: solve(derivatives=True), then derivative() and backward()."""
    rng_label, rng_path, rng_dir, rng_fd = streams(seed, 4)
    data = relabel_gp(gp_data(n), rng_label)
    for _ in range(setups):
        def setup():
            built = build_gp(data)
            built[0].solve(derivatives=True)
            return built
        try:
            (problem, params, x), _ = _timed(run, "setup_s", setup)
        except Exception:
            run.crash("sweep set-up")
            return
        run.check(problem.status == "optimal",
                  f"sweep set-up solve: {problem.status}")
    run.record["setup_iterations"] = problem.solution.iterations
    run.record["step_iterations"] = iters = []
    c0, u0 = data["c"], data["u"]
    log_c = np.zeros(c0.size)
    log_u = np.zeros(u0.size)
    start = time.perf_counter()
    while _more(run, start, seconds, units):
        run.units += 1
        log_c = SWEEP_DECAY * log_c + SWEEP_STEP * rng_path.standard_normal(
            c0.size)
        log_u = SWEEP_DECAY * log_u + SWEEP_STEP * rng_path.standard_normal(
            u0.size)
        deltas = {k: rng_dir.standard_normal(p.size)
                  for k, p in params.items()}
        grad = rng_dir.standard_normal(x.size)
        c, u = c0 * np.exp(log_c), u0 * np.exp(log_u)
        _set(params, {"c": c, "u": u})
        for k, p in params.items():
            p.delta = deltas[k]
        x.gradient = grad
        try:
            t0 = time.perf_counter()
            value = problem.solve(derivatives=True)
            t1 = time.perf_counter()
            if value is None:
                run.check(False, f"sweep step: {problem.status}")
                continue
            forward = problem.derivative()
            backward = problem.backward()
            t2 = time.perf_counter()
        except Exception:
            run.crash("sweep step")
            continue
        run.timed_s += t2 - t0
        run.sample("resolve_ms", 1e3 * (t1 - t0))
        run.sample("deriv_ms", 1e3 * (t2 - t1))
        run.sample("task_s", t2 - t0)
        iters.append(problem.solution.iterations)
        step_data = dict(data, c=c, u=u)
        run.check(checks.gp_feasible(step_data, x.value)
                  and checks.adjoint_identity(forward, {"x": grad}, deltas,
                                              backward),
                  "sweep step: infeasible point or adjoint identity fails")
    if fd:
        _sweep_fd_check(run, problem, params, x, rng_fd)


# -- fit -------------------------------------------------------------------

def _fit_fd_check(run, result, X, Y, rng):
    """The training-loss gradient through backward() against finite
    differences of re-solves, on a few training samples."""
    m, n = result.A.shape
    A = llcp.Parameter("A", m * n, value=result.A.ravel())
    c = llcp.Parameter("c", m, positive=True, value=result.c)
    problems = [fitting.model_problem(xk, A, c) for xk in X]

    def loss(grad):
        total, gA, gc = 0.0, np.zeros(m * n), np.zeros(m)
        for problem, yk in zip(problems, Y):
            if problem.solve(derivatives=grad, eps=FD_EPS) is None:
                raise RuntimeError(f"check solve ended {problem.status}")
            var = {v.name: v for v in problem.variables}
            r = var["y"].value - yk
            total += float(r @ r)
            if grad:
                var["y"].gradient = r
                var["z"].gradient = np.zeros(m)
                g = problem.backward()
                gA += g["A"]
                gc += g["c"]
        return total / len(Y), 2.0 * gA / len(Y), 2.0 * gc / len(Y)

    def loss_at(t):
        A.set_value(result.A.ravel() + t * dA)
        c.set_value(result.c + t * dc)
        return loss(False)[0]

    try:
        _, gA, gc = loss(True)
        dA = rng.standard_normal(m * n)
        dc = result.c * rng.standard_normal(m)
        ok = checks.fd_agrees(checks.fd_slope(loss_at, FD_H),
                              gA @ dA + gc @ dc)
        run.check(ok, "fit gradient disagrees with finite differences")
    except Exception:
        run.crash("fit finite-difference check")


def fit(run, seed, seconds=None, units=None, setups=SETUPS, size=None,
        iters=FIT_ITERS, fd=True):
    """Projected gradient descent through the solver.

    Set-up is ``fitting.synthetic_data``; a unit is one ``fitting.fit``
    call, which builds and compiles its per-sample problems afresh."""
    size = dict(FIT_SIZE if size is None else size)
    rng_label, rng_fd = streams(seed, 2)
    for _ in range(setups):
        data, _ = _timed(run, "setup_s", lambda: fitting.synthetic_data(
            size["N"], size["n"], size["m"], seed=INSTANCE_SEED))
    X, Y, X_val, Y_val = relabel_fit(data, rng_label)
    solves = (iters + 1) * (len(X) + len(X_val))
    run.record["fit_history"] = history = []
    start = time.perf_counter()
    result = None
    while _more(run, start, seconds, units):
        run.units += 1
        try:
            result, _ = _timed(run, "task_s", lambda: fitting.fit(
                X, Y, X_val, Y_val, iters=iters))
        except Exception:
            run.crash("fit call", count=solves)
            continue
        history.append(result.history)
        run.attempted += solves
        run.failed += result.skipped_solves
        if result.skipped_solves:
            run.failures.append(f"fit skipped {result.skipped_solves} solves")
        run.check(result.final_train_mse <= result.initial_train_mse,
                  "fit: final train MSE above the initial one")
    if fd and result is not None:
        _fit_fd_check(run, result, X[:FIT_FD_SAMPLES], Y[:FIT_FD_SAMPLES],
                      rng_fd)


WORKLOADS = {"gp_cold": gp_cold, "gp_sweep": gp_sweep, "fit": fit}
