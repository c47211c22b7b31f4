"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

Tiny sizes of every workload run untraced and traced; the tests check that
each metric of BENCHMARK.json is emitted with its unit, that every wrapped
layer a workload must use recorded calls, that the inputs depend on the
seed alone, and that the checks reject wrong answers.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import llcp  # noqa: E402
from llcp import examples  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gp_cold": {"ladder": (20,)},
    "gp_sweep": {"n": 20},
    "fit": {"size": {"N": 4, "n": 3, "m": 2}, "iters": 1},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.fixture(autouse=True)
def _no_nonsmooth_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", llcp.NonsmoothWarning)
        yield


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_emits_end_to_end_metrics(name):
    result, metrics, units, _ = run.run_untraced(
        workloads, name, 1, 0.5, 0.1, **TINY[name])
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert units == _units("end_to_end")
    assert set(metrics) == set(units)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_covers_every_layer(name):
    result, metrics, units, tracer = run.run_traced(
        workloads, name, 1, 0.5, **TINY[name])
    assert result.failed == 0, result.failures
    assert tracer.missing(name) == []
    assert units == _units("per_layer")
    assert set(metrics) == set(units)
    prefixes = {n.split(".")[0] for n in tracer.names}
    assert {"expr", "canon", "compiler", "solver", "cones",
            "problem", "scipy"} <= prefixes
    # the tracer restores every binding it replaced
    assert llcp.solver.project_cone is llcp.cones.project_cone
    assert not hasattr(llcp.problem.Problem.solve, "__wrapped__")


def test_missing_layer_is_an_error(monkeypatch):
    monkeypatch.setitem(spans.REQUIRED, "gp_cold",
                        spans.REQUIRED["gp_cold"] + ("diff.dphi",))
    with pytest.raises(run.BenchError, match="diff.dphi"):
        run.run_traced(workloads, "gp_cold", 1, 0.5, **TINY["gp_cold"])


def test_instances_are_the_library_benchmark():
    data = instances.gp_data(7, 3, seed=4)
    params = {p.name: p.value for p in examples.benchmark(7, 3, 4).parameters}
    np.testing.assert_array_equal(params["A"], data["A"].ravel())
    for key in ("c", "l", "u"):
        np.testing.assert_array_equal(params[key], data[key])


def test_inputs_depend_only_on_the_seed():
    base = instances.gp_data(30)

    def drawn(seed):
        (rng,) = instances.streams(seed, 1)
        return instances.relabel_gp(base, rng)

    a, b, c = drawn(5), drawn(5), drawn(6)
    for key in ("A", "c", "l", "u", "order"):
        np.testing.assert_array_equal(a[key], b[key])
    assert not np.array_equal(a["A"], c["A"])
    # a relabelling leaves the optimum where it was
    problem, _, x = instances.build_gp(a)
    value = problem.solve()
    reference = checks.dual_log_optimum(base)
    assert checks.gp_feasible(a, x.value)
    assert checks.gp_optimal(value, reference)
    assert checks.dual_log_optimum(a) == pytest.approx(reference, rel=1e-10)


def test_checks_reject_wrong_answers():
    data = instances.gp_data(10)
    problem, _, x = instances.build_gp(data)
    value = problem.solve()
    reference = checks.dual_log_optimum(data)
    assert checks.gp_feasible(data, x.value)
    assert checks.gp_optimal(value, reference)
    assert not checks.gp_optimal(value * 1.001, reference)
    assert not checks.gp_feasible(data, data["u"] * 1.01)
    g, d = {"x": np.ones(2)}, {"a": np.ones(3)}
    assert checks.adjoint_identity(g, g, d, {"a": np.full(3, 2.0 / 3.0)})
    assert not checks.adjoint_identity(g, g, d, {"a": np.ones(3)})
    assert checks.fd_agrees(checks.fd_slope(np.exp, 1e-4), 1.0)
    assert not checks.fd_agrees(checks.fd_slope(np.exp, 1e-4), 1.001)
    # a zero derivative where the second derivative jumps
    kink = checks.fd_slope(lambda t: t * t * (2.0 if t > 0 else 1.0), 1e-4)
    assert checks.fd_agrees(kink, 0.0)
    assert not checks.fd_agrees(kink, 1e-6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gp_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
