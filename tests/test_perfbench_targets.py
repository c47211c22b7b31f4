"""The benchmark's tracer must find every llcp function it wraps.

``perfbench/spans.py`` wraps functions and methods by name; renaming or
removing one of them would otherwise surface only as a ``KeyError`` when
the benchmark runs.  It also wraps them at their bindings, so a call that
moves out of their reach would surface only as a missing layer.
"""

import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

from llcp import examples, fitting
from llcp.diff import NonsmoothWarning

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target():
    spans = _load_spans()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, attr, name, _), original in zip(spans.TARGETS,
                                                     originals):
            assert owner.__dict__[attr] is not original, name
    finally:
        tracer.uninstall()
    for (owner, attr, name, _), original in zip(spans.TARGETS, originals):
        assert owner.__dict__[attr] is original, name


def _gp_cold():
    # the workload's smallest rung: the accelerated solves of rungs below
    # about n=200 meet eps before the polish takes a Gauss-Newton step, so
    # they make no LSQR call
    assert examples.benchmark(n=250).solve() is not None


def _gp_sweep():
    problem = examples.benchmark(n=60)
    problem.solve()
    params = {p.name: p for p in problem.parameters}
    for _ in range(2):
        params["c"].set_value(1.01 * params["c"].value)
        for p in problem.parameters:
            p.delta = np.ones(p.size)
        assert problem.solve(derivatives=True) is not None
        problem.derivative()
        problem.backward()


def _fit():
    # through the module, whose bindings the tracer wraps; tied outputs
    # solve at nonsmooth points by design
    X, Y, X_val, Y_val, _, _ = fitting.synthetic_data(4, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonsmoothWarning)
        fitting.fit(X, Y, X_val, Y_val, iters=1)


@pytest.mark.parametrize("workload,run", [
    ("gp_cold", _gp_cold), ("gp_sweep", _gp_sweep), ("fit", _fit)],
    ids=["gp_cold", "gp_sweep", "fit"])
def test_tracer_sees_every_sweep_layer(workload, run):
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        run()
        assert tracer.missing(workload) == []
    finally:
        tracer.uninstall()
