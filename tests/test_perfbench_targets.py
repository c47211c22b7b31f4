"""The benchmark's tracer must find every llcp function it wraps.

``perfbench/spans.py`` wraps functions and methods by name; renaming or
removing one of them would otherwise surface only as a ``KeyError`` when
the benchmark runs.  It also wraps them at their bindings, so a call that
moves out of their reach would surface only as a missing layer.
"""

import importlib.util
import pathlib

import numpy as np

from llcp import examples

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


def test_tracer_sees_every_sweep_layer():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
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
        assert tracer.missing("gp_sweep") == []
    finally:
        tracer.uninstall()
