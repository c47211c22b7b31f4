"""llcp benchmark entry point.

    python3 perfbench/run.py --workload gp_cold --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; llcp is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the workload
runs once untraced and once traced on the same inputs and the object holds
the per-layer metrics.  The line before it is the run record (machine,
versions, per-solve iterations and statuses, sample counts, failures); the
record, and the spans of a traced run, are also written under
``perfbench/runs/``.  Exit status 0 means the run completed; a failed
correctness check shows as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "runs")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "us_per_iter": "us"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def percentile_summary(values):
    """Median plus the highest of p99/p95/p90/p75 with at least ten samples
    beyond it."""
    values = sorted(values)
    out = {"count": len(values), "p50": statistics.median(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ[k] for k in THREAD_VARS},
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_untraced(workloads, name, seed, seconds, import_s, **sizes):
    run = workloads.Run()
    workloads.WORKLOADS[name](run, seed, seconds=seconds, **sizes)
    setup = statistics.median(run.samples["setup_s"])
    if name == "gp_cold":
        setup += import_s
    metrics = {"setup_s": setup,
               "task_s": statistics.median(run.samples["task_s"]),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return run, metrics, dict(END_TO_END), None


def run_traced(workloads, name, seed, seconds, **sizes):
    """The workload untraced for half the seconds, then traced for the same
    units of work on the same inputs; per-layer metrics from the spans."""
    from llcp import canon
    from spans import Tracer
    fn = workloads.WORKLOADS[name]
    plain = workloads.Run()
    fn(plain, seed, seconds=seconds / 2.0, setups=1, **sizes)
    traced = workloads.Run()
    tracer = Tracer()
    tracer.install()
    traversals = canon.traversal_count()
    try:
        fn(traced, seed, units=plain.units, setups=1, fd=False, **sizes)
    finally:
        tracer.uninstall()
    traversals = canon.traversal_count() - traversals
    missing = tracer.missing(name)
    if missing:
        raise BenchError(f"wrapped functions recorded no call on {name}: "
                         f"{', '.join(missing)}")
    metrics = tracer.metrics(traced.timed_s, plain.timed_s, traversals)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.failures += traced.failures
    plain.record["traced"] = traced.record
    return plain, metrics, {k: per_layer_unit(k) for k in metrics}, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gp_cold", "gp_sweep", "fit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "llcp", "__init__.py")):
        raise BenchError(f"no llcp sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import llcp
    import_s = time.perf_counter() - t0
    if not os.path.abspath(llcp.__file__).startswith(SRC + os.sep):
        raise BenchError(f"llcp imported from {llcp.__file__}, not {SRC}")

    # counted by the traced run as diff.nonsmooth
    warnings.simplefilter("ignore", llcp.NonsmoothWarning)
    import workloads

    t_run = time.perf_counter()
    if args.trace:
        run, metrics, units, tracer = run_traced(
            workloads, args.workload, args.seed, args.seconds)
    else:
        run, metrics, units, tracer = run_untraced(
            workloads, args.workload, args.seed, args.seconds, import_s)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "run_wall_s": time.perf_counter() - t_run, "import_s": import_s,
        "machine": machine_record(),
        "metrics": {k: {"value": v, "unit": units[k], "better": "lower"}
                    for k, v in metrics.items()},
        "samples": {k: percentile_summary(v)
                    for k, v in run.samples.items()},
        "units_of_work": run.units,
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        **run.record,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
