"""Solve the 800 planted infeasible and unbounded programs of the
certificate bed and print, per construction, the statuses and the totals
of iterations and of accepted and rejected extrapolations.

    PYTHONPATH=src python tools/certificate_bed.py [OUT.json]

With OUT.json, each program's (status, iterations, accelerations,
rejections) is written there, to compare two trees program by program.
The bed takes about 150,000 ADMM iterations, so tier-1 does not run it;
CI runs it as a step of its own and checks the statuses in OUT.json.

Four constructions of 200 programs each, at max_iters 5,000:
- infeasible, seeds 1000-1199: a planted program with the rows
  a'x <= a'x* and a'x >= a'x* + gap added (the recipe of
  tests/test_solver.py::test_extrapolation_leaves_tau_minus_kappa_alone);
- unbounded, seeds 1000-1199: the same draws, then one more variable whose
  column loosens the nonnegative rows, with cost -1;
- separated, seeds 0-199: separated_program(seed) of tests/oracles.py
  with lo = beta + 1;
- loosened, seeds 0-199: loosened_program(seed) of tests/oracles.py with
  cost -1 on t.
"""

import json
import os
import sys
from collections import Counter

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from oracles import (loosened_program, planted_cone_program,  # noqa: E402
                     separated_program)

from llcp.solver import solve  # noqa: E402

MAX_ITERS = 5000


def _planted(seed):
    rng = np.random.default_rng(seed)
    n, nl, ne = (int(rng.integers(lo, hi)) for lo, hi in ((3, 10), (2, 8),
                                                           (1, 4)))
    A, b, c, dims, x, _, _ = planted_cone_program(rng, n, 0, nl, ne)
    a = rng.normal(size=n)
    gap = float(rng.choice([1.0, 0.1, 1e-2]))
    return rng, A, b, c, dims, nl, x, a, gap


def infeasible(seed):
    _, A, b, c, dims, nl, x, a, gap = _planted(seed)
    beta = float(a @ x)
    A = sp.csc_matrix(np.vstack([A[:nl], a, -a, A[nl:]]))
    b = np.concatenate([b[:nl], [beta, -beta - gap], b[nl:]])
    return A, b, c, dict(dims, nonneg=nl + 2)


def unbounded(seed):
    rng, A, b, c, dims, nl, *_ = _planted(seed)
    col = np.zeros(A.shape[0])
    col[:nl] = -np.abs(rng.normal(size=nl))
    return (sp.csc_matrix(np.column_stack([A, col])), b,
            np.concatenate([c, [-1.0]]), dims)


def separated(seed):
    A, b_of, c, dims, beta = separated_program(seed)
    return A, b_of(beta + 1.0), c, dims


def loosened(seed):
    A, b, c_of, dims = loosened_program(seed)
    return A, b, c_of(-1.0), dims


BED = (("infeasible", infeasible, range(1000, 1200)),
       ("unbounded", unbounded, range(1000, 1200)),
       ("separated", separated, range(200)),
       ("loosened", loosened, range(200)))


def main(out=None):
    results = {}
    for name, make, seeds in BED:
        rows = []
        for seed in seeds:
            sol = solve(*make(seed), max_iters=MAX_ITERS)
            rows.append((sol.status, sol.iterations, sol.accelerations,
                         sol.rejections))
        results[name] = rows
        print(name, dict(Counter(r[0] for r in rows)),
              "iterations", sum(r[1] for r in rows),
              "accepted", sum(r[2] for r in rows),
              "rejected", sum(r[3] for r in rows))
    if out:
        with open(out, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main(*sys.argv[1:2])
