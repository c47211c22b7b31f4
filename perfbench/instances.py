"""Seeded inputs for the llcp benchmark workloads.

Each workload solves a fixed mathematical instance: the ``examples.benchmark``
geometric programs at generator seed 0, and the ``fitting.synthetic_data``
set at seed 0.  Across generator seeds the ADMM iteration count of one rung
swings by more than 10x (1,700 to 23,275 at n=200), which would swamp any
bound a later change is judged by.  The run's ``--seed`` therefore draws a
relabelling of the instance instead: the order of the variables, of the
posynomial terms, of the training samples and of the input features, plus
the parameter path and the derivative directions of the sweep.  Every input
byte the program receives changes with the seed; the work it represents
does not.
"""

from __future__ import annotations

import numpy as np

import llcp

LADDER = (250, 500)      # n of the cold ladder rungs
TERMS = 3                # m, posynomial terms of every ladder instance
SWEEP_N = 500            # n of the swept instance
INSTANCE_SEED = 0        # generator seed of every instance (library default)
FIT_SIZE = {"N": 30, "n": 8, "m": 5}
FIT_ITERS = 2


def streams(seed: int, count: int):
    """Independent generators derived from the run seed."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(count)]


def gp_data(n: int, m: int = TERMS, seed: int = INSTANCE_SEED) -> dict:
    """The numbers ``llcp.examples.benchmark(n, m, seed)`` puts in its
    parameters, drawn in the same order from the same generator."""
    rng = np.random.default_rng(seed)
    exponents = rng.normal(0.0, 0.1, size=(m, n))
    x0 = np.exp(rng.normal(0.0, 1.0, size=n))
    lo = x0 * np.exp(-rng.uniform(0.5, 1.5, size=n))
    hi = x0 * np.exp(rng.uniform(0.5, 1.5, size=n))
    monomials = np.exp(exponents @ np.log(x0))
    coeffs = rng.uniform(0.2, 0.8, size=m) / (m * monomials)
    return {"A": exponents, "c": coeffs, "l": lo, "u": hi,
            "order": np.arange(m)}


def relabel_gp(data: dict, rng) -> dict:
    """The same program with its variables and posynomial terms reordered.

    Row 0 of ``A`` stays the objective monomial; ``order`` is the order in
    which the terms are summed in the posynomial constraint."""
    m, n = data["A"].shape
    perm = rng.permutation(n)
    return {"A": data["A"][:, perm], "c": data["c"], "l": data["l"][perm],
            "u": data["u"][perm], "order": rng.permutation(m)}


def build_gp(data: dict):
    """Model a ladder instance with llcp's expression API.

    Returns (problem, {parameter name: Parameter}, x)."""
    m, n = data["A"].shape
    x = llcp.Variable("x", n)
    A = llcp.Parameter("A", m * n, value=data["A"].ravel())
    c = llcp.Parameter("c", m, positive=True, value=data["c"])
    l = llcp.Parameter("l", n, positive=True, value=data["l"])
    u = llcp.Parameter("u", n, positive=True, value=data["u"])

    def monomial(i):
        factors = [x[j] ** A[i * n + j] for j in range(n)]
        return factors[0] if n == 1 else llcp.mul(*factors)

    terms = [c[i] * monomial(i) for i in data["order"]]
    posynomial = terms[0]
    for t in terms[1:]:
        posynomial = posynomial + t
    problem = llcp.Problem(llcp.Minimize(monomial(0)),
                           [posynomial <= llcp.one(), l <= x, x <= u])
    return problem, {"A": A, "c": c, "l": l, "u": u}, x


def relabel_fit(data, rng):
    """Reorder training samples, validation samples and input features.

    Output coordinates keep their order: the model's outputs are sorted."""
    X_train, Y_train, X_val, Y_val = data[:4]
    feat = rng.permutation(X_train.shape[1])
    tr = rng.permutation(X_train.shape[0])
    va = rng.permutation(X_val.shape[0])
    return (X_train[tr][:, feat], Y_train[tr], X_val[va][:, feat], Y_val[va])
