"""Lowering to the log-space convex program and the parameter map."""

import math

import numpy as np
import pytest

import llcp
from llcp.canon import CanonMap, canonicalize, lin_eval, traversal_count
from llcp import examples
from llcp.probfile import parse_problem, serialize_problem
from llcp.expr import (
    DomainError,
    add,
    diff_pos,
    exp,
    log,
    maximum,
    minimum,
    mul,
    parameters_of,
    variables_of,
)

from oracles import brute_force_llcp, central_jacobian, solve_ir_scipy


def make_hello():
    x, y, z = (llcp.Variable(n) for n in "xyz")
    a = llcp.Parameter("a", positive=True, value=2.0)
    b = llcp.Parameter("b", positive=True, value=1.0)
    c = llcp.Parameter("c", value=0.5)
    objective = 1.0 / (x * y * z)
    constraints = [a * (x * y + x * z + y * z) <= b, y ** c <= x]
    return objective, constraints, [x, y, z], [a, b, c]


def canon_hello():
    objective, constraints, variables, params = make_hello()
    return canonicalize("minimize", objective, constraints, variables, params)


# ---------------------------------------------------------------------------
# structure


def test_hello_world_structure():
    prob, cmap = canon_hello()
    assert prob.n_x == 3
    # a single auxiliary bounds the posynomial inside the product
    assert prob.n_vars == 4
    kinds = [c.kind for c in prob.constraints]
    assert kinds == ["lse", "nonneg", "nonneg"]
    assert [len(c.args) for c in prob.constraints] == [3, 1, 1]
    # beta: log(b) from the bound, log(a) from the product, passthrough c
    tags = [(p.name, tag) for (p, _, tag) in cmap.entries]
    assert sorted(tags) == [("a", "log"), ("b", "log"), ("c", "passthrough")]
    assert {tag for (_, _, tag) in cmap.entries} == {"log", "passthrough"}


def test_affine_objective_lowers_without_aux():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    prob, _ = canonicalize("minimize", x * y ** -2.0, [x * y >= 1.0],
                           [x, y], [])
    assert prob.n_vars == 2
    assert prob.objective and all(b is None for b, _, _ in prob.objective)
    assert [c.kind for c in prob.constraints] == ["nonneg"]


def test_maximize_flips_sign():
    x = llcp.Variable("x")
    prob, _ = canonicalize("maximize", x, [x <= 2.0], [x], [])
    assert prob.objective == [(None, 0, -1.0)]


def test_equality_becomes_zero_row():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    prob, _ = canonicalize("minimize", x, [x * y == 3.0], [x, y], [])
    assert [c.kind for c in prob.constraints] == ["zero"]


def test_maximum_lowers_argwise_without_aux():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    obj = maximum(x * y, x ** 2.0, y)
    prob, _ = canonicalize("minimize", obj, [x >= 1.0, y >= 1.0], [x, y], [])
    # one epigraph variable for the objective, none for the max arguments
    assert prob.n_vars == 3
    assert [c.kind for c in prob.constraints] == ["nonneg"] * 5


def test_vector_constraints_scalarize():
    x = llcp.Variable("x", 3)
    c = llcp.Parameter("c", 3, positive=True, value=[1.0, 2.0, 3.0])
    prob, cmap = canonicalize("minimize", add(x[0], x[1], x[2]),
                              [c * x <= 1.0, x >= 0.1], [x], [c])
    nonneg = [c_ for c_ in prob.constraints if c_.kind == "nonneg"]
    assert len(nonneg) == 6
    assert cmap.n_beta == 3


def test_parameter_reused_once_per_role():
    x = llcp.Variable("x")
    c = llcp.Parameter("c", positive=True, value=2.0)
    # c appears twice multiplicatively and once as an exponent
    prob, cmap = canonicalize("minimize", c * x + c * x ** 2.0,
                              [x ** c >= 1.0], [x], [c])
    tags = sorted(tag for (_, _, tag) in cmap.entries)
    assert tags == ["log", "passthrough"]


def test_traversal_counter_increments():
    before = traversal_count()
    canon_hello()
    assert traversal_count() == before + 1


def test_deterministic_structure():
    p1, m1 = canon_hello()
    p2, m2 = canon_hello()
    assert p1.n_vars == p2.n_vars
    assert p1.objective == p2.objective
    assert len(p1.constraints) == len(p2.constraints)
    for a, b in zip(p1.constraints, p2.constraints):
        assert a.kind == b.kind and a.args == b.args and a.rhs == b.rhs
    assert [(p.name, j, t) for p, j, t in m1.entries] == \
        [(p.name, j, t) for p, j, t in m2.entries]


@pytest.mark.parametrize("make", [examples.hello_world, examples.queuing,
                                  lambda: examples.benchmark(n=250)],
                         ids=["hello", "queuing", "n250"])
def test_probfile_round_trip_compiles_bitwise_equal(make):
    # the parsed program's nodes are built anew, each with its own held
    # verdict, and lower to the same cone data bit for bit
    compiled = []
    for problem in (make(), parse_problem(serialize_problem(make()))):
        _, cmap, pmap = problem._ensure_compiled()
        A, b, c = pmap.instantiate(cmap.eval_C(cmap.pack_alpha()))
        compiled.append((A.shape, A.indptr.tobytes(), A.indices.tobytes(),
                         A.data.tobytes(), b.tobytes(), c.tobytes(),
                         sorted(pmap.dims.items()),
                         [(p.name, j, tag) for p, j, tag in cmap.entries],
                         {i: (p.name, j) for i, (p, j) in cmap.bases.items()}))
    assert compiled[0] == compiled[1]


# ---------------------------------------------------------------------------
# the parameter map


def test_eval_C_values():
    _, cmap = canon_hello()
    alpha = cmap.pack_alpha()
    assert np.allclose(alpha, [2.0, 1.0, 0.5])
    beta = cmap.eval_C(alpha)
    expected = {"a": np.log(2.0), "b": 0.0, "c": 0.5}
    for i, (p, _, tag) in enumerate(cmap.entries):
        assert beta[i] == pytest.approx(expected[p.name], abs=1e-15)


def test_eval_C_rejects_nonpositive_log_source():
    _, cmap = canon_hello()
    with pytest.raises(DomainError):
        cmap.eval_C(np.array([2.0, -1.0, 0.5]))


def _loop_C(cmap, alpha):
    """Per-entry reference for eval_C, apply_DC and apply_DC_adjoint."""
    beta = np.empty(cmap.n_beta)
    for i, (p, j, tag) in enumerate(cmap.entries):
        a = alpha[cmap.offsets[id(p)] + j]
        beta[i] = math.log(a) if tag == "log" else a
    return beta


def _loop_DC(cmap, alpha, dalpha):
    dbeta = np.empty(cmap.n_beta)
    for i, (p, j, tag) in enumerate(cmap.entries):
        k = cmap.offsets[id(p)] + j
        dbeta[i] = dalpha[k] / alpha[k] if tag == "log" else dalpha[k]
    return dbeta


def _loop_DC_adjoint(cmap, alpha, dbeta):
    dalpha = np.zeros(cmap.n_alpha)
    for i, (p, j, tag) in enumerate(cmap.entries):
        k = cmap.offsets[id(p)] + j
        dalpha[k] += dbeta[i] / alpha[k] if tag == "log" else dbeta[i]
    return dalpha


def test_parameter_map_matches_per_entry_loop():
    # p is a factor and an exponent, so one alpha entry feeds two betas
    x = llcp.Variable("x", 3)
    p = llcp.Parameter("p", positive=True, value=1.7)
    w = llcp.Parameter("w", 3, positive=True, value=[0.3, 2.0, 5.5])
    e = llcp.Parameter("e", 2, value=[-0.4, 1.25])
    objective = add(p * x[0] ** p, w[2] * x[1] ** e[1], w[0] / x[2])
    constraints = [x ** e[0] <= w, x[2] ** e[1] <= 4.0]
    variables = variables_of(objective, *[c.lhs for c in constraints])
    params = parameters_of(objective, *[c.lhs for c in constraints],
                           *[c.rhs for c in constraints])
    _, cmap = canonicalize("minimize", objective, constraints,
                           variables, params)
    tags = {(id(q), j): [] for q, j, _ in cmap.entries}
    for q, j, tag in cmap.entries:
        tags[(id(q), j)].append(tag)
    assert sorted(tags[(id(p), 0)]) == ["log", "passthrough"]
    rng = np.random.default_rng(9)
    alpha = cmap.pack_alpha()
    for _ in range(5):
        da = rng.normal(size=cmap.n_alpha)
        db = rng.normal(size=cmap.n_beta)
        for got, want in [
            (cmap.eval_C(alpha), _loop_C(cmap, alpha)),
            (cmap.apply_DC(alpha, da), _loop_DC(cmap, alpha, da)),
            (cmap.apply_DC_adjoint(alpha, db),
             _loop_DC_adjoint(cmap, alpha, db)),
        ]:
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        alpha = alpha * np.exp(rng.normal(scale=0.5, size=cmap.n_alpha))


def test_parameter_map_on_benchmark_matches_per_entry_loop():
    p = examples.benchmark(n=60, m=3, seed=2)
    _, cmap, _ = p._ensure_compiled()
    alpha = cmap.pack_alpha()
    rng = np.random.default_rng(1)
    da = rng.normal(size=cmap.n_alpha)
    db = rng.normal(size=cmap.n_beta)
    assert cmap.eval_C(alpha).tobytes() == _loop_C(cmap, alpha).tobytes()
    assert (cmap.apply_DC(alpha, da).tobytes()
            == _loop_DC(cmap, alpha, da).tobytes())
    assert (cmap.apply_DC_adjoint(alpha, db).tobytes()
            == _loop_DC_adjoint(cmap, alpha, db).tobytes())


_MAP_ARGS = {"eval_C": ("alpha",), "apply_DC": ("alpha", "dalpha"),
             "apply_DC_adjoint": ("alpha", "dbeta")}


@pytest.mark.parametrize("size", [2, 5])
@pytest.mark.parametrize("method, bad", [
    (method, name) for method, names in _MAP_ARGS.items() for name in names
])
def test_parameter_map_rejects_wrong_sizes(method, bad, size):
    _, cmap = canon_hello()
    assert cmap.n_alpha == cmap.n_beta == 3
    args = {"alpha": cmap.pack_alpha(), "dalpha": np.ones(3),
            "dbeta": np.ones(3), bad: np.full(size, 0.5)}
    with pytest.raises(DomainError, match=rf"^{bad} has shape "
                       rf"\({size},\), expected \(3,\)$"):
        getattr(cmap, method)(*[args[n] for n in _MAP_ARGS[method]])


def test_eval_C_names_the_first_nonpositive_log_source():
    _, cmap = canon_hello()
    assert [p.name for p, _, _ in cmap.entries[:2]] == ["b", "a"]
    with pytest.raises(DomainError,
                       match=r"^parameter b\[0\] must be positive, got -1.0$"):
        cmap.eval_C(np.array([0.0, -1.0, 0.5]))
    # a passthrough entry may be any finite number
    cmap.eval_C(np.array([2.0, 1.0, -3.0]))


def test_DC_matches_finite_differences():
    _, cmap = canon_hello()
    alpha = cmap.pack_alpha()
    J = central_jacobian(cmap.eval_C, alpha, h=1e-7)
    rng = np.random.default_rng(3)
    for _ in range(5):
        da = rng.normal(size=alpha.size)
        assert np.allclose(cmap.apply_DC(alpha, da), J @ da, atol=1e-6)


def test_DC_adjoint_identity():
    _, cmap = canon_hello()
    alpha = cmap.pack_alpha()
    rng = np.random.default_rng(4)
    for _ in range(10):
        da = rng.normal(size=cmap.n_alpha)
        w = rng.normal(size=cmap.n_beta)
        lhs = float(np.dot(cmap.apply_DC(alpha, da), w))
        rhs = float(np.dot(da, cmap.apply_DC_adjoint(alpha, w)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def canon_product():
    """A program whose map has product entries beside log and passthrough
    ones: p[0] is only a product base, p[1] also a log source, and a[0]
    both a product's exponent and a variable's."""
    x = llcp.Variable("x", 2)
    p = llcp.Parameter("p", 2, positive=True, value=[1.7, 0.4])
    a = llcp.Parameter("a", 2, value=[-0.6, 1.3])
    objective = add(x[0], x[1])
    constraints = [p[0] ** a[0] * p ** a[1] <= x, p[1] * x[1] ** a[0] <= x[0]]
    return canonicalize("minimize", objective, constraints, [x], [p, a])


def test_product_entries_and_their_bases():
    _, cmap = canon_product()
    p, a = cmap.params
    products = sorted((q.name, j, cmap.bases[i][0].name, cmap.bases[i][1])
                      for i, (q, j, tag) in enumerate(cmap.entries)
                      if tag == "product")
    # p[0]**a[1] appears twice and is one entry
    assert products == [("a", 0, "p", 0), ("a", 1, "p", 0), ("a", 1, "p", 1)]
    alpha = cmap.pack_alpha()
    beta = cmap.eval_C(alpha)
    for i in cmap.product:
        q, j, _ = cmap.entries[i]
        base, k = cmap.bases[i]
        assert beta[i] == q.value[j] * math.log(base.value[k])


def test_product_DC_matches_finite_differences():
    _, cmap = canon_product()
    alpha = cmap.pack_alpha()
    J = central_jacobian(cmap.eval_C, alpha, h=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(5):
        da = rng.normal(size=alpha.size)
        assert np.allclose(cmap.apply_DC(alpha, da), J @ da,
                           rtol=1e-8, atol=1e-9)


def test_product_DC_adjoint_identity():
    _, cmap = canon_product()
    alpha = cmap.pack_alpha()
    rng = np.random.default_rng(6)
    for _ in range(10):
        da = rng.normal(size=cmap.n_alpha)
        w = rng.normal(size=cmap.n_beta)
        lhs = float(np.dot(cmap.apply_DC(alpha, da), w))
        rhs = float(np.dot(da, cmap.apply_DC_adjoint(alpha, w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eval_C_names_a_nonpositive_product_base():
    _, cmap = canon_product()
    alpha = cmap.pack_alpha()
    alpha[0] = -0.5
    with pytest.raises(DomainError,
                       match=r"^parameter p\[0\] must be positive, "
                       r"got -0.5$"):
        cmap.eval_C(alpha)
    # a product's exponent may be any finite number
    alpha[0], alpha[2] = 1.7, -4.0
    cmap.eval_C(alpha)


def test_eval_C_rows_match_one_row_at_a_time():
    _, cmap = canon_product()
    rng = np.random.default_rng(7)
    alphas = cmap.pack_alpha() * np.exp(rng.normal(size=(4, cmap.n_alpha)))
    rows = cmap.eval_C(alphas)
    assert rows.shape == (4, cmap.n_beta)
    for alpha, row in zip(alphas, rows):
        assert cmap.eval_C(alpha).tobytes() == row.tobytes()
    # a batch of values for some parameters, the others at their values
    p = cmap.params[0]
    packed = cmap.pack_alpha({p: alphas[:, :2]})
    assert np.array_equal(packed[:, :2], alphas[:, :2])
    assert np.array_equal(packed[:, 2:], np.tile(cmap.pack_alpha()[2:],
                                                 (4, 1)))


# ---------------------------------------------------------------------------
# equivalence with the original programs


def lowered_value(sense, objective, constraints):
    variables = variables_of(objective, *[c.lhs for c in constraints],
                             *[c.rhs for c in constraints])
    params = parameters_of(objective, *[c.lhs for c in constraints],
                           *[c.rhs for c in constraints])
    prob, cmap = canonicalize(sense, objective, constraints, variables,
                              params)
    beta = cmap.eval_C(cmap.pack_alpha())
    val, u = solve_ir_scipy(prob, beta)
    if sense == "maximize":
        val = -val
    return np.exp(val), {v: np.exp(u[s:t]) for v, s, t in prob.var_slices}


def test_hello_world_equivalence():
    objective, constraints, variables, _ = make_hello()
    got, sol = lowered_value("minimize", objective, constraints)
    ref, ref_sol = brute_force_llcp("minimize", objective, constraints,
                                    variables)
    assert got == pytest.approx(ref, rel=1e-5)
    for v in variables:
        assert np.allclose(sol[v], ref_sol[v], rtol=1e-4)


def test_queuing_equivalence():
    from oracles import queuing_solution

    lam = llcp.Variable("lam", 2)
    mu = llcp.Variable("mu", 2)
    gamma = llcp.Parameter("gamma", 2, positive=True, value=[1.0, 2.0])
    d_max = llcp.Parameter("d_max", 2, positive=True, value=[2.0, 2.0])
    mu_max = llcp.Parameter("mu_max", positive=True, value=3.0)
    q_max = llcp.Parameter("q_max", 2, positive=True, value=[4.0, 5.0])
    w_max = llcp.Parameter("w_max", 2, positive=True, value=[2.5, 3.0])
    lam_min = llcp.Parameter("lam_min", 2, positive=True, value=[0.5, 0.8])
    ell = mu / lam
    q = (ell ** -2.0) / diff_pos(llcp.one(), ell ** -1.0)
    w = q / lam + mu ** -1.0
    d = 1.0 / diff_pos(mu, lam)
    objective = add(gamma[0] * (mu[0] / lam[0]),
                    gamma[1] * (mu[1] / lam[1]))
    constraints = [q <= q_max, w <= w_max, d <= d_max,
                   lam_min <= lam, add(mu[0], mu[1]) <= mu_max]
    got, sol = lowered_value("minimize", objective, constraints)
    lam_ref, mu_ref, _ = queuing_solution([1.0, 2.0], [2.0, 2.0], 3.0)
    assert np.allclose(sol[lam], lam_ref, rtol=1e-4)
    assert np.allclose(sol[mu], mu_ref, rtol=1e-4)


def _random_program(rng):
    n = int(rng.integers(1, 4))
    xs = [llcp.Variable(f"x{i}") for i in range(n)]

    def monomial(allow_param=True):
        coef = rng.uniform(0.3, 3.0)
        if allow_param and rng.uniform() < 0.4:
            base = llcp.Parameter(f"p{rng.integers(1e9)}", positive=True,
                                  value=coef)
        else:
            base = llcp.Constant(coef)
        term = base
        for x in xs:
            e = float(rng.integers(-2, 3))
            if e == 0.0:
                continue
            if rng.uniform() < 0.2:
                a = llcp.Parameter(f"a{rng.integers(1e9)}", value=e)
                term = term * x ** a
            else:
                term = term * x ** e
        return term

    def posynomial(k):
        return add(*[monomial() for _ in range(k)]) if k > 1 else monomial()

    obj = posynomial(int(rng.integers(1, 4)))
    if rng.uniform() < 0.25:
        obj = maximum(obj, posynomial(int(rng.integers(1, 3))))
    constraints = []
    for x in xs:
        constraints.append(x >= 0.5)
        constraints.append(x <= 2.0)
    p = posynomial(2)
    cap = 1.5 * float(llcp.evaluate(p, {x: np.ones(1) for x in xs})[0])
    constraints.append(p <= cap)
    roll = rng.uniform()
    if roll < 0.25 and n >= 2:
        constraints.append(xs[1] <= diff_pos(5.0 * xs[0], xs[min(2, n - 1)]))
    elif roll < 0.5:
        constraints.append(exp(xs[0]) <= 12.0)
    elif roll < 0.75:
        constraints.append(llcp.Constant(0.3) <= log(5.0 * xs[0]))
    if rng.uniform() < 0.2 and n >= 2:
        constraints.append(minimum(xs[0], xs[1]) >= 0.6)
    return obj, constraints, xs


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_preserved_by_lowering(seed):
    rng = np.random.default_rng(100 + seed)
    objective, constraints, variables = _random_program(rng)
    got, _ = lowered_value("minimize", objective, constraints)
    ref, _ = brute_force_llcp("minimize", objective, constraints, variables,
                              n_starts=6, seed=seed)
    assert got == pytest.approx(ref, rel=1e-4, abs=1e-7)


# Each program sends mul or ratio to the >= side, or a power of a non-affine
# base to either side, in the objective or in a constraint, over the box
# x, y in [0.5, 2].  Optima in closed form.
BRANCH_PROGRAMS = {
    "mul>=/objective": (
        "maximize", lambda x, y: x * minimum(x, y),
        lambda x, y: [x + y <= 3.0], 2.25),
    "ratio>=/objective": (
        "maximize", lambda x, y: minimum(x, y) / (x + y), lambda x, y: [],
        0.5),
    "power+<=/objective": (
        "minimize", lambda x, y: (x + y) ** 2.0 / (x * y), lambda x, y: [],
        4.0),
    "power->=/objective": (
        "maximize", lambda x, y: x * (x + y) ** -1.0,
        lambda x, y: [x * y >= 1.0], 0.8),
    "power-<=/objective": (
        "minimize", lambda x, y: minimum(x, y) ** -1.0,
        lambda x, y: [x * y <= 1.0], 1.0),
    "power+>=/objective": (
        "maximize", lambda x, y: minimum(x, y) ** 2.0,
        lambda x, y: [x + y <= 3.0], 2.25),
    "mul>=/constraint": (
        "minimize", lambda x, y: x + y,
        lambda x, y: [x * minimum(x, y) >= 1.0], 2.0),
    "ratio>=/constraint": (
        "maximize", lambda x, y: x,
        lambda x, y: [minimum(x, y) / (x + y) >= 0.4, y <= 1.0], 1.5),
    "power+<=/constraint": (
        "maximize", lambda x, y: y,
        lambda x, y: [(x + y) ** 2.0 <= 4.0 * x], 1.0),
    "power+>=/constraint": (
        "minimize", lambda x, y: x * y,
        lambda x, y: [minimum(x, y) ** 2.0 >= 1.0], 1.0),
    "power-<=/constraint": (
        "minimize", lambda x, y: x * y,
        lambda x, y: [minimum(x, y) ** -1.0 <= 2.0 / 3.0], 2.25),
    "power->=/constraint": (
        "maximize", lambda x, y: x * y,
        lambda x, y: [(x + y) ** -1.0 >= 0.4], 1.5625),
}


@pytest.mark.parametrize("case", sorted(BRANCH_PROGRAMS))
def test_slot_directed_branches_keep_the_optimum(case):
    sense, objective, extra, expected = BRANCH_PROGRAMS[case]
    x, y = llcp.Variable("x"), llcp.Variable("y")
    constraints = [x >= 0.5, x <= 2.0, y >= 0.5, y <= 2.0] + extra(x, y)
    got, _ = lowered_value(sense, objective(x, y), constraints)
    assert got == pytest.approx(expected, rel=1e-5)
    wrap = llcp.Minimize if sense == "minimize" else llcp.Maximize
    value = llcp.Problem(wrap(objective(x, y)), constraints).solve()
    assert value == pytest.approx(expected, rel=1e-5)


def test_lin_eval():
    le = [(None, None, 2.0), (0, None, 3.0), (None, 1, -1.0), (0, 0, 0.5)]
    beta = np.array([2.0])
    u = np.array([4.0, 5.0])
    assert lin_eval(le, beta, u) == pytest.approx(2 + 6 - 5 + 4.0)


@pytest.mark.parametrize("seed", range(100, 110))
def test_objective_value_matches_lin_eval(seed):
    # the numpy pass sums the same products pairwise, so it may differ
    # from the sequential sum by roundoff only
    rng = np.random.default_rng(seed)
    objective, constraints, variables = _random_program(rng)
    prob, cmap = canonicalize("minimize", objective, constraints, variables,
                              llcp.Problem(llcp.Minimize(objective),
                                           constraints).parameters)
    beta = cmap.eval_C(cmap.pack_alpha())
    u = rng.normal(size=prob.n_vars)
    want = lin_eval(prob.objective, beta, u)
    scale = sum(abs(lin_eval([t], beta, u)) for t in prob.objective)
    assert abs(prob.objective_value(beta, u) - want) <= 1e-14 * scale
