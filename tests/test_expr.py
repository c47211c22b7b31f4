"""Expression construction, curvature analysis, and numeric evaluation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import llcp
from llcp import expr as expr_module
from llcp.expr import (
    ArityError,
    Constant,
    Constraint,
    Curvature,
    DomainError,
    Elem,
    PowerRuleError,
    ShapeError,
    add,
    build_atom,
    curvature,
    diff_pos,
    evaluate,
    exp,
    explain_failure,
    log,
    maximum,
    minimum,
    mul,
    one,
    parameters_of,
    power,
    ratio,
    variables_of,
)

from oracles import loglog_concave_violation, loglog_convex_violation


# ---------------------------------------------------------------------------
# construction and validation


def test_arity_checks():
    x = llcp.Variable("x")
    with pytest.raises(ArityError):
        build_atom("ratio", (x,))
    with pytest.raises(ArityError):
        build_atom("exp", (x, x))
    with pytest.raises(ArityError):
        build_atom("add", (x,))
    with pytest.raises(ArityError):
        build_atom("one", (x,))


def test_shape_broadcasting():
    x = llcp.Variable("x", 3)
    y = llcp.Variable("y", 2)
    s = llcp.Variable("s")
    assert (x * s).size == 3
    assert add(x, x, s).size == 3
    with pytest.raises(ShapeError):
        mul(x, y)
    with pytest.raises(ShapeError):
        Elem(x, 3)


def test_constants_must_be_positive():
    with pytest.raises(DomainError):
        Constant(0.0)
    with pytest.raises(DomainError):
        Constant([1.0, -2.0])
    with pytest.raises(DomainError):
        Constant(np.inf)
    assert one().value[0] == 1.0


def test_empty_constants_are_rejected():
    with pytest.raises(ShapeError):
        Constant([])
    with pytest.raises(ShapeError):
        llcp.Variable("x") * []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_exponents_are_rejected(bad):
    x = llcp.Variable("x")
    with pytest.raises(DomainError, match="finite"):
        x ** bad
    with pytest.raises(DomainError, match="finite"):
        power(x + x, bad)


@pytest.mark.parametrize("exponent, number", [
    (np.int64(2), 2), (np.float32(0.5), 0.5), (np.int32(-1), -1)])
def test_numpy_scalar_exponents_act_like_python_numbers(exponent, number):
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    for build in (lambda e: x ** e, lambda e: power(x * y, e)):
        got, want = build(exponent), build(number)
        assert type(got.exponent) is float and got.exponent == want.exponent
        assert curvature(got) == curvature(want)
        lowered = [llcp.Problem(llcp.Minimize(e), [x >= 2, y >= 3])
                   ._ensure_compiled()[0] for e in (got, want)]
        assert lowered[0].objective == lowered[1].objective
        assert [(c.kind, c.args, c.rhs) for c in lowered[0].constraints] == \
            [(c.kind, c.args, c.rhs) for c in lowered[1].constraints]


def test_numpy_nan_exponent_is_rejected():
    with pytest.raises(DomainError, match="finite"):
        llcp.Variable("x") ** np.float64("nan")


def test_constant_domain_checks_at_build():
    with pytest.raises(DomainError):
        log(Constant(0.5))
    with pytest.raises(DomainError):
        diff_pos(Constant(1.0), Constant(2.0))
    # non-constant arguments defer domain checking to solve time
    x = llcp.Variable("x")
    log(x)
    diff_pos(x, Constant(2.0))


def test_power_rule():
    x = llcp.Variable("x")
    c = llcp.Parameter("c", positive=True)
    a = llcp.Parameter("a")
    a2 = llcp.Parameter("a2")
    # parameter exponent over a plain variable is fine
    assert curvature(x ** a).kind == "affine"
    # ... but not over anything already parametrized
    with pytest.raises(PowerRuleError):
        (c * x) ** a
    with pytest.raises(PowerRuleError):
        (x ** a) ** a2
    with pytest.raises(PowerRuleError):
        power(x, x)
    av = llcp.Parameter("av", size=3)
    with pytest.raises(ShapeError):
        power(x, av)
    assert curvature(x ** av[1]).kind == "affine"
    # a positive parameter base, or one entry of one, is log-log affine
    cv = llcp.Parameter("cv", size=2, positive=True)
    for e in (c ** a, cv[1] ** av[0], cv ** a):
        assert curvature(e).kind == "affine"
    assert llcp.Problem(llcp.Minimize(x), [c ** a * x >= 1.0]).is_dgp()
    # a base without declared sign is not
    s = llcp.Parameter("s")
    with pytest.raises(PowerRuleError, match="positive parameter"):
        s ** a
    with pytest.raises(PowerRuleError):
        av[0] ** a


def test_subtraction_and_negation_are_rejected():
    x = llcp.Variable("x")
    with pytest.raises(TypeError):
        x - 1.0
    with pytest.raises(TypeError):
        1.0 - x
    with pytest.raises(TypeError):
        -x


def test_associative_atoms_flatten():
    x, y, z = (llcp.Variable(n) for n in "xyz")
    e = (x + y) + z
    assert e.atom == "add" and len(e.args) == 3
    e = x * y * z * 2.0
    assert e.atom == "mul" and len(e.args) == 4


def test_constraint_sugar():
    x = llcp.Variable("x")
    c = x <= 1.0
    assert isinstance(c, Constraint) and c.op == "<="
    c = x >= 2.0
    assert c.op == "<=" and isinstance(c.lhs, Constant)
    c = x == 3.0
    assert c.op == "=="
    with pytest.raises(TypeError):
        bool(x <= 1.0)
    with pytest.raises(ShapeError):
        llcp.Variable("u", 2) <= llcp.Variable("v", 3)


# ---------------------------------------------------------------------------
# grammar verdicts, scalar and vector


def _monomial(c, x, a):
    terms = [c] + [x[j] ** a[j] for j in range(x.size)]
    return mul(*terms)


def test_parametrized_monomial_is_affine():
    n = 3
    x = llcp.Variable("x", n)
    c = llcp.Parameter("c", positive=True)
    a = llcp.Parameter("a", n)
    m = _monomial(c, x, a)
    v = curvature(m)
    assert v.kind == "affine" and v.parametrized


def test_nested_parametrized_power_is_rejected():
    n = 2
    x = llcp.Variable("x", n)
    c = llcp.Parameter("c", positive=True)
    a = llcp.Parameter("a", n)
    a_extra = llcp.Parameter("a_extra")
    m = _monomial(c, x, a)
    with pytest.raises(PowerRuleError):
        m ** a_extra


def test_parametrized_posynomial_is_convex():
    n, m = 2, 3
    x = llcp.Variable("x", n)
    c = llcp.Parameter("c", m, positive=True)
    A = llcp.Parameter("A", m * n)
    posy = add(*[_monomial(c[i], x, [A[i * n + j] for j in range(n)])
                 for i in range(m)])
    v = curvature(posy)
    assert v.kind == "convex" and v.parametrized


def test_max_of_posynomials_is_convex():
    x = llcp.Variable("x", 2)
    c = llcp.Parameter("c", 2, positive=True)
    a = llcp.Parameter("a", 2)
    p1 = add(c[0] * x[0] ** a[0], c[1] * x[1] ** a[1])
    p2 = add(x[0] ** 2.0, c[0] * x[1])
    assert curvature(maximum(p1, p2)).kind == "convex"


def test_exp_of_elementwise_monomial_is_convex():
    x = llcp.Variable("x", 4)
    c = llcp.Parameter("c", 4, positive=True)
    assert curvature(exp(c * x)).kind == "convex"
    inner = add(*[c[i] * x[i] for i in range(4)])
    assert curvature(exp(inner)).kind == "convex"


def test_log_of_elementwise_monomial_is_concave():
    x = llcp.Variable("x", 4)
    c = llcp.Parameter("c", 4, positive=True)
    assert curvature(log(c * x)).kind == "concave"


def test_log_of_inner_product_has_no_curvature():
    x = llcp.Variable("x", 3)
    c = llcp.Parameter("c", 3, positive=True)
    e = log(add(*[c[i] * x[i] for i in range(3)]))
    assert curvature(e).kind == "unknown"
    msg = explain_failure(e, "concave")
    assert msg is not None and "log" in msg


def test_real_parameter_outside_exponent_is_unknown():
    x = llcp.Variable("x")
    a = llcp.Parameter("a")
    assert curvature(a * x).kind == "unknown"
    msg = explain_failure(a * x, "convex")
    assert "'a'" in msg


# ---------------------------------------------------------------------------
# per-atom curvature table


def test_atom_curvatures():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    posy = x + y
    assert curvature(x / y).kind == "affine"
    assert curvature(posy).kind == "convex"
    assert curvature(minimum(x, y)).kind == "concave"
    assert curvature(diff_pos(y, x)).kind == "concave"
    assert curvature(diff_pos(minimum(x, y), posy)).kind == "concave"
    assert curvature(diff_pos(posy, x)).kind == "unknown"
    assert curvature(ratio(x, posy)).kind == "concave"
    assert curvature(ratio(posy, posy)).kind == "unknown"
    assert curvature(ratio(x, minimum(x, y))).kind == "convex"
    assert curvature(ratio(minimum(x, y), posy)).kind == "concave"
    assert curvature(posy ** -1.0).kind == "concave"
    assert curvature(minimum(x, y) ** -2.0).kind == "convex"
    assert curvature(posy ** 0.0).kind == "constant"
    assert curvature(exp(log(x))).kind == "unknown"
    assert curvature(log(exp(x))).kind == "unknown"
    assert curvature(Constant(2.0) * Constant(3.0)).kind == "constant"
    assert curvature(maximum(2.0, 3.0)).kind == "constant"


# The DGP composition rule, written out independently of llcp.expr: an
# application is log-log convex when the atom is log-log convex or affine
# and each argument is convex in a nondecreasing slot, concave in a
# nonincreasing slot and affine in an unspecified one; symmetrically for
# concave.  Constant and affine arguments fit every slot.
_ATOM_RULES = {
    # name: (own curvature, arity, slot per argument; n-ary repeats one)
    "mul": ("affine", None, "inc"),
    "add": ("convex", None, "inc"),
    "maximum": ("convex", None, "inc"),
    "minimum": ("concave", None, "inc"),
    "ratio": ("affine", 2, ("inc", "dec")),
    "diff_pos": ("concave", 2, ("inc", "dec")),
    "exp": ("convex", 1, ("inc",)),
    "log": ("concave", 1, ("inc",)),
}


def _textbook_kind(own, slots, kinds):
    if all(k == "constant" for k in kinds):
        return "constant"
    flat = [k in ("constant", "affine") for k in kinds]
    cvx = own in ("affine", "convex")
    ccv = own in ("affine", "concave")
    for slot, k, f in zip(slots, kinds, flat):
        if slot == "inc":
            cvx = cvx and (f or k == "convex")
            ccv = ccv and (f or k == "concave")
        elif slot == "dec":
            cvx = cvx and (f or k == "concave")
            ccv = ccv and (f or k == "convex")
        else:
            cvx = cvx and f
            ccv = ccv and f
    if cvx and ccv:
        return "affine"
    return "convex" if cvx else "concave" if ccv else "unknown"


def _representatives():
    """One unparametrized expression of each curvature; constants vary by
    argument position so that diff_pos of two constants stays valid."""
    x, y = llcp.Variable("x"), llcp.Variable("y")
    return {
        "constant": lambda i: Constant(3.0 - i),
        "affine": lambda i: x / y,
        "convex": lambda i: x + y,
        "concave": lambda i: minimum(x, y),
        "unknown": lambda i: log(x + y),
    }


def test_representatives_have_their_curvature():
    for kind, make in _representatives().items():
        assert curvature(make(0)).kind == kind


@pytest.mark.parametrize("atom", sorted(_ATOM_RULES))
def test_every_atom_follows_the_composition_rule(atom):
    own, arity, slots = _ATOM_RULES[atom]
    reps = _representatives()
    for k in (2, 3) if arity is None else (arity,):
        atom_slots = (slots,) * k if arity is None else slots
        for kinds in itertools.product(sorted(reps), repeat=k):
            e = build_atom(atom, [reps[kd](i) for i, kd in enumerate(kinds)])
            verdict = curvature(e)
            assert verdict.kind == _textbook_kind(own, atom_slots, kinds), (
                atom, kinds)
            assert not verdict.parametrized


@pytest.mark.parametrize("exponent, slot", [
    (3.0, "inc"), (0.5, "inc"), (-0.5, "dec"), (-2.0, "dec"), ("param", "any"),
])
def test_every_power_form_follows_the_composition_rule(exponent, slot):
    a = llcp.Parameter("a")
    for kind, make in _representatives().items():
        e = power(make(0), a if exponent == "param" else exponent)
        verdict = curvature(e)
        expected = _textbook_kind("affine", (slot,), (kind,))
        if exponent == "param" and expected == "constant":
            # parametrized, never constant: folding would freeze a's value
            expected = "affine"
        assert verdict.kind == expected, kind
        assert verdict.parametrized == (exponent == "param")


def test_zero_power_is_constant():
    x = llcp.Variable("x")
    c = llcp.Parameter("c", positive=True)
    for make in _representatives().values():
        assert curvature(make(0) ** 0.0) == Curvature("constant", False)
    assert curvature((c * x) ** 0.0) == Curvature("constant", True)


def test_curvature_meets_needs():
    table = {
        "constant": {"convex", "concave", "affine"},
        "affine": {"convex", "concave", "affine"},
        "convex": {"convex"},
        "concave": {"concave"},
        "unknown": set(),
    }
    for kind, met in table.items():
        v = Curvature(kind, False)
        for need in ("convex", "concave", "affine"):
            assert v.meets(need) == (need in met)
        assert (v.is_convex, v.is_concave, v.is_affine) == (
            "convex" in met, "concave" in met, "affine" in met)


def test_parametrized_flag_propagates():
    x = llcp.Variable("x")
    c = llcp.Parameter("c", positive=True)
    assert not curvature(x + x).parametrized
    assert curvature(x + c).parametrized
    assert curvature((c * x) ** 2.0).parametrized


# ---------------------------------------------------------------------------
# diagnostics: every message form, byte for byte


def test_diagnostic_for_signless_parameter():
    x = llcp.Variable("x")
    q = llcp.Parameter("q")
    qv = llcp.Parameter("qv", 2)
    assert explain_failure(q * x, "convex") == (
        "mul.args[0]: parameter 'q' has no declared sign, so its log-log "
        "curvature is unknown outside power exponents")
    assert explain_failure(exp(x + qv[1]), "convex", "objective") == (
        "objective.exp.args[0].add.args[1]: parameter 'qv' has no declared "
        "sign, so its log-log curvature is unknown outside power exponents")
    assert explain_failure(q, "affine") == (
        "expression: parameter 'q' has no declared sign, so its log-log "
        "curvature is unknown outside power exponents")


def test_diagnostic_for_atom_in_wrong_position():
    x, y = llcp.Variable("x"), llcp.Variable("y")
    assert explain_failure(log(x + y), "concave", "objective") == (
        "objective.log.args[0]: atom 'add' is log-log convex, which cannot "
        "appear in a log-log concave position")
    assert explain_failure(minimum(x, y), "convex") == (
        "expression: atom 'minimum' is log-log concave, which cannot appear "
        "in a log-log convex position")
    assert explain_failure(x + y, "affine", "constraints[0].lhs") == (
        "constraints[0].lhs: atom 'add' is log-log convex, which cannot "
        "appear in a log-log affine position")
    # a power names its argument ".arg" and flips the need for a negative
    # exponent; without a path it labels itself "power"
    assert explain_failure((x + y) ** -1.0, "convex") == (
        "power.arg: atom 'add' is log-log convex, which cannot appear in a "
        "log-log concave position")
    assert explain_failure(ratio(x, (x + y) ** -2.0), "concave", "obj") == (
        "obj.ratio.args[1].arg: atom 'add' is log-log convex, which cannot "
        "appear in a log-log concave position")


def _deny(monkeypatch, target):
    """Make the verdict of ``target`` unknown while its arguments keep
    theirs: the descent then finds no failing argument."""
    real = expr_module._analyze

    def analyze(e, memo=None):
        if e is target:
            return Curvature("unknown", False)
        return real(e, memo)

    monkeypatch.setattr(expr_module, "_analyze", analyze)


def test_fallback_diagnostics(monkeypatch):
    x, y = llcp.Variable("x"), llcp.Variable("y")
    leaf = llcp.Variable("w")
    e = exp(leaf)
    _deny(monkeypatch, leaf)
    assert explain_failure(e, "convex") == "exp.args[0]: not log-log convex"
    monkeypatch.undo()
    mono = x * y
    _deny(monkeypatch, mono)
    assert explain_failure(mono, "concave", "objective") == (
        "objective: atom 'mul' is not log-log concave here")
    monkeypatch.undo()
    p = x ** 2.0
    _deny(monkeypatch, p)
    assert explain_failure(p, "affine") == (
        "expression: power is not log-log affine here")


# ---------------------------------------------------------------------------
# numeric evaluation


def test_evaluate_posynomial():
    x = llcp.Variable("x", 2)
    c = llcp.Parameter("c", 2, positive=True)
    c.set_value([2.0, 3.0])
    e = add(c[0] * x[0] ** 2.0, c[1] * x[1])
    val = evaluate(e, {x: np.array([2.0, 5.0])})
    assert np.allclose(val, [2 * 4 + 3 * 5])


def test_evaluate_parameter_exponent():
    x = llcp.Variable("x")
    a = llcp.Parameter("a", value=-1.5)
    val = evaluate(x ** a, {x: np.array([4.0])})
    assert np.allclose(val, 4.0 ** -1.5)


def test_evaluate_broadcasts_and_uses_leaf_values():
    x = llcp.Variable("x", 3)
    x.value = np.array([1.0, 2.0, 3.0])
    e = 2.0 * x
    assert np.allclose(evaluate(e), [2, 4, 6])
    assert np.allclose(evaluate(maximum(x, 2.5)), [2.5, 2.5, 3.0])
    with pytest.raises(DomainError):
        evaluate(llcp.Variable("fresh"))


def test_evaluate_domain_atoms():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    env = {x: np.array([2.0]), y: np.array([5.0])}
    assert np.allclose(evaluate(diff_pos(y, x), env), 3.0)
    assert np.allclose(evaluate(log(y), env), np.log(5.0))
    assert np.allclose(evaluate(exp(x / y), env), np.exp(0.4))


def test_leaf_collection_order():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    c = llcp.Parameter("c", positive=True)
    a = llcp.Parameter("a")
    e = add(c * y, x ** a, y)
    assert variables_of(e) == [y, x]
    assert parameters_of(e) == [c, a]


def test_parameter_value_validation():
    p = llcp.Parameter("p", 2, positive=True)
    with pytest.raises(ShapeError):
        p.set_value([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        p.set_value([1.0, -2.0])
    q = llcp.Parameter("q")
    q.set_value(-3.0)  # no sign declared, negatives allowed
    assert q.value[0] == -3.0


# ---------------------------------------------------------------------------
# property: certified curvature never contradicts the numeric definition


def _random_certified(rng, variables, need, depth):
    """Build an expression the composition rule certifies as ``need``."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.7:
            return variables[rng.integers(len(variables))]
        return Constant(rng.uniform(0.5, 2.0))
    flip = {"convex": "concave", "concave": "convex", "affine": "affine"}
    kind = need
    if need != "affine" and rng.uniform() < 0.3:
        kind = "affine"
    pick = rng.uniform()
    sub = depth - 1
    if kind == "affine":
        if pick < 0.4:
            return mul(_random_certified(rng, variables, "affine", sub),
                       _random_certified(rng, variables, "affine", sub))
        if pick < 0.7:
            return ratio(_random_certified(rng, variables, "affine", sub),
                         _random_certified(rng, variables, "affine", sub))
        expo = rng.uniform(-2.0, 2.0)
        return power(_random_certified(rng, variables, "affine", sub), expo)
    if kind == "convex":
        if pick < 0.3:
            return add(_random_certified(rng, variables, "convex", sub),
                       _random_certified(rng, variables, "convex", sub))
        if pick < 0.5:
            return maximum(_random_certified(rng, variables, "convex", sub),
                           _random_certified(rng, variables, "convex", sub))
        if pick < 0.65:
            return mul(_random_certified(rng, variables, "convex", sub),
                       _random_certified(rng, variables, "convex", sub))
        if pick < 0.8:
            return ratio(_random_certified(rng, variables, "convex", sub),
                         _random_certified(rng, variables, "concave", sub))
        if pick < 0.9:
            expo = rng.uniform(0.2, 2.0)
            return power(_random_certified(rng, variables, "convex", sub), expo)
        return exp(_random_certified(rng, variables, "convex", max(sub - 1, 0)))
    # concave
    if pick < 0.3:
        return minimum(_random_certified(rng, variables, "concave", sub),
                       _random_certified(rng, variables, "concave", sub))
    if pick < 0.5:
        return mul(_random_certified(rng, variables, "concave", sub),
                   _random_certified(rng, variables, "concave", sub))
    if pick < 0.65:
        return ratio(_random_certified(rng, variables, "concave", sub),
                     _random_certified(rng, variables, "convex", sub))
    if pick < 0.78:
        return diff_pos(
            mul(_random_certified(rng, variables, "concave", sub), 4.0),
            _random_certified(rng, variables, "convex", sub),
        )
    if pick < 0.9:
        expo = rng.uniform(0.2, 2.0)
        return power(_random_certified(rng, variables, "concave", sub), expo)
    return log(mul(_random_certified(rng, variables, "concave",
                                     max(sub - 1, 0)), 4.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), need=st.sampled_from(["convex", "concave"]))
def test_certified_curvature_matches_numeric_definition(seed, need):
    rng = np.random.default_rng(seed)
    variables = [llcp.Variable(f"v{i}") for i in range(rng.integers(1, 4))]
    e = _random_certified(rng, variables, need, depth=3)
    verdict = curvature(e)
    if need == "convex":
        assert verdict.is_convex
        worst = loglog_convex_violation(e, rng, samples=50, lo=0.5, hi=2.0)
    else:
        assert verdict.is_concave
        worst = loglog_concave_violation(e, rng, samples=50, lo=0.5, hi=2.0)
    assert worst <= 1e-9
