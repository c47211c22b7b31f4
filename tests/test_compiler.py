"""Cone-data assembly: layout, the affine parameter map, and feasibility."""

import numpy as np
import pytest

import llcp
from llcp.canon import ConeConstraint, ConvexProblem, canonicalize, lin_eval
from llcp.compiler import (
    DimensionError,
    UnsupportedPrimitiveError,
    compile_problem,
)
from llcp.expr import add, parameters_of, variables_of

from oracles import solve_ir_scipy
from test_canon import canon_hello, make_hello


def compile_hello():
    prob, cmap = canon_hello()
    return prob, cmap, compile_problem(prob)


def test_hello_world_layout():
    prob, cmap, pmap = compile_hello()
    assert pmap.dims == {"zero": 0, "nonneg": 3, "exp": 3}
    assert pmap.m == 12
    # four log-space variables plus one q per log-sum-exp term
    assert pmap.n == 7
    assert pmap.n_x == 3
    assert pmap.n_beta == cmap.n_beta == 3


def test_two_term_lse_layout():
    x = llcp.Variable("x")
    y = llcp.Variable("y")
    z = llcp.Variable("z")
    prob, _ = canonicalize("minimize", z, [add(x, z) <= y, x >= 1.0],
                           [x, y, z], [])
    pmap = compile_problem(prob)
    assert pmap.dims == {"zero": 0, "nonneg": 2, "exp": 2}
    assert pmap.n == prob.n_vars + 2


def test_single_term_lse_reduces_to_nonneg():
    prob = ConvexProblem(
        n_vars=2, n_x=2, n_beta=0,
        objective=[(None, 0, 1.0)],
        constraints=[ConeConstraint("lse", ([(None, 0, 1.0)],),
                                    [(None, 1, 1.0)])],
        var_slices=[],
    )
    pmap = compile_problem(prob)
    assert pmap.dims == {"zero": 0, "nonneg": 1, "exp": 0}
    A, b, c = pmap.instantiate([])
    # u0 - u1 <= 0
    assert np.allclose(A.toarray(), [[1.0, -1.0]])
    assert np.allclose(b, [0.0])


def test_unknown_kind_rejected():
    prob = ConvexProblem(
        n_vars=1, n_x=1, n_beta=0, objective=[],
        constraints=[ConeConstraint("soc", ())], var_slices=[],
    )
    with pytest.raises(UnsupportedPrimitiveError):
        compile_problem(prob)


def test_dimension_checks():
    _, _, pmap = compile_hello()
    with pytest.raises(DimensionError):
        pmap.instantiate([1.0])
    with pytest.raises(DimensionError):
        pmap.apply_T(np.zeros(5))
    with pytest.raises(DimensionError):
        pmap.apply_T_adjoint(np.zeros(3))


def test_simple_bound_row_values():
    x = llcp.Variable("x")
    cpar = llcp.Parameter("cpar", positive=True, value=4.0)
    prob, cmap = canonicalize("minimize", 1.0 / x, [2.0 * x <= cpar],
                              [x], [cpar])
    pmap = compile_problem(prob)
    beta = cmap.eval_C(cmap.pack_alpha())
    A, b, c = pmap.instantiate(beta)
    assert np.allclose(A.toarray(), [[1.0]])
    assert b[0] == pytest.approx(np.log(4.0) - np.log(2.0))
    assert np.allclose(c, [-1.0])


def test_recompile_is_bit_identical():
    prob, _ = canon_hello()
    p1 = compile_problem(prob)
    p2 = compile_problem(prob)
    assert np.array_equal(p1.csc_rows, p2.csc_rows)
    assert np.array_equal(p1.csc_indptr, p2.csc_indptr)
    assert (p1.T != p2.T).nnz == 0


def test_sparsity_fixed_across_parameter_values():
    prob, cmap = canon_hello()
    pmap = compile_problem(prob)
    A1, _, _ = pmap.instantiate(cmap.eval_C(np.array([2.0, 1.0, 0.5])))
    A2, _, _ = pmap.instantiate(cmap.eval_C(np.array([5.0, 3.0, -1.2])))
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.indptr, A2.indptr)
    assert not np.allclose(A1.data, A2.data)


def test_map_is_affine_in_beta():
    prob, cmap, pmap = compile_hello()
    rng = np.random.default_rng(0)
    b1 = rng.normal(size=pmap.n_beta)
    b2 = rng.normal(size=pmap.n_beta)
    lhs = pmap.data_vector(b2) - pmap.data_vector(b1)
    assert np.allclose(lhs, pmap.apply_T(b2 - b1), atol=1e-12)


def test_adjoint_identity():
    _, _, pmap = compile_hello()
    rng = np.random.default_rng(1)
    for _ in range(10):
        db = rng.normal(size=pmap.n_beta)
        w = rng.normal(size=pmap.data_size)
        lhs = float(np.dot(pmap.apply_T(db), w))
        rhs = float(np.dot(db, pmap.apply_T_adjoint(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_parameters_match_baked_constants():
    objective, constraints, variables, params = make_hello()
    prob_p, cmap = canonicalize("minimize", objective, constraints,
                                variables, params)
    map_p = compile_problem(prob_p)
    A1, b1, c1 = map_p.instantiate(cmap.eval_C(cmap.pack_alpha()))

    x, y, z = (llcp.Variable(n) for n in "xyz")
    obj2 = 1.0 / (x * y * z)
    cons2 = [2.0 * (x * y + x * z + y * z) <= 1.0, y ** 0.5 <= x]
    prob_c, _ = canonicalize("minimize", obj2, cons2, [x, y, z], [])
    map_c = compile_problem(prob_c)
    A2, b2, c2 = map_c.instantiate([])

    assert A1.shape == A2.shape
    assert np.allclose(A1.toarray(), A2.toarray(), atol=1e-12)
    assert np.allclose(b1, b2, atol=1e-12)
    assert np.allclose(c1, c2, atol=1e-12)


def _cone_feasible(pmap, v, tol=1e-6):
    dims = pmap.dims
    A, b, _ = pmap._last_data
    s = b - A @ v
    nz, nl = dims["zero"], dims["nonneg"]
    assert np.all(np.abs(s[:nz]) <= tol)
    assert np.all(s[nz:nz + nl] >= -tol)
    for k in range(dims["exp"]):
        x3, y3, z3 = s[nz + nl + 3 * k: nz + nl + 3 * k + 3]
        assert y3 == pytest.approx(1.0, abs=tol)
        assert y3 * np.exp(x3 / y3) <= z3 + tol


def _extend_with_q(prob, beta, u):
    qs = []
    for con in prob.constraints:
        if con.kind == "lse" and len(con.args) > 1:
            w = lin_eval(con.rhs, beta, u)
            for a in con.args:
                qs.append(np.exp(lin_eval(a, beta, u) - w))
    return np.concatenate([u, np.array(qs)])


@pytest.mark.parametrize("which", ["hello", "random0", "random1", "random2"])
def test_optimal_point_is_cone_feasible_with_matching_objective(which):
    if which == "hello":
        objective, constraints, variables, params = make_hello()
    else:
        from test_canon import _random_program
        rng = np.random.default_rng(300 + int(which[-1]))
        objective, constraints, variables = _random_program(rng)
        params = parameters_of(objective, *[c.lhs for c in constraints],
                               *[c.rhs for c in constraints])
    prob, cmap = canonicalize("minimize", objective, constraints,
                              variables, params)
    pmap = compile_problem(prob)
    beta = cmap.eval_C(cmap.pack_alpha())
    val, u = solve_ir_scipy(prob, beta)
    v = _extend_with_q(prob, beta, u)
    A, b, c = pmap.instantiate(beta)
    pmap._last_data = (A, b, c)
    _cone_feasible(pmap, v)
    dropped = lin_eval(prob.objective, beta, np.zeros(prob.n_vars))
    assert c @ v + dropped == pytest.approx(val, abs=1e-6)
