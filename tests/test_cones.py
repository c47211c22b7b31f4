"""Cone projections: fixtures, Moreau identity, derivatives, flags."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from llcp import cones
from llcp.cones import (
    dproject_cone,
    dproject_expcone,
    in_dual_expcone,
    in_expcone,
    project_cone,
    project_expcone,
)
from llcp import examples, fitting
from llcp.diff import NonuniqueWarning
from llcp.embedding import Embedding
from llcp.expr import Parameter
from llcp.problem import Minimize, Problem

from oracles import central_jacobian, project_expcone_oracle
from test_canon import _random_program

# Values computed once with the high-precision bisection oracle in
# oracles.project_expcone_oracle (60 significant digits, independent
# variable elimination), then frozen.
EXP_PROJ_FIXTURES = [
    ((1.0, 1.0, 1.0),
     (0.42630617230379414, 0.751672777431204, 1.3253666051274098)),
    ((2.0, -1.0, 0.5),
     (0.26108422737182496, 0.15678533917428641, 0.8289097504853625)),
    ((4.0, 2.0, 1.0),
     (0.8788644769391355, 1.1879434206466453, 2.489405039092512)),
    ((-2.0, 3.0, -1.0),
     (-2.455277556534708, 1.9802244232167765, 0.573103786589389)),
    ((0.5, 0.2, -0.3),
     (0.0, 0.0, 0.0)),
    ((10.0, 0.1, 2.0),
     (1.6748709957946646, 1.442316584774656, 4.606587255724429)),
    ((-1.5, -0.2, 2.5),
     (-1.5, 0.0, 2.5)),
    ((3.0, 5.0, -4.0),
     (-0.2312721950315577, 0.6978267782227672, 0.5009734635576766)),
    ((0.7, -2.0, -0.4),
     (0.0, 0.0, 0.0)),
    ((50.0, 20.0, 10.0),
     (10.015566867679148, 12.375419777630036, 27.79965229083657)),
    ((-6.0, -1.0, 0.3),
     (-6.0, 0.0, 0.3)),
    ((0.001, -0.001, 0.001),
     (0.00022972088270357494, 9.487127651506145e-05, 0.0010683989471584256)),
]


@pytest.mark.parametrize("v,expected", EXP_PROJ_FIXTURES)
def test_projection_fixtures(v, expected):
    p, _ = project_expcone(v)
    assert np.allclose(p, expected, atol=1e-9)


def _project_numpy(v):
    """project_expcone through the numpy root find, on one lane."""
    x, y, z, _, _ = cones._project_exp_many(
        *(np.array([float(w)]) for w in v), np.array([np.nan]))
    return np.array([x[0], y[0], z[0]]), None


_LIVE = [f[0] for f in EXP_PROJ_FIXTURES[:5]]


@pytest.mark.parametrize("v, project", [
    *(pytest.param(v, project_expcone, id=f"v{i}")
      for i, v in enumerate(_LIVE)),
    *(pytest.param(v, _project_numpy, id=f"numpy-v{i}")
      for i, v in enumerate(_LIVE))])
def test_projection_against_live_oracle(v, project):
    p, _ = project(v)
    q = project_expcone_oracle(v, dps=40)
    assert np.allclose(p, q, atol=1e-9)


vec3 = st.tuples(*[st.floats(-10.0, 10.0) for _ in range(3)])


@settings(max_examples=150, deadline=None)
@given(v=vec3)
def test_moreau_decomposition(v):
    v = np.asarray(v)
    p, _ = project_expcone(v)
    n = project_cone(-v, {"zero": 0, "nonneg": 0, "exp": 1}, dual=True)
    assert np.allclose(p - n, v, atol=1e-9)
    # the two parts are orthogonal
    assert abs(np.dot(p, p - v)) <= 1e-9 * (1 + np.dot(v, v))


@settings(max_examples=150, deadline=None)
@given(v=vec3)
def test_projection_idempotent_and_member(v):
    p, _ = project_expcone(np.asarray(v))
    assert in_expcone(p, tol=1e-9)
    p2, _ = project_expcone(p)
    assert np.allclose(p, p2, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(v=vec3)
def test_dual_projection_idempotent_and_member(v):
    dims = {"zero": 0, "nonneg": 0, "exp": 1}
    p = project_cone(np.asarray(v), dims, dual=True)
    assert in_dual_expcone(p, tol=1e-9)
    assert np.allclose(project_cone(p, dims, dual=True), p, atol=1e-9)


def _moreau_residuals(v):
    """Moreau identity and orthogonality errors of the projection of v,
    both relative to |v|, computed without squaring huge entries."""
    dims = {"zero": 0, "nonneg": 0, "exp": 1}
    v = np.asarray(v, dtype=float)
    p, _ = project_expcone(v)
    n = project_cone(-v, dims, dual=True)
    nv = math.hypot(*v)
    if nv == 0.0:
        return 0.0, 0.0
    pu, vu = p / nv, v / nv
    moreau = math.hypot(*(pu - n / nv - vu))
    orth = abs(float(np.dot(pu, pu - vu)))
    return moreau, orth


@pytest.mark.parametrize("v", [
    (5.039724722046546e+288, -3.1814940574396505e+299, 1.39952032729633e+140),
    (8.905457019015431e+287, -1.878825443495105e+298, 1.2728013378721101e+116),
])
def test_projection_at_huge_magnitudes(v):
    # not at unit scale, the root function overflows here and no root
    # is found
    moreau, orth = _moreau_residuals(v)
    assert moreau <= 1e-12 and orth <= 1e-12


# subnormal inputs carry too few bits for relative checks
huge = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
              st.integers(-300, 300)),
).filter(lambda x: x == 0.0 or abs(x) >= 1e-300)


@settings(max_examples=300, deadline=None)
@given(v=st.tuples(huge, huge, huge))
def test_projection_any_magnitude(v):
    moreau, orth = _moreau_residuals(v)
    assert moreau <= 1e-9 and orth <= 1e-9


def test_cold_root_find_stops_when_newton_converges(monkeypatch):
    r, s, t = (-0.007712958605542796, 0.008117661150532527,
               0.0012080675946270919)
    calls = []
    fun_der = cones._fun_der
    monkeypatch.setattr(cones, "_fun_der",
                        lambda *a: calls.append(a) or fun_der(*a))
    rho = cones._solve_boundary(r, s, t)[0]
    assert -2.0 < rho < -1.0
    assert abs(fun_der(rho, r, s, t)[0]) <= 1e-15
    # the cold start is one step inside the interval's end r/s, and
    # Newton converges from there in a few steps
    assert len(calls) <= 8


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(vec3, st.tuples(huge, huge, huge)))
def test_boundary_root_lies_where_y_and_multiplier_are_nonnegative(v):
    _, info = project_expcone(v)
    if info["case"] != "boundary":
        return
    # y and the multiplier are proportional to (rho - 1) r + s and
    # r - rho s, so the root lies between 1 - s/r and r/s
    r, s, _ = np.asarray(v) / np.max(np.abs(v))
    rho = info["rho"]
    assert (rho - 1.0) * r + s >= -1e-12 * (abs(rho * r) + abs(r) + abs(s))
    assert r - rho * s >= -1e-12 * (abs(r) + abs(rho * s))
    assert info["y"] >= 0.0 and info["lam"] >= 0.0


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(vec3, st.tuples(huge, huge, huge)), data=st.data())
def test_warm_started_projection_matches_cold(v, data):
    dims = {"zero": 0, "nonneg": 0, "exp": 1}
    p_cold, info = project_expcone(v)
    starts = [st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300,
                               0.0]),
              st.floats(-50.0, 50.0)]
    if info["case"] == "boundary":
        starts.append(st.sampled_from([info["rho"] - 1e-3,
                                       info["rho"] + 1e-3]))
    rho0 = data.draw(st.one_of(*starts))
    rho = np.array([rho0])
    p = project_cone(np.asarray(v), dims, rho=rho)
    assert math.hypot(*(p - p_cold)) <= 1e-12 * (1.0 + math.hypot(*v))
    if info["case"] == "boundary":
        # Both finds stop once a Newton step moves rho by 1e-15 relative,
        # and the residual has no cancelling rho^2 terms, so the two roots
        # agree to rounding: at most 3.5e-16 relative on 9,100 boundary
        # triples drawn as here, each from the eight kinds of start.
        assert abs(rho[0] - info["rho"]) <= 3.5e-14 * (1.0 + abs(info["rho"]))
    else:
        # only boundary-case projections store a root
        assert rho[0] == rho0 or (math.isnan(rho0) and math.isnan(rho[0]))


@settings(max_examples=200, deadline=None)
@given(vs=st.lists(st.one_of(vec3, st.tuples(huge, huge, huge)), min_size=1,
                   max_size=40),
       data=st.data())
def test_numpy_projection_matches_the_scalar_one(vs, data):
    starts = data.draw(st.lists(
        st.one_of(st.sampled_from([math.nan, math.inf, 1e300, 0.0]),
                  st.floats(-50.0, 50.0)),
        min_size=len(vs), max_size=len(vs)))
    r, s, t = np.array(vs, dtype=float).T
    x, y, z, case, rho = cones._project_exp_many(r, s, t, np.array(starts))
    for k, v in enumerate(vs):
        want = cones._project_exp(*map(float, v), starts[k])
        assert cones._CASES[case[k]] == want[3]
        err = math.hypot(x[k] - want[0], y[k] - want[1], z[k] - want[2])
        assert err <= 1e-15 * math.hypot(*v)
        if want[3] == "boundary":
            assert abs(rho[k] - want[4]) <= 1e-15 * (1.0 + abs(want[4]))
        else:
            assert math.isnan(rho[k])


# roots on both sides of zero, signed zeros, and |rho| > 745, where
# e^-|rho| underflows and the residual is linear
rhos = st.one_of(st.floats(-50.0, 50.0),
                 st.floats(-1e4, 1e4).filter(lambda x: abs(x) > 745.0),
                 st.sampled_from([0.0, -0.0, 745.0, -745.0, 746.0, -746.0]))


@settings(max_examples=300, deadline=None)
@given(lanes=st.lists(st.tuples(rhos, st.one_of(vec3, st.tuples(huge, huge,
                                                                 huge))),
                      min_size=1, max_size=20))
def test_numpy_newton_kernel_is_the_scalar_one(lanes):
    rho = np.array([p for p, _ in lanes])
    r, s, t = np.array([v for _, v in lanes], dtype=float).T
    with np.errstate(all="ignore"):
        f, fp = cones._fun_der_many(rho, r, s, t)
    want = np.array([cones._fun_der(float(p), *map(float, v))
                     for p, v in lanes])
    # to the bit, NaNs from huge entries included
    got = np.stack([f, fp], axis=1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("rows", [2, 20])
def test_stacked_projection_matches_each_row(rows, dual):
    # 2 rows of 5 triples take the per-triple loop, 20 rows the numpy one
    dims = {"zero": 2, "nonneg": 3, "exp": 5}
    assert (rows * 5 > cones._VECTOR_TRIPLES) == (rows == 20)
    rng = np.random.default_rng(rows)
    V = 3.0 * rng.standard_normal((rows, 20))
    rho = np.full(rows * 5, np.nan)
    rho[::2] = rng.uniform(-3.0, 3.0, size=rho[::2].shape)
    want_rho = rho.copy()
    want = np.array([project_cone(v, dims, dual=dual, rho=w)
                     for v, w in zip(V, want_rho.reshape(rows, 5))])
    # a stack holds one vector per column
    got = project_cone(V.T, dims, dual=dual, rho=rho)
    assert np.array_equal(got.T, want)
    assert np.array_equal(rho, want_rho, equal_nan=True)


def test_membership_tests():
    assert in_expcone((0.0, 1.0, np.e))
    assert in_expcone((-5.0, 0.0, 2.0))
    assert not in_expcone((1e-3, 1.0, 1.0))
    assert not in_expcone((0.0, -1e-9, 1.0))
    assert in_dual_expcone((-1.0, 0.0, np.exp(-1.0) + 1e-9))
    assert not in_dual_expcone((-1.0, 0.0, np.exp(-1.0) - 1e-6))
    assert in_dual_expcone((0.0, 1.0, 1.0))
    assert not in_dual_expcone((1e-6, 1.0, -1.0))


def test_product_projection_blocks():
    dims = {"zero": 2, "nonneg": 3, "exp": 1}
    v = np.array([1.5, -0.7, 0.3, -0.2, 0.0, 1.0, 1.0, 1.0])
    p = project_cone(v, dims)
    assert np.allclose(p[:2], 0.0)
    assert np.allclose(p[2:5], [0.3, 0.0, 0.0])
    assert np.allclose(p[5:], EXP_PROJ_FIXTURES[0][1])
    d = project_cone(v, dims, dual=True)
    assert np.allclose(d[:2], v[:2])
    assert np.allclose(d[2:5], [0.3, 0.0, 0.0])
    with pytest.raises(ValueError):
        project_cone(v[:-1], dims)


def test_empty_product():
    dims = {"zero": 0, "nonneg": 0, "exp": 0}
    assert project_cone(np.zeros(0), dims).size == 0
    J, ns = dproject_cone(np.zeros(0), dims)
    assert J.shape == (0, 0) and not ns


# ---------------------------------------------------------------------------
# derivatives


def _smooth_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-3.0, 3.0, size=3)
        _, ns = dproject_expcone(v)
        if not ns:
            pts.append(v)
    return pts


@pytest.mark.parametrize("v", _smooth_points(100, seed=11))
def test_derivative_matches_finite_differences(v):
    J, ns = dproject_expcone(v)
    assert not ns
    Jfd = central_jacobian(lambda w: project_expcone(w)[0], v, h=1e-7)
    assert np.max(np.abs(J - Jfd)) <= 1e-5


@pytest.mark.parametrize("v", _smooth_points(30, seed=12))
def test_derivative_is_symmetric(v):
    J, _ = dproject_expcone(v)
    assert np.allclose(J, J.T, atol=1e-10)


def test_dual_derivative_matches_finite_differences():
    dims = {"zero": 1, "nonneg": 2, "exp": 2}
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        v = rng.uniform(-2.0, 2.0, size=1 + 2 + 6)
        J, ns = dproject_cone(v, dims, dual=True)
        if ns:
            continue
        Jfd = central_jacobian(
            lambda w: project_cone(w, dims, dual=True), v, h=1e-7)
        assert np.max(np.abs(J.toarray() - Jfd)) <= 1e-5
        checked += 1


def test_derivative_far_right_has_no_overflow():
    # rho = 381 and y = 6.5e-166: e^rho / y overflowed and the block
    # came out all NaN
    v = np.array([0.006353680562605213, -2.4153705261349794,
                  2.230958548104022])
    dims = {"zero": 0, "nonneg": 0, "exp": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        J, _ = dproject_expcone(v)
        Jd, _ = dproject_cone(-v, dims, dual=True)
    Jfd = central_jacobian(lambda w: project_expcone(w)[0], v, h=1e-7)
    Jdfd = central_jacobian(lambda w: project_cone(w, dims, dual=True), -v,
                            h=1e-7)
    assert np.all(np.isfinite(J)) and np.all(np.isfinite(Jd.toarray()))
    assert np.max(np.abs(J - Jfd)) <= 1e-6
    assert np.max(np.abs(Jd.toarray() - Jdfd)) <= 1e-6


def test_interior_and_polar_derivatives():
    J, ns = dproject_expcone((-1.0, 0.5, 2.0))
    assert np.allclose(J, np.eye(3)) and not ns
    J, ns = dproject_expcone((0.5, 0.2, -0.5))
    assert np.allclose(J, 0.0) and not ns
    J, ns = dproject_expcone((-1.5, -0.2, 2.5))
    assert np.allclose(J, np.diag([1.0, 0.0, 1.0])) and not ns


def test_nonsmooth_flags():
    # nonneg boundary
    _, ns = dproject_cone(np.array([0.0]),
                          {"zero": 0, "nonneg": 1, "exp": 0})
    assert ns
    # a point of the cone itself projects to itself with multiplier zero
    rho, y = 0.3, 1.2
    bdry = np.array([rho * y, y, y * np.exp(rho)])
    _, ns = dproject_expcone(bdry)
    assert ns
    # third-region boundary
    _, ns = dproject_expcone((-1.0, 0.0, -0.5))
    assert ns


def test_derivative_row_block_structure():
    dims = {"zero": 2, "nonneg": 1, "exp": 1}
    v = np.array([0.4, -0.2, 0.7, 1.0, 1.0, 1.0])
    J, _ = dproject_cone(v, dims)
    dense = J.toarray()
    assert np.allclose(dense[:2], 0.0)
    assert dense[2, 2] == 1.0
    assert np.allclose(dense[3:, :3], 0.0)
    Jd, _ = dproject_cone(v, dims, dual=True)
    dd = Jd.toarray()
    assert np.allclose(dd[:2, :2], np.eye(2))


def _dproject_cone_block_diag(v, dims, dual):
    """Per-block sparse constructors and block_diag: the assembly that
    dproject_cone replaced, kept as the reference for its result."""
    nz, nl, ne = dims["zero"], dims["nonneg"], dims["exp"]
    blocks = []
    nonsmooth = False
    if nz:
        blocks.append(sp.identity(nz) if dual else sp.csr_matrix((nz, nz)))
    if nl:
        w = v[nz:nz + nl]
        scale = 1.0 + np.abs(w)
        nonsmooth = nonsmooth or bool(np.any(np.abs(w) <= 1e-9 * scale))
        blocks.append(sp.diags((w > 0.0).astype(float)))
    for k in range(ne):
        sl = slice(nz + nl + 3 * k, nz + nl + 3 * k + 3)
        if dual:
            J, ns = dproject_expcone(-v[sl])
            blocks.append(sp.csr_matrix(np.eye(3) - J))
        else:
            J, ns = dproject_expcone(v[sl])
            blocks.append(sp.csr_matrix(J))
        nonsmooth = nonsmooth or ns
    if not blocks:
        return sp.csr_matrix((0, 0)), False
    return sp.block_diag(blocks, format="csr"), nonsmooth


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("nz,nl,ne", [
    (0, 0, 0), (3, 0, 0), (0, 4, 0), (0, 0, 5), (2, 3, 4), (1, 0, 6),
    (0, 5, 1),
])
def test_dproject_cone_matches_block_diag_assembly(nz, nl, ne, dual):
    dims = {"zero": nz, "nonneg": nl, "exp": ne}
    rng = np.random.default_rng(100 * nz + 10 * nl + ne)
    m = nz + nl + 3 * ne
    for trial in range(5):
        v = rng.uniform(-3.0, 3.0, size=m)
        if trial == 1:
            v[nz:nz + nl] = 0.0          # kinks of the nonnegative block
        if trial == 2 and ne:
            v[nz + nl:nz + nl + 3] = [1.0, 1.0, 1.0]
            v[-3:] = (-1.5, -0.2, 2.5)   # third region
        J, ns = dproject_cone(v, dims, dual=dual)
        ref, ref_ns = _dproject_cone_block_diag(v, dims, dual)
        assert J.shape == ref.shape == (m, m)
        assert np.array_equal(_bits(J.toarray()), _bits(ref.toarray()))
        assert ns == ref_ns


def _assert_jacobian_is_the_sparse_product(emb, z):
    """Embedding.jacobian(z) against M = (Q - I) DPi + I from SciPy's
    sparse product and sum, with DPi assembled block by block, and its
    reduction against the definition on the dense M."""
    n, m = emb.n, emb.m
    N = n + m + 1
    Jy, nonsmooth = _dproject_cone_block_diag(z[n:n + m], emb.dims, True)
    DPi = sp.block_diag([sp.identity(n), Jy,
                         sp.csr_matrix([[1.0 if z[-1] > 0.0 else 0.0]])],
                        format="csr")
    eye = sp.identity(N, format="csc")
    want = ((emb.Q - eye) @ DPi + eye).tocsc()
    want.sort_indices()
    red = emb.jacobian(z)
    assert np.array_equal(red.M.indptr, want.indptr)
    assert np.array_equal(red.M.indices, want.indices)
    assert np.array_equal(_bits(red.M.data), _bits(want.data))
    assert red.nonsmooth == nonsmooth
    # the unknowns where DPi's column is zero are eliminated, tau is
    # pinned, and the rows and columns left empty are dropped
    live = np.bincount(DPi.indices[DPi.data != 0.0], minlength=N) > 0
    assert np.array_equal(red._elim, np.flatnonzero(~live))
    live[-1] = False
    kept = np.where(np.outer(live, live), want.toarray(), 0.0)
    rows = np.flatnonzero(np.any(kept != 0.0, axis=1))
    cols = np.flatnonzero(np.any(kept != 0.0, axis=0))
    assert np.array_equal(red._rows, rows) and np.array_equal(red._cols, cols)
    assert np.array_equal(red.free, np.setdiff1d(np.flatnonzero(live), cols))
    if rows.size != cols.size:
        assert red._B is None
        return
    B = kept[np.ix_(rows, cols)]
    assert red._B.nnz == np.count_nonzero(B)
    assert np.array_equal(_bits(red._B.toarray()), _bits(B))


# dual triples v whose -v projects in each of dproject_expcone's cases:
# interior (DPi's block is zero), polar, third region, the y <= 0 form
# far right, and twice the general boundary formula
_EXP_CASES = [(1.0, -0.5, -2.0), (-0.5, -0.2, 0.5), (1.5, 0.2, -2.5),
              (-0.7216948202972806, 7850.157017026726, -21899.54842033209),
              (-1.0, -1.0, -1.0), (-0.5, 0.3, -0.8)]
# the y <= 0 form at rho <= 0, which only rounding on rare triples
# reaches: this triple's projection is made to report it
_LEFT_Y0 = (-0.25, 0.125, 1.0)


@pytest.mark.parametrize("tau", [1.0, 0.0, -1.0])
def test_jacobian_matches_sparse_product_at_synthetic_points(tau,
                                                             monkeypatch):
    project = cones._project_exp

    def left_y0(r, s, t, rho0=math.nan):
        if (r, s, t) == _LEFT_Y0:
            return r, 0.0, t, "boundary", -0.5, 1.0
        return project(r, s, t, rho0)

    monkeypatch.setattr(cones, "_project_exp", left_y0)
    dims = {"zero": 2, "nonneg": 4, "exp": 7}
    n, m = 5, 2 + 4 + 21
    rng = np.random.default_rng(7)
    A = sp.random(m, n, density=0.6, random_state=8, format="csc")
    b, c = rng.normal(size=m), rng.normal(size=n)
    b[::3], c[1] = 0.0, 0.0  # stored zeros in Q
    emb = Embedding(A, b, c, dims)
    triples = _EXP_CASES + [tuple(-np.array(_LEFT_Y0))]
    seen = set()
    for trial in range(6):
        w = np.append(rng.uniform(-3.0, 3.0, size=n + m), tau)
        # nonnegative rows inside, outside and at the kink
        w[n + 2:n + 6] = [1.5, -0.5, 0.0, 0.0]
        exp = w[n + 6:n + m].reshape(-1, 3)
        exp[:] = np.roll(triples, trial, axis=0)
        for v in exp:
            _, y, _, case, rho, _ = cones._project_exp(*-v)
            seen.add((case, y > 0.0, rho > 0.0))
        _assert_jacobian_is_the_sparse_product(emb, w)
    assert seen == {("interior", True, False), ("polar", False, False),
                    ("third", False, False), ("boundary", True, True),
                    ("boundary", False, True), ("boundary", False, False)}


def _fit_problems():
    rng = np.random.default_rng(9)
    A = Parameter("A", 40, value=0.3 * rng.normal(size=40))
    c = Parameter("c", 5, positive=True, value=rng.uniform(1.0, 2.0, 5))
    return [fitting.model_problem(rng.uniform(0.5, 2.0, 8), A, c)]


def _random_problems():
    # seed 124's optimum is not unique
    return [Problem(Minimize(obj), cons) for obj, cons, _ in (
        _random_program(np.random.default_rng(seed))
        for seed in range(100, 140) if seed != 124)]


_SOLVED = {
    "hello": lambda: [examples.hello_world()],
    "queuing": lambda: [examples.queuing()],
    "benchmark250": lambda: [examples.benchmark(n=250)],
    "benchmark500": lambda: [examples.benchmark(n=500)],
    "fit": _fit_problems,
    "random": _random_problems,
}


@pytest.mark.parametrize("name", list(_SOLVED))
def test_jacobian_matches_sparse_product_at_solve_points(name, monkeypatch):
    # every point the polish and the derivatives linearize at
    problems = _SOLVED[name]()
    points = []
    jacobian = Embedding.jacobian
    monkeypatch.setattr(Embedding, "jacobian", lambda emb, z: points.append(
        (emb, z.copy())) or jacobian(emb, z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonuniqueWarning)
        for p in problems:
            p.solve(derivatives=True)
            assert p.status == "optimal"
    monkeypatch.undo()
    assert len(points) >= len(problems)
    for emb, z in points:
        _assert_jacobian_is_the_sparse_product(emb, z)
