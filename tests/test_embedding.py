"""The homogeneous self-dual embedding: Q as a map of the data, and M as
the Jacobian of F."""

import copy
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import embedding, examples, fitting
from llcp.diff import dphi
from llcp.embedding import Embedding
from llcp.expr import Parameter
from llcp.problem import solve_many
from llcp.solver import solve

from oracles import central_jacobian, planted_regular_program


@pytest.mark.parametrize("seed", range(5))
def test_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    A, b, c, dims, *_ = planted_regular_program(rng, 5, ne=2)
    A = sp.csc_matrix(A)
    sol = solve(A, b, c, dims, eps=1e-11)
    assert sol.status == "optimal"
    emb = Embedding(A, b, c, dims)
    z0 = np.concatenate([sol.x, sol.y - sol.s, [1.0]])
    checked = 0
    for z in (z0, z0 + 1e-2 * rng.normal(size=z0.size)):
        J = emb.jacobian(z)
        if J.nonsmooth:
            continue
        fd = central_jacobian(emb.residual, z, h=1e-6)
        err = np.linalg.norm(J.M.toarray() - fd) / np.linalg.norm(fd)
        assert err <= 1e-6
        checked += 1
    assert checked


def bmat_Q(A, b, c):
    """Q written out block by block: the reference for Embedding.Q_of."""
    b, c = b.reshape(-1, 1), c.reshape(-1, 1)
    return sp.bmat([[None, A.T, sp.csc_matrix(c)],
                    [-A, None, sp.csc_matrix(b)],
                    [sp.csc_matrix(-c.T), sp.csc_matrix(-b.T), None]],
                   format="csc")


def nonneg(m):
    return {"zero": 0, "nonneg": m, "exp": 0}


def halves():
    """A 1x1 A = [-1] stored as two entries of -0.5."""
    return sp.csc_matrix((np.array([-0.5, -0.5]), np.array([0, 0]),
                          np.array([0, 2])), shape=(1, 1))


def map_cases():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.6)
    b = np.array([1.0, 0.0, -2.0, 0.0, 0.5])
    c = np.array([0.0, 3.0, 0.0, -1.0])
    yield "zeros in b and c", sp.csc_matrix(dense), b, c
    stored_zero = sp.csc_matrix(
        (np.array([2.0, 0.0, -1.0, 0.0]), np.array([0, 2, 1, 0]),
         np.array([0, 2, 3, 4])), shape=(3, 3))
    yield "stored zeros in A", stored_zero, np.zeros(3), np.ones(3)
    yield "duplicate entries in A", halves(), np.array([-2.0]), np.array([1.0])
    unsorted = sp.csc_matrix(
        (np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([2, 0, 2, 1, 1]),
         np.array([0, 3, 5])), shape=(3, 2))
    yield "unsorted duplicates in A", unsorted, rng.normal(size=3), \
        rng.normal(size=2)
    yield "m = 0", sp.csc_matrix((0, 3)), np.zeros(0), rng.normal(size=3)
    yield "n = 0", sp.csc_matrix((3, 0)), rng.normal(size=3), np.zeros(0)


def theta_of(A, b, c):
    """theta = (A.data, b, c) on A with its duplicate entries summed."""
    A = A.copy()
    A.sum_duplicates()
    return np.concatenate([A.data, b, c])


@pytest.mark.parametrize("case", list(map_cases()), ids=lambda t: t[0])
def test_Q_of_matches_block_assembly(case):
    _, A, b, c = case
    emb = Embedding(A, b, c, nonneg(A.shape[0]))
    want = bmat_Q(A, b, c).toarray()
    assert np.array_equal(emb.Q.toarray(), want)
    assert np.array_equal(emb.Q_of(theta_of(A, b, c)).toarray(), want)


def test_duplicate_entries_enter_Q_once():
    Q = Embedding(halves(), np.array([-2.0]), np.array([1.0]), nonneg(1)).Q
    assert Q[0, 1] == -1.0 and Q[1, 0] == 1.0 and Q[1, 2] == -2.0


@pytest.mark.parametrize("case", list(map_cases()), ids=lambda t: t[0])
def test_Q_of_adjoint_is_the_adjoint(case):
    _, A, b, c = case
    emb = Embedding(A, b, c, nonneg(A.shape[0]))
    rng = np.random.default_rng(12)
    N = emb.n + emb.m + 1
    for _ in range(5):
        dtheta = rng.normal(size=emb.theta_size)
        r, u = rng.normal(size=N), rng.normal(size=N)
        lhs = float(r @ (emb.Q_of(dtheta) @ u))
        rhs = float(emb.Q_of_adjoint(r, u) @ dtheta)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_derivative_solve_builds_one_embedding(monkeypatch):
    built = []
    init = Embedding.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Embedding, "__init__", counted)
    problem = examples.hello_world()
    problem.solve(derivatives=True)
    problem.derivative()
    problem.backward()
    assert len(built) == 1
    assert problem._point.embedding is problem.solution.embedding
    # a warm re-solve gathers its Q on the workspace's pattern: no assembly
    first = problem.solution.embedding
    a = problem.parameters[0]
    a.set_value(1.01 * a.value)
    problem.solve(derivatives=True)
    problem.derivative()
    problem.backward()
    assert problem.status == "optimal"
    assert len(built) == 1
    assert problem._point.embedding is problem.solution.embedding
    assert problem.solution.embedding is not first


def test_resolve_leaves_held_embedding_and_point_unchanged():
    rng = np.random.default_rng(4)
    problem = examples.benchmark(n=60)
    problem.solve(derivatives=True)
    sol, point = problem.solution, problem._point
    Q, M = sol.embedding.Q, point.jacobian.M

    def held():
        return [a.tobytes() for a in (Q.data, Q.indices, Q.indptr, M.data,
                                      M.indices, M.indptr, point.u, point.z)]

    before = held()
    dtheta = rng.normal(size=sol.embedding.theta_size)
    dx = dphi(point, dtheta)
    params = {p.name: p for p in problem.parameters}
    for name in ("c", "u"):
        params[name].set_value(1.02 * params[name].value)
    problem.solve(derivatives=True)
    assert problem.status == "optimal"
    assert problem.solution.embedding is not sol.embedding
    assert sol.embedding.Q is Q and point.jacobian.M is M
    assert held() == before
    assert dphi(point, dtheta).tobytes() == dx.tobytes()


# -- one map of M's pattern per workspace -------------------------------------


def _counted_maps(monkeypatch):
    builds = []
    build = embedding._JacobianMap._build
    monkeypatch.setattr(embedding._JacobianMap, "_build", staticmethod(
        lambda *args: builds.append(1) or build(*args)))
    return builds


def test_one_map_along_a_sweep(monkeypatch):
    # ten solves with derivatives, each warm from the last: the polish
    # and derivative points of all of them fill one map
    builds = _counted_maps(monkeypatch)
    p = examples.benchmark(n=500)
    params = {q.name: q for q in p.parameters}
    for step in range(10):
        for name in ("c", "u"):
            params[name].set_value((1.0 + 0.01 * step) * params[name].value)
        p.solve(derivatives=True)
        assert p.status == "optimal"
    assert len(builds) == 1


def test_one_map_for_a_batch(monkeypatch):
    # fit's programs share one cone matrix and so one workspace
    builds = _counted_maps(monkeypatch)
    rng = np.random.default_rng(5)
    A = Parameter("A", 40, value=0.3 * rng.normal(size=40))
    c = Parameter("c", 5, positive=True, value=rng.uniform(1.0, 2.0, 5))
    problems = [fitting.model_problem(x, A, c)
                for x in rng.uniform(0.5, 2.0, size=(8, 8))]
    for scale in (1.0, 1.01):
        c.set_value(scale * c.value)
        solve_many(problems, derivatives=True)
        assert all(p.status == "optimal" for p in problems)
    assert len({id(p._workspace) for p in problems}) == 1
    assert len(builds) == 1


def test_a_problem_compiled_afresh_builds_its_own_map(monkeypatch):
    builds = _counted_maps(monkeypatch)
    first, second = examples.hello_world(), examples.hello_world()
    first.solve(derivatives=True)
    assert len(builds) == 1
    second.solve(derivatives=True)
    assert len(builds) == 2
    assert (first.solution.embedding._jmap
            is not second.solution.embedding._jmap)


def test_threads_that_linearize_first_build_one_map(monkeypatch):
    # copies of a fresh embedding linearize at once, more threads than
    # cores, with frequent switches; the first build is held open while
    # the others ask for the map
    rng = np.random.default_rng(6)
    A, b, c, dims, *_ = planted_regular_program(rng, 5, ne=2)
    A = sp.csc_matrix(A)
    sol = solve(A, b, c, dims)
    z = np.concatenate([sol.x, sol.y - sol.s, [1.0]])
    emb = Embedding(A, b, c, dims)
    k = 2 * (os.cpu_count() or 1) + 2
    copies = [emb.at(theta_of(A, b, c)) for _ in range(k)]
    builds = []
    build = embedding._JacobianMap._build

    def slow(*args):
        builds.append(1)
        time.sleep(0.1)
        return build(*args)

    monkeypatch.setattr(embedding._JacobianMap, "_build", staticmethod(slow))
    out = [None] * k
    start = threading.Barrier(k, timeout=30)

    def linearize(p):
        start.wait()
        out[p] = copies[p].jacobian(z).M

    threads = [threading.Thread(target=linearize, args=(p,))
               for p in range(k)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert out[0].nnz and all((M != out[0]).nnz == 0 for M in out)
    assert (emb.jacobian(z).M != out[0]).nnz == 0 and len(builds) == 1


def test_an_embedding_with_its_map_copies_and_pickles():
    # the map holds arrays only, so a solved embedding still pickles
    p = examples.hello_world()
    p.solve(derivatives=True)
    emb, z = p.solution.embedding, p._point.z
    for other in (copy.deepcopy(emb), pickle.loads(pickle.dumps(emb))):
        assert (other.jacobian(z).M != emb.jacobian(z).M).nnz == 0
