"""The homogeneous self-dual embedding: Q as a map of the data, and M as
the Jacobian of F."""

import numpy as np
import pytest
import scipy.sparse as sp

from llcp import examples
from llcp.diff import dphi
from llcp.embedding import Embedding
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
