"""The homogeneous self-dual embedding: M is the Jacobian of F."""

import numpy as np
import pytest
import scipy.sparse as sp

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
        M, _, nonsmooth = emb.jacobian(z)
        if nonsmooth:
            continue
        fd = central_jacobian(emb.residual, z, h=1e-6)
        err = np.linalg.norm(M.toarray() - fd) / np.linalg.norm(fd)
        assert err <= 1e-6
        checked += 1
    assert checked
