"""A fixed reference load that tracks how fast the machine runs right now.

The load uses numpy and scipy only, never rbfsurf, so no change to the
program can change its cost.  It mixes the kinds of work the workloads do:
a per-node loop of small dense solves, small-vector arithmetic around a
sparse matvec, and one small dense eigenproblem.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import linalg as sla
from scipy import sparse
from scipy.spatial.distance import cdist


class ReferenceLoad:
    """The reference inputs, built once; ``seconds()`` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.stencils = rng.standard_normal((800, 32, 3))
        self.rhs = rng.standard_normal(33)
        self.matrix = sparse.random(2000, 2000, density=31 / 2000, random_state=0, format="csr")
        self.state = rng.standard_normal((2, 2000))
        self.dense = rng.standard_normal((200, 200))

    def seconds(self):
        start = perf_counter()
        for points in self.stencils:
            system = np.ones((33, 33))
            system[:32, :32] = np.exp(-(2.0 * cdist(points, points)) ** 2)
            system[32, 32] = 0.0
            lu, piv = sla.lu_factor(system, check_finite=False)
            sla.lapack.dgecon(lu, 1.0, norm="1")
            sla.lu_solve((lu, piv), self.rhs, check_finite=False)
        y = self.state
        for _ in range(600):
            y = 0.5 * y + 0.1 * np.tanh(self.state + 1e-3 * (y @ self.matrix.T))
        sla.eigvals(self.dense)
        return perf_counter() - start
