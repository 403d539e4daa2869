"""RBF-FD approximation of the Laplace-Beltrami operator.

The surface Laplacian of a radial function centered at ``x_i``, evaluated at
a point with unit normal ``n`` and curvature ``kappa``, has the closed form

    (1 + (r.n)^2/r^2 - kappa*(r.n)) * phi'(r)/r
    + (1 - (r.n)^2/r^2) * phi''(r)

with ``r`` the vector from the evaluation point to ``x_i``.  Each stencil's
weights come from the augmented interpolation system (constant term
included, which forces every weight row to sum to zero), all stencils solved
as one batch; rows are stacked into a sparse N x N differentiation matrix.
``StencilGeometry`` and ``stencil_weights`` are one-stencil entry points to
the same batched solve, kept for the benchmark's per-layer probes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec  # private: the kernel of `csr @ vector`

from ._linalg import check_conditioning, solve_rbf_systems
from .kernels import Kernel, lbo_of_rbf_rows
from .nodesets import NodeSet, Stencil, knn_table
from .surface_geom import SurfaceFrame

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StencilGeometry:
    """One stencil's points (M, 3), center first, and the center's normal and curvature."""

    points: np.ndarray
    normal: np.ndarray
    curvature: float

    @classmethod
    def from_stencil(cls, nodes: NodeSet, stencil: Stencil, frames: SurfaceFrame):
        i = stencil.center_index
        return cls(nodes.points[stencil.all_indices()], frames.normals[i], frames.curvatures[i])


def _weight_rows(points, normals, curvatures, kernel):
    """Weight rows (K, M) and cond (K,) of K stencils ``points`` (K, M, 3), center first.

    The unknown of the constant basis function is solved for and discarded;
    its constraint row makes each row sum to zero.  No gate is applied.
    """
    r = points[:, :1] - points
    rows = lbo_of_rbf_rows(kernel, r, np.linalg.norm(r, axis=-1), normals, curvatures)
    sol, cond = solve_rbf_systems(points, np.pad(rows, ((0, 0), (0, 1))), kernel)
    return sol[:, :-1], cond


def stencil_weights(geom: StencilGeometry, kernel: Kernel, gate=True, return_cond=False):
    """The M weights of one stencil (a batch of one), gated by default, and its cond
    with ``return_cond``."""
    w, cond = _weight_rows(geom.points[None], geom.normal[None], np.array([geom.curvature]),
                           kernel)
    if gate:
        check_conditioning(cond)
    return (w[0], cond[0]) if return_cond else w[0]


def weight_table(nodes: NodeSet, frames: SurfaceFrame, m: int, kernel: Kernel, centers=None):
    """Stencil indices (K, M), center first, weight rows and cond of many nodes at once.

    No gate is applied; see :func:`check_conditioning`.
    """
    indices, _ = knn_table(nodes, m, centers)
    ctr = indices[:, 0]
    return (indices, *_weight_rows(nodes.points[indices], frames.normals[ctr],
                                   frames.curvatures[ctr], kernel))


def assemble_operator(nodes: NodeSet, frames: SurfaceFrame, m: int, kernel: Kernel):
    """Assemble the sparse N x N differentiation matrix, M weights per row.

    Row i holds the stencil weights of node i at its stencil's columns.
    Rows are independent, so assembly order cannot change the values.
    Conditioning failures are collected and reported together with the
    offending node indices.  With DEBUG on, one record on this module's logger
    (values also in its ``stats``) gives the largest |row sum|, its row, and the
    min, median and max stencil radius (distance to the M-th neighbour).
    """
    n = len(nodes)
    if len(frames) != n:
        raise ValueError("frames must cover every node")

    indices, w, cond = weight_table(nodes, frames, m, kernel)
    check_conditioning(cond, indices[:, 0])
    order = np.argsort(indices, axis=1)
    matrix = sparse.csr_matrix(
        (np.take_along_axis(w, order, axis=1).ravel(),
         np.take_along_axis(indices, order, axis=1).ravel(), np.arange(0, (n + 1) * m, m)),
        shape=(n, n))
    op = SparseOperator(matrix, stencil_size=m)
    if logger.isEnabledFor(logging.DEBUG):
        sums, radii = np.abs(op.row_sums()), knn_table(nodes, m)[1][:, -1]
        stats = {"rowsum_max": float(sums.max()), "rowsum_argmax": int(sums.argmax()),
                 "radius_min": float(radii.min()), "radius_median": float(np.median(radii)),
                 "radius_max": float(radii.max())}
        logger.debug("operator health: %s", stats, extra={"stats": stats})
    return op


class SparseOperator:
    """Sparse differentiation matrix with a fixed number of entries per row."""

    def __init__(self, matrix, stencil_size):
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator must be square")
        if np.iscomplexobj(matrix.data):
            raise ValueError(f"operator must be real, got dtype {matrix.dtype}")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self.stencil_size = int(stencil_size)

    def apply(self, field):
        """Matrix-vector product against a nodal field (N,) or a stack of them (k, N):
        one CSR kernel call per row, bit for bit ``matrix @ row`` without SciPy's dispatch."""
        field = np.asarray(field, dtype=float)
        n, a = self.n, self.matrix
        if field.ndim not in (1, 2) or field.shape[-1] != n:
            raise ValueError(f"field shape {field.shape} does not match (N,) or (k, N), N={n}")
        out = np.zeros(field.shape)
        for row, out_row in zip(field.reshape(-1, n), out.reshape(-1, n)):
            csr_matvec(n, n, a.indptr, a.indices, a.data, row, out_row)
        return out

    def row_sums(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def save(self, path):
        """Text format: header ``N M``, then 0-based ``row col weight`` triplets."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.n} {self.stencil_size}\n")
            for r, c, w in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{r} {c} {w:.17g}\n")

    @classmethod
    def load(cls, path):
        """Read the :meth:`save` format.

        Raises ValueError unless every row holds exactly M finite weights
        at distinct columns, with every index in [0, N).
        """
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().split()
            if len(first) != 2:
                raise ValueError("operator file must start with an 'N M' header")
            n, m = int(first[0]), int(first[1])
            if not 1 <= m <= n:
                raise ValueError(f"operator header needs N >= 1 and 1 <= M <= N, got N={n} M={m}")
            rows, cols, vals = [], [], []
            for line in fh:
                if not line.strip():
                    continue
                r, c, w = line.split()
                rows.append(int(r))
                cols.append(int(c))
                vals.append(float(w))
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        vals = np.array(vals)
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError(f"operator indices must lie in [0, {n})")
        if not np.all(np.isfinite(vals)):
            raise ValueError("operator weights must be finite")
        counts = np.bincount(rows, minlength=n)
        if np.any(counts != m):
            r = int(np.flatnonzero(counts != m)[0])
            raise ValueError(f"row {r} has {counts[r]} entries, expected M={m}")
        # sorted by (row, col), the entries form N blocks of M columns each
        row_cols = cols[np.lexsort((cols, rows))].reshape(n, m)
        repeated = np.flatnonzero((np.diff(row_cols, axis=1) == 0).any(axis=1))
        if len(repeated):
            raise ValueError(f"row {repeated[0]} repeats a column")
        return cls(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)), stencil_size=m)
