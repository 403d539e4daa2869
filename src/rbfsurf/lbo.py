"""RBF-FD approximation of the Laplace-Beltrami operator.

The surface Laplacian of a radial function centered at ``x_i``, evaluated at
a point with unit normal ``n`` and curvature ``kappa``, has the closed form

    (1 + (r.n)^2/r^2 - kappa*(r.n)) * phi'(r)/r
    + (1 - (r.n)^2/r^2) * phi''(r)

with ``r`` the vector from the evaluation point to ``x_i`` (``kernels.lbo_of_rbf_rows``).
Each stencil's weights come from the augmented interpolation system (constant term included,
which forces every weight row to sum to zero), all stencils solved as one batch by
``_linalg.solve_refined``, as the fits of ``estimate_frames`` solve the rows their frames
carry from their own radial terms; rows are stacked into a sparse N x N differentiation matrix.
``StencilGeometry`` and ``stencil_weights`` are one-stencil entry points to
the same batched solve, kept for the benchmark's per-layer probes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec  # private: the kernel of `csr @ vector`

from ._linalg import check_conditioning, factored_blocks, solve_refined
from .kernels import Kernel, lbo_of_rbf_rows
from .nodesets import NodeSet, Stencil, _parse_row, _read_lines, knn_table
from .surface_geom import SurfaceFrame

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
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

    Right-hand sides are :func:`lbo_of_rbf_rows` from the center.  The constant's unknown is
    solved for and discarded; its constraint row makes each row sum to zero.  No gate is applied.
    """
    r = points[:, :1] - points
    d = np.linalg.norm(r, axis=-1)
    rhs = np.pad(lbo_of_rbf_rows(r, d, (kernel.dphi_over_r(d), kernel.d2phi(d)), normals,
                                 curvatures), ((0, 0), (0, 1)))
    w, cond = np.empty(points.shape[:2]), np.empty(len(points))
    for part, A, part_cond, solve in factored_blocks(points, points.shape[1], kernel):
        w[part], cond[part] = solve_refined(A, rhs[part], solve)[:, :-1], part_cond
    return w, cond


def stencil_weights(geom: StencilGeometry, kernel: Kernel, gate=True, return_cond=False):
    """The M weights of one stencil (a batch of one), gated by default, and its cond
    with ``return_cond``."""
    w, cond = _weight_rows(geom.points[None], geom.normal[None], np.array([geom.curvature]),
                           kernel)
    if gate:
        check_conditioning(cond)
    return (w[0], cond[0]) if return_cond else w[0]


def _carried_rows(nodes, frames, m, kernel, ctr=slice(None)):
    """Rows and cond of ``ctr`` if ``frames`` came from ``estimate_frames(nodes, m, kernel)``."""
    fit = frames._fitted
    if fit is not None and fit[0] is nodes and fit[1:3] == (m, kernel):
        return fit[3][ctr], fit[4][ctr]


def weight_table(nodes: NodeSet, frames: SurfaceFrame, m: int, kernel: Kernel, centers=None):
    """Stencil indices (K, M), center first, weight rows and cond of many nodes at once.

    Frames that :func:`estimate_frames` returned for ``nodes``, this M and kernel bring
    their rows, a fresh solve's bit for bit: the orientation's flips do not change them.
    Other frames are solved.  No gate is applied; see :func:`check_conditioning`.
    """
    indices, _ = knn_table(nodes, m, centers)
    ctr = indices[:, 0]
    return (indices, *(_carried_rows(nodes, frames, m, kernel, ctr) or _weight_rows(
        nodes.points[indices], frames.normals[ctr], frames.curvatures[ctr], kernel)))


def assemble_operator(nodes: NodeSet, frames: SurfaceFrame, m: int, kernel: Kernel):
    """Assemble the sparse N x N differentiation matrix, M weights per row.

    Row i holds the stencil weights of node i at its stencil's columns.
    Rows are independent, so assembly order cannot change the values.
    Conditioning failures are collected and reported together with the
    offending node indices.  With DEBUG on, one record on this module's logger
    (values also in its ``stats``) gives the largest |row sum|, its row, the
    min, median and max stencil radius (distance to the M-th neighbour), whether
    the frames brought their rows (see :func:`weight_table`), and the seconds taken.
    """
    started = time.perf_counter()
    n = len(nodes)
    if len(frames) != n:
        raise ValueError("frames must cover every node")

    indices, w, cond = weight_table(nodes, frames, m, kernel)
    check_conditioning(cond, indices[:, 0])
    op = SparseOperator(sparse.csr_matrix((w.ravel(), indices.ravel(),
                                           np.arange(0, (n + 1) * m, m)), shape=(n, n)))
    if logger.isEnabledFor(logging.DEBUG):
        sums, radii = np.abs(op.row_sums()), knn_table(nodes, m)[1][:, -1]
        stats = {"rowsum_max": float(sums.max()), "rowsum_argmax": int(sums.argmax()),
                 "radius_min": float(radii.min()), "radius_median": float(np.median(radii)),
                 "radius_max": float(radii.max()),
                 "rows_reused": _carried_rows(nodes, frames, m, kernel) is not None,
                 "seconds": time.perf_counter() - started}
        logger.debug("operator health: %s", stats, extra={"stats": stats})
    return op


class SparseOperator:
    """Sparse differentiation matrix, made canonical CSR in place: sorted, distinct row columns."""

    def __init__(self, matrix):
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1] or not matrix.shape[0]:
            raise ValueError(f"operator must be square with N >= 1, got shape {matrix.shape}")
        if np.iscomplexobj(matrix.data):
            raise ValueError(f"operator must be real, got dtype {matrix.dtype}")
        matrix.sum_duplicates()  # sorts each row, sums a repeated column into one entry
        self.matrix, self.n = matrix, matrix.shape[0]

    def apply(self, field):
        """Matrix-vector product against a nodal field (N,) or a stack of them (k, N):
        one CSR kernel call per row, bit for bit ``matrix @ row`` without SciPy's dispatch."""
        field = np.asarray(field, dtype=float)
        n, a = self.n, self.matrix
        if field.ndim not in (1, 2) or field.shape[-1] != n:
            raise ValueError(f"field shape {field.shape} does not match (N,) or (k, N), N={n}")
        out = np.zeros(field.shape)
        rows, out_rows = field.reshape(-1, n), out.reshape(-1, n)
        for k in range(len(rows)):  # indexing makes views faster than iterating does
            csr_matvec(n, n, a.indptr, a.indices, a.data, rows[k], out_rows[k])
        return out

    def row_sums(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def save(self, path):
        """Text format: header ``N M``, then 0-based ``row col weight`` triplets in (row, col)
        order.  Raises ValueError, writing nothing, unless every row holds M >= 1 finite weights."""
        counts = np.diff(self.matrix.indptr)
        m, r = max(counts.max(), 1), counts.argmin()  # the first shortest row
        if counts[r] != m:
            raise ValueError(f"cannot save: row {r} holds {counts[r]} entries, not M={m}")
        if not np.all(np.isfinite(self.matrix.data)):
            raise ValueError("operator weights must be finite")
        coo = self.matrix.tocoo()
        np.savetxt(path, np.column_stack([coo.row, coo.col, coo.data]), fmt=["%d", "%d", "%.17g"],
                   header=f"{self.n} {m}", comments="", encoding="utf-8")

    @classmethod
    def load(cls, path):
        """Read the :meth:`save` format; the entries may come in any order.

        Raises FileFormatError on a line that is not two integers and a number
        (two integers for the header), and ValueError unless every row holds
        exactly M finite weights at distinct columns, with every index in [0, N).
        """
        lines = _read_lines(path)
        n, m = map(int, _parse_row(*next(lines, (1, [])), 2, integral=2))
        if not 1 <= m <= n:
            raise ValueError(f"operator header needs N >= 1 and 1 <= M <= N, got N={n} M={m}")
        data = np.array([_parse_row(k, row, 3, integral=2) for k, row in lines],
                        dtype=float).reshape(-1, 3)
        rows, cols, vals = data.T
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError(f"operator indices must lie in [0, {n})")
        if not np.all(np.isfinite(vals)):
            raise ValueError("operator weights must be finite")
        if len(rows) != n * m:  # before any array of the header's size N
            raise ValueError(f"operator holds {len(rows)} entries, header N={n} M={m} "
                             f"needs {n * m}")
        op = cls(sparse.csr_matrix((vals, (rows.astype(np.intp), cols.astype(np.intp))),
                                   shape=(n, n)))
        # of N*M entries, a long row leaves another short, and repeats are summed into one
        counts = np.diff(op.matrix.indptr)
        r = int(np.argmax(counts < m))  # the first short row, if any
        if counts[r] < m:
            raise ValueError(f"row {r} holds {counts[r]} distinct columns, expected M={m}")
        return op
