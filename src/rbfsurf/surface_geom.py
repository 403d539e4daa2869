"""Normals and curvature estimated from the point cloud alone.

Around each node a local implicit model of the surface is fitted: an RBF
interpolant constrained to vanish at the stencil nodes and to take the
values +1 and -1 at two points placed off the surface along a rough normal.
The gradient of that level-set function gives the unit normal; its
divergence gives the curvature ``kappa = div(n)`` (equal to 2 on the unit
sphere with the outward normal).

Per-node fits fix the normal only up to sign.  A node's sign is the parity
of the opposed-normal edges on its path to the root in the minimum spanning
tree of the stencil graph, and each connected component is flipped, if
needed, so normals point away from the centroid on average.  Curvature flips
sign together with the normal.

Each fit factors only the kernel block of its stencil nodes, the matrix of the node's operator
weights, and solves those too (they do not depend on the sign) from the r-vectors, phi'/r and
phi'' that give its normal and curvature; the frames carry them, the node set is left as it was.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ._linalg import check_conditioning, factored_blocks, refine, solve_refined
from .errors import FileFormatError, GeometryError
from .kernels import Kernel, lbo_of_rbf_rows
from .nodesets import ImplicitSurface, NodeSet, Stencil, _parse_row, _read_lines, knn_table

_COLLINEAR_TOL = 1e-10
# selection threshold on the sine of the subtended angle: the two nearest
# neighbors of a quasi-uniform node are often nearly opposite each other
# (deviation angle on the order of the local spacing), and a nearly
# collinear pair yields a tangent (useless) normal guess
_SELECTION_SIN = 0.5
_GRAD_TOL = 1e-12

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class LevelSetFit:
    """Local implicit surface model around one stencil.

    ``Psi(x) = sum_k coefficients[k] * phi(|x - centers[k]|) + constant``
    with the last two centers being the off-surface points.  The
    coefficients sum to zero (augmented-constant constraint).  Leading axes
    of ``coefficients`` (..., P), ``centers`` (..., P, 3), ``constant`` and
    ``cond`` index a batch of fits, which the ``levelset_*`` functions accept.
    """

    coefficients: np.ndarray
    constant: float
    centers: np.ndarray
    kernel: Kernel
    cond: float


@dataclass(frozen=True, eq=False)
class SurfaceFrame:
    """Per-node unit normals (N, 3) and curvatures (N,), all finite; frozen, read-only copies.
    A normal whose length is not 1 within 1e-6 raises ValueError naming its node.  Frames of
    :func:`estimate_frames` carry its weight rows as ``(nodes, m, kernel, rows, cond)``."""

    normals: np.ndarray
    curvatures: np.ndarray
    _fitted: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("normals", "curvatures"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)
        if self.normals.shape != (len(self.curvatures), 3):
            raise ValueError("normals must be (N, 3) matching curvatures (N,)")
        # the conditioning gate cannot see the frames (the kernel matrix does not involve
        # them), so a non-finite frame or a scaled normal would reach the weights unnoticed
        bad = np.flatnonzero(~(np.isfinite(self.normals).all(axis=1)
                               & np.isfinite(self.curvatures)))
        if len(bad):
            raise ValueError(f"frame of node {bad[0]} is not finite")
        lengths = np.linalg.norm(self.normals, axis=1)
        bad = np.flatnonzero(np.abs(lengths - 1.0) > 1e-6)
        if len(bad):
            raise ValueError(f"normal of node {bad[0]} has length {lengths[bad[0]]:.9g}, "
                             "not 1 within 1e-6")

    def __len__(self):
        return len(self.curvatures)


def _fit_levelsets(points, h, nodes, kernel):
    """Batched :class:`LevelSetFit` of K stencils ``points`` (K, M, 3), center first; a
    generator of ``(part, fit, weights)``, chunk by chunk, whose first step checks them all.

    The off-surface centers sit at ``h`` either side of the stencil center
    along a rough normal: nearest neighbor cross the first later point whose
    pair subtends a healthy angle at the center (sine above the selection
    threshold), else the widest pair unless collinear, which raises
    :class:`GeometryError` for the first such node of ``nodes``.  Raises
    ValueError for stencils of fewer than 5 nodes or an offset that is not positive.

    The (M + 3) system (Psi = 0 at the stencil nodes, +1 / -1 off the surface, zero-sum
    coefficients) is solved from the factors of its (M + 1) block over the stencil nodes,
    the weight system's matrix, solved for the two off-surface columns: the closed-form
    inverse of the 2 x 2 Schur complement S = C - B^T A^-1 B starts one refinement of the
    full residual.  A fit's cond is the larger of the block's and S's (1-norm, inf if
    singular).  ``weights(rows)`` turns the chunk's surface-Laplacian rows (k, M) into weight rows
    and cond by :func:`solve_refined` from the same factors; an exact zero pivot makes both NaN.
    Both refinements read one long-double copy of the block, the weights' its (M + 1) corner.
    """
    if points.shape[1] < 5:
        raise ValueError(f"level-set fit needs a stencil of at least 5 nodes, got {points.shape[1]}")
    if not np.all(h > 0):
        raise ValueError(f"off-surface offset must be positive, got {h[~(h > 0)][0]}")
    u = points[:, :1] - points[:, 1:2]
    v = points[:, :1] - points[:, 2:]
    cross = np.cross(u, v)
    scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    sin = np.divide(np.linalg.norm(cross, axis=-1), scale, out=np.zeros_like(scale),
                    where=scale > 0)
    healthy = sin >= _SELECTION_SIN
    pick = np.where(healthy.any(axis=1), healthy.argmax(axis=1), sin.argmax(axis=1))
    rows = np.arange(len(points))
    collinear = np.flatnonzero(~(sin[rows, pick] > _COLLINEAR_TOL))
    if len(collinear):
        i = int(nodes[collinear[0]])
        raise GeometryError(f"all stencil points of node {i} are collinear; "
                            "cannot orient off-surface points", node_index=i)
    guess = cross[rows, pick]
    del u, v, cross, scale, sin, healthy  # free the (K, M-2) selection arrays before the solve
    offset = h[:, None, None] * (guess / np.linalg.norm(guess, axis=-1)[:, None])[:, None]
    centers = np.concatenate([points, points[:, :1] + offset, points[:, :1] - offset], axis=1)
    m, n = points.shape[1], points.shape[1] + 1
    rhs = np.r_[np.zeros(n), 1.0, -1.0]
    for part, A, cond, solve in factored_blocks(centers, m, kernel):
        a_long = A.astype(np.longdouble)  # converted once for both refinements
        bt = A[:, n:, :n]
        z = np.array(bt, order="C")
        solve(z)
        s = A[:, n:, n:] - np.einsum("kil,kjl->kij", bt, z)
        det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular S: cond inf
            s_inv = np.swapaxes(s[:, ::-1, ::-1], 1, 2) * [[1.0, -1.0], [-1.0, 1.0]]
            s_inv /= det[:, None, None]
            s_cond = np.abs(s).sum(axis=1).max(axis=1) * np.abs(s_inv).sum(axis=1).max(axis=1)

        def schur_solve(b):
            solve(b[:, :n])
            b_off = b[:, n:] - np.einsum("kil,kl->ki", bt, b[:, :n])
            b[:, n:] = np.einsum("kij,kj->ki", s_inv, b_off)
            b[:, :n] -= np.einsum("kjl,kj->kl", z, b[:, n:])

        def weights(rows):
            bordered = np.pad(rows, ((0, 0), (0, 1)))
            return solve_refined(a_long[:, :n, :n], bordered, solve)[:, :m], cond

        d = s_inv[:, :, 0] - s_inv[:, :, 1]
        sol = np.concatenate([-np.einsum("kjl,kj->kl", z, d), d], axis=1)
        refine(a_long, sol, rhs, schur_solve)
        fit_cond = np.maximum(cond, np.where(s_cond < np.inf, s_cond, np.inf))  # NaN as inf
        yield part, LevelSetFit(np.concatenate([sol[:, :m], sol[:, n:]], axis=1), sol[:, m],
                                centers[part], kernel, fit_cond), weights


def fit_levelset(stencil: Stencil, nodes: NodeSet, kernel: Kernel, h: float):
    """Fit the local level-set interpolant for one stencil, gated: a batch of one
    through :func:`_fit_levelsets`, kept for the benchmark probes."""
    ((_, fit, _),) = _fit_levelsets(nodes.points[stencil.all_indices()][None], np.array([h]),
                                    [stencil.center_index], kernel)
    check_conditioning(fit.cond)
    return LevelSetFit(fit.coefficients[0], fit.constant[0], fit.centers[0], kernel, fit.cond[0])


def _levelset_eval(fit: LevelSetFit, x):
    """The r-vectors ``x - centers`` (..., P, 3), their lengths and phi'/r (..., P), and the
    gradient of the fitted Psi at a point (chain rule through phi(r))."""
    rv = np.asarray(x, dtype=float)[..., None, :] - fit.centers
    r = np.linalg.norm(rv, axis=-1)
    # phi'(r)/r is finite at r = 0 and the r-vector vanishes there, so the
    # center contributes nothing, as it should.
    dphi_over_r = fit.kernel.dphi_over_r(r)
    return rv, r, dphi_over_r, np.einsum("...j,...jd->...d", dphi_over_r * fit.coefficients, rv)


def _gradient_norm(g, nodes=None):
    """Norm of a gradient; a vanishing one raises, naming its node if given row ids."""
    norm = np.linalg.norm(g, axis=-1)
    vanished = np.flatnonzero(norm <= _GRAD_TOL)
    if len(vanished):
        j = int(vanished[0])
        node = None if nodes is None else int(nodes[j])
        at = "" if node is None else f" at node {node}"
        raise GeometryError(f"level-set gradient vanished{at} (|grad| = {norm.flat[j]:.3e})",
                            node_index=node)
    return norm


def levelset_normal(fit: LevelSetFit, x):
    """Unit normal grad(Psi)/|grad(Psi)| at a point."""
    g = _levelset_eval(fit, x)[3]
    return g / _gradient_norm(g)[..., None]


def levelset_curvature(fit: LevelSetFit, x, normal):
    """Curvature div(n) of the fitted level set at a point.

    ``normal`` is the unit normal at ``x`` (only its direction squared
    enters, so the sign does not matter here).  It is the coefficients times
    the operator weights' surface-Laplacian row at kappa = 0, over |grad Psi|.
    """
    rv, r, dphi_over_r, g = _levelset_eval(fit, x)
    terms = lbo_of_rbf_rows(rv, r, (dphi_over_r, fit.kernel.d2phi(r)),
                            np.asarray(normal, dtype=float), 0.0)
    return (np.einsum("...j,...j->...", fit.coefficients, terms) / _gradient_norm(g))[()]


def _orientation(points, normals, indices, distances):
    """The (N,) signs that make the normals globally consistent.

    A node's sign is the parity of the opposed-normal edges (negative dot) on
    its path to its component's lowest index in the minimum spanning tree of
    the stencil graph, edges weighted by length (short edges join nodes with
    nearly parallel true normals; wide stencils also join antipodal ones): one
    shortest-path pass with opposed edges of length 1, all others of length 2.
    Each component is then flipped if its mean normal points toward the centroid.
    """
    n = len(points)
    # the tree reads the graph as undirected: (i, j) and (j, i) are one edge
    graph = sparse.csr_matrix(
        (distances[:, 1:].ravel(), (np.repeat(indices[:, 0], indices.shape[1] - 1),
                                    indices[:, 1:].ravel())), shape=(n, n))
    tree = csgraph.minimum_spanning_tree(graph).tocoo()
    _, labels = csgraph.connected_components(tree, directed=False)
    tree.data = 2.0 - (np.einsum("ij,ij->i", normals[tree.row], normals[tree.col]) < 0)
    path = csgraph.dijkstra(tree, directed=False, indices=np.unique(labels, return_index=True)[1],
                            min_only=True)
    sign = 1.0 - 2.0 * (path % 2)
    outward = np.einsum("ij,ij->i", normals, points - points.mean(axis=0)) * sign
    sign[(np.bincount(labels, outward) < 0)[labels]] *= -1.0
    return sign


def estimate_frames(nodes: NodeSet, m: int, kernel: Kernel):
    """Estimate the SurfaceFrame at every node of a point cloud.

    Each node gets an independent level-set fit over its M-node stencil, with the off-surface
    offset equal to the nearest-neighbor distance; a deterministic orientation pass then fixes
    the global sign.  The fits run in chunks that also solve the nodes' operator weight rows,
    which the frames carry to :func:`assemble_operator` for these nodes, M and kernel; ``nodes``
    is left as it was, its kNN cache aside.  A collinear stencil raises first, then the gate on
    each fit's cond (the larger of its (M + 1) block's and its 2 x 2 Schur complement's), then a
    vanishing gradient, each naming its node.  With DEBUG on, one record on this module's logger
    (values also in its ``stats``) gives N and the seconds of the fits and rows, the gate and
    the orientation.
    """
    started = time.perf_counter()
    indices, distances = knn_table(nodes, m)
    ids, n = indices[:, 0], len(nodes)
    g, normals, curvatures = np.empty((n, 3)), np.empty((n, 3)), np.empty(n)
    fit_cond, rows, cond = np.empty(n), np.empty((n, m)), np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # the gate and gradient check follow
        for part, fit, weights in _fit_levelsets(nodes.points[indices], distances[:, 1], ids,
                                                 kernel):
            rv, r, dphi_over_r, g[part] = _levelset_eval(fit, fit.centers[:, 0])
            radial = dphi_over_r, kernel.d2phi(r)
            grad_norm = np.linalg.norm(g[part], axis=-1)
            normals[part] = g[part] / grad_norm[:, None]
            curvatures[part] = np.einsum("...j,...j->...", fit.coefficients, lbo_of_rbf_rows(
                rv, r, radial, normals[part], 0.0)) / grad_norm
            fit_cond[part] = fit.cond
            rows[part], cond[part] = weights(lbo_of_rbf_rows(  # the first m centers: the stencil
                rv[:, :m], r[:, :m], [t[:, :m] for t in radial], normals[part], curvatures[part]))
    fit_s = time.perf_counter() - started
    check_conditioning(fit_cond, ids)
    _gradient_norm(g, ids)
    gate_s = time.perf_counter() - started - fit_s
    sign = _orientation(nodes.points, normals, indices, distances)
    if logger.isEnabledFor(logging.DEBUG):
        seconds = time.perf_counter() - started
        stats = {"n": n, "fit_s": fit_s, "gate_s": gate_s, "orient_s": seconds - fit_s - gate_s,
                 "seconds": seconds}
        logger.debug("frame estimate: %s", stats, extra={"stats": stats})
    frames = SurfaceFrame(normals * sign[:, None], curvatures * sign)
    object.__setattr__(frames, "_fitted", (nodes, m, kernel, rows, cond))
    return frames


def analytic_frames(surface: ImplicitSurface, points):
    """Exact frames of an implicit surface, oriented along grad(F); curvature is
    ``div(grad F / |grad F|) = (lap F - n.H.n) / |grad F|``.
    """
    points = np.asarray(points, dtype=float)
    g = surface.gradF(points)
    norms = _gradient_norm(g, range(len(points)))
    n = g / norms[:, None]
    H = surface.hessF(points)
    lap = np.trace(H, axis1=-2, axis2=-1)
    nHn = np.einsum("...i,...ij,...j->...", n, H, n)
    return SurfaceFrame(n, (lap - nHn) / norms)


# ---------------------------------------------------------------------------
# frame CSV I/O
# ---------------------------------------------------------------------------

FRAME_CSV_HEADER = "x,y,z,nx,ny,nz,kappa"


def save_frames(nodes: NodeSet, frames: SurfaceFrame, path):
    """Write frames as CSV with columns x,y,z,nx,ny,nz,kappa, node order preserved."""
    if len(frames) != len(nodes):
        raise ValueError("frame count does not match node count")
    data = np.column_stack([nodes.points, frames.normals, frames.curvatures])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=FRAME_CSV_HEADER, comments="")


def load_frames(path):
    """Read a frame CSV, header line first; returns (points, SurfaceFrame) in file order."""
    lines = _read_lines(path, sep=",")
    line_no, fields = next(lines, (1, []))
    if fields != FRAME_CSV_HEADER.split(","):
        raise FileFormatError(f"line {line_no}: expected the header {FRAME_CSV_HEADER}", line_no)
    data = np.array([_parse_row(k, row, 7) for k, row in lines], dtype=float).reshape(-1, 7)
    return data[:, :3], SurfaceFrame(data[:, 3:6], data[:, 6])
