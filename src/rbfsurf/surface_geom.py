"""Normals and curvature estimated from the point cloud alone.

Around each node a local implicit model of the surface is fitted: an RBF
interpolant constrained to vanish at the stencil nodes and to take the
values +1 and -1 at two points placed off the surface along a rough normal.
The gradient of that level-set function gives the unit normal; its
divergence gives the curvature ``kappa = div(n)`` (equal to 2 on the unit
sphere with the outward normal).

Per-node fits fix the normal only up to sign.  A pass along the minimum
spanning tree of the stencil graph makes the signs globally consistent, and
each connected component is flipped, if needed, so normals point away from
the centroid on average.  Curvature flips sign together with the normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ._linalg import check_conditioning, solve_rbf_systems
from .errors import GeometryError
from .kernels import Kernel, lbo_of_rbf_rows
from .nodesets import ImplicitSurface, NodeSet, Stencil, knn_table

_COLLINEAR_TOL = 1e-10
# selection threshold on the sine of the subtended angle: the two nearest
# neighbors of a quasi-uniform node are often nearly opposite each other
# (deviation angle on the order of the local spacing), and a nearly
# collinear pair yields a tangent (useless) normal guess
_SELECTION_SIN = 0.5
_GRAD_TOL = 1e-12


@dataclass(frozen=True)
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


@dataclass
class SurfaceFrame:
    """Per-node unit normals (N, 3) and curvatures (N,), all finite; read-only copies."""

    normals: np.ndarray
    curvatures: np.ndarray

    def __post_init__(self):
        self.normals = np.array(self.normals, dtype=float)
        self.curvatures = np.array(self.curvatures, dtype=float)
        self.normals.setflags(write=False)
        self.curvatures.setflags(write=False)
        if self.normals.shape != (len(self.curvatures), 3):
            raise ValueError("normals must be (N, 3) matching curvatures (N,)")
        # the conditioning gate cannot see the frames: the kernel matrix
        # does not involve them, so a non-finite one would reach the weights
        bad = np.flatnonzero(~(np.isfinite(self.normals).all(axis=1)
                               & np.isfinite(self.curvatures)))
        if len(bad):
            raise ValueError(f"frame of node {bad[0]} is not finite")

    def __len__(self):
        return len(self.curvatures)


def _fit_levelsets(points, h, nodes, kernel):
    """Batched :class:`LevelSetFit` of K stencils ``points`` (K, M, 3), center first.

    The off-surface centers sit at ``h`` either side of the stencil center
    along a rough normal: nearest neighbor cross the first later point whose
    pair subtends a healthy angle at the center (sine above the selection
    threshold), else the widest pair unless collinear, which raises
    :class:`GeometryError` for the first such node of ``nodes``.  Raises
    ValueError for stencils of fewer than 5 nodes or an offset that is not positive.
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
    offset = h[:, None, None] * (guess / np.linalg.norm(guess, axis=-1)[:, None])[:, None]
    centers = np.concatenate([points, points[:, :1] + offset, points[:, :1] - offset], axis=1)
    p = centers.shape[1]
    rhs = np.zeros((len(centers), p + 1))
    rhs[:, p - 2], rhs[:, p - 1] = 1.0, -1.0
    sol, cond = solve_rbf_systems(centers, rhs, kernel)
    return LevelSetFit(sol[:, :p], sol[:, p], centers, kernel, cond)


def fit_levelset(stencil: Stencil, nodes: NodeSet, kernel: Kernel, h: float):
    """Fit the local level-set interpolant for one stencil, gated: a batch of one
    through :func:`_fit_levelsets`, kept for the benchmark probes.

    The augmented (M+3) x (M+3) system enforces Psi = 0 at the M stencil
    nodes, Psi = +1 / -1 at the two points offset by ``h`` along the rough
    normal, and a zero-sum constraint on the RBF coefficients.
    """
    fit = _fit_levelsets(nodes.points[stencil.all_indices()][None], np.array([h]),
                         [stencil.center_index], kernel)
    check_conditioning(fit.cond)
    return LevelSetFit(fit.coefficients[0], fit.constant[0], fit.centers[0], kernel, fit.cond[0])


def levelset_gradient(fit: LevelSetFit, x):
    """Gradient of the fitted Psi at a point (chain rule through phi(r))."""
    rv = np.asarray(x, dtype=float)[..., None, :] - fit.centers
    r = np.linalg.norm(rv, axis=-1)
    # phi'(r)/r is finite at r = 0 and the r-vector vanishes there, so the
    # center contributes nothing, as it should.
    return np.einsum("...j,...jd->...d", fit.kernel.dphi_over_r(r) * fit.coefficients, rv)


def _gradient_norm(fit: LevelSetFit, x):
    """Gradient and its norm; a vanishing one raises, naming its batch row."""
    g = levelset_gradient(fit, x)
    norm = np.linalg.norm(g, axis=-1)
    vanished = np.flatnonzero(norm <= _GRAD_TOL)
    if len(vanished):
        j = int(vanished[0])
        raise GeometryError(f"level-set gradient vanished (|grad| = {norm.flat[j]:.3e})",
                            node_index=j if norm.ndim else None)
    return g, norm


def levelset_normal(fit: LevelSetFit, x):
    """Unit normal grad(Psi)/|grad(Psi)| at a point."""
    g, norm = _gradient_norm(fit, x)
    return g / norm[..., None]


def levelset_curvature(fit: LevelSetFit, x, normal):
    """Curvature div(n) of the fitted level set at a point.

    ``normal`` is the unit normal at ``x`` (only its direction squared
    enters, so the sign does not matter here).  It is the coefficients times
    the operator weights' surface-Laplacian row at kappa = 0, over |grad Psi|.
    """
    _, grad_norm = _gradient_norm(fit, x)
    rv = np.asarray(x, dtype=float)[..., None, :] - fit.centers
    terms = lbo_of_rbf_rows(fit.kernel, rv, np.linalg.norm(rv, axis=-1),
                            np.asarray(normal, dtype=float), 0.0)
    return (np.einsum("...j,...j->...", fit.coefficients, terms) / grad_norm)[()]


def _orient_frames(points, normals, curvatures, indices, distances):
    """Make normal signs globally consistent.

    A node is flipped whenever its normal opposes its parent's in the
    minimum spanning tree of the stencil graph (edges weighted by length,
    rooted at each component's lowest index).  Short edges join nodes with
    nearly parallel true normals; wide stencils also join far-apart (even
    antipodal) nodes, so plain breadth-first order is not reliable.  Each
    component is then flipped if its mean normal points toward the centroid.
    """
    n = len(points)
    # the tree reads the graph as undirected: (i, j) and (j, i) are one edge
    graph = sparse.csr_matrix(
        (distances[:, 1:].ravel(), (np.repeat(indices[:, 0], indices.shape[1] - 1),
                                    indices[:, 1:].ravel())), shape=(n, n))
    tree = csgraph.minimum_spanning_tree(graph)
    _, labels = csgraph.connected_components(tree, directed=False)
    sign = np.ones(n)
    for root in np.unique(labels, return_index=True)[1]:
        order, parent = csgraph.breadth_first_order(tree, root, directed=False)
        dots = np.einsum("ij,ij->i", normals[order[1:]], normals[parent[order[1:]]])
        for j, p, dot in zip(order[1:].tolist(), parent[order[1:]].tolist(), dots.tolist()):
            sign[j] = -1.0 if sign[p] * dot < 0 else 1.0
    outward = np.einsum("ij,ij->i", normals, points - points.mean(axis=0)) * sign
    sign[(np.bincount(labels, outward) < 0)[labels]] *= -1.0
    normals *= sign[:, None]
    curvatures *= sign


def estimate_frames(nodes: NodeSet, m: int, kernel: Kernel):
    """Estimate the SurfaceFrame at every node of a point cloud.

    Each node gets an independent level-set fit over its M-node stencil,
    with the off-surface offset equal to the nearest-neighbor distance;
    a deterministic orientation pass then fixes the global sign.  All fits
    run as one batch: a collinear stencil raises first, then the
    conditioning gate, then a vanishing gradient, each naming its node.
    """
    indices, distances = knn_table(nodes, m)
    fit = _fit_levelsets(nodes.points[indices], distances[:, 1], indices[:, 0], kernel)
    check_conditioning(fit.cond, indices[:, 0])
    try:
        normals = levelset_normal(fit, nodes.points)
    except GeometryError as exc:
        # batch row i is node i
        raise GeometryError(f"frame estimation failed at node {exc.node_index}: {exc}",
                            node_index=exc.node_index) from exc
    curvatures = levelset_curvature(fit, nodes.points, normals)
    _orient_frames(nodes.points, normals, curvatures, indices, distances)
    return SurfaceFrame(normals, curvatures)


def analytic_frames(surface: ImplicitSurface, points):
    """Exact frames of an implicit surface, oriented along grad(F).

    Requires the surface to carry a Hessian; curvature is
    ``div(grad F / |grad F|) = (lap F - n.H.n) / |grad F|``.
    """
    if surface.hessF is None:
        raise ValueError("surface has no Hessian; analytic curvature unavailable")
    points = np.asarray(points, dtype=float)
    g = surface.gradF(points)
    norms = np.linalg.norm(g, axis=-1)
    if np.any(norms <= _GRAD_TOL):
        raise GeometryError("surface gradient vanished at a node")
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
    """Read a frame CSV; returns (points, SurfaceFrame) in file order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 7:
        raise ValueError(f"frame CSV must have 7 columns ({FRAME_CSV_HEADER})")
    return data[:, :3], SurfaceFrame(data[:, 3:6], data[:, 6])
