"""Surface node sets: file I/O, generation, projection, neighbor queries.

A :class:`NodeSet` is an immutable cloud of 3D surface samples.  Stencils for
the finite-difference-style weights are built from nearest neighbors,
queried for all nodes at once through a k-d tree, with distance ties
broken by node index.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .errors import FileFormatError, ProjectionError

_MIN_SEPARATION = 1e-12
# largest |F| accepted at a projected point
_PROJECTION_RESIDUAL_TOL = 1e-10
# sample points per projection scan pass: bounds the (rays, samples, 3) temporaries
_PROJECTION_PASS = 256 * 400
# each ray is sampled at this many t in [T_LO, T_HI] to bracket its first root
_PROJECTION_T_LO = 0.05
_PROJECTION_T_HI = 1.5
_PROJECTION_SAMPLES = 400
# kNN repulsion: steps, neighbors per node, move per unit force and largest move (fractions of h)
_REPULSION_STEPS = 400
_REPULSION_NEIGHBORS = 12
_REPULSION_STEP = 0.1
_REPULSION_MAX_MOVE = 0.1


@dataclass(frozen=True, eq=False)
class Stencil:
    """A node plus its nearest neighbors, ordered by increasing distance.

    ``neighbor_indices`` never contains the center; ``neighbor_distances``
    are the matching Euclidean distances (non-decreasing).
    """

    center_index: int
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray

    def all_indices(self):
        """Center index followed by the neighbor indices."""
        return np.concatenate(([self.center_index], self.neighbor_indices))


class NodeSet:
    """N surface sample points in 3D with neighbor-query support.

    Points are validated on construction, through ``kdtree``: at least 4
    nodes, and no pair closer than 1e-12.  The points are read-only afterwards, so the tree
    and the kNN tables stored by :func:`knn_table` (16 N M bytes) never go stale.
    """

    def __init__(self, points, label=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if len(pts) < 4:
            raise ValueError(f"need at least 4 nodes, got {len(pts)}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        tree = cKDTree(pts)
        close = tree.query_pairs(_MIN_SEPARATION)
        if close:
            i, j = sorted(close)[0]
            raise ValueError(f"nodes {i} and {j} coincide (separation <= {_MIN_SEPARATION:g})")
        pts.setflags(write=False)
        self.points = pts
        self.kdtree = tree
        self._knn_tables = {}
        self.label = label

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<NodeSet{tag} N={len(self)}>"


def _read_lines(source, sep=None):
    """Yield (1-based line number, fields split at ``sep``) for each line of a text
    stream or file path that is neither blank nor a ``#`` comment."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text("utf-8")
    for line_no, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, stripped.split(sep)


def _parse_row(line_no, fields, width, integral=0):
    """The ``width`` fields of a line as floats, the first ``integral`` of them
    integers; raises FileFormatError naming the line otherwise."""
    if len(fields) != width:
        raise FileFormatError(f"line {line_no}: expected {width} fields, got {len(fields)}",
                              line_no)
    try:
        row = [float(f) for f in fields]
    except ValueError as exc:
        raise FileFormatError(f"line {line_no}: {exc}", line_no) from None
    if not all(v.is_integer() for v in row[:integral]):
        raise FileFormatError(f"line {line_no}: expected integers, got {fields[:integral]}",
                              line_no)
    return row


def load_nodes(source):
    """Read a NodeSet from a text stream or file path.

    Format: one whitespace-separated ``x y z`` triple per line; lines whose
    first non-blank character is ``#`` and blank lines are skipped.

    Raises
    ------
    FileFormatError
        On a malformed line, with the 1-based line number.
    ValueError
        If the parsed points violate NodeSet invariants (too few nodes,
        coincident nodes).
    """
    rows = [_parse_row(line_no, fields, 3) for line_no, fields in _read_lines(source)]
    return NodeSet(np.array(rows, dtype=float).reshape(-1, 3))


def save_nodes(nodes, path):
    """Write a NodeSet in the plain ``x y z`` text format, its label as a ``#`` line."""
    np.savetxt(path, nodes.points, fmt="%.17g", header=nodes.label or "", encoding="utf-8")


# ---------------------------------------------------------------------------
# implicit surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImplicitSurface:
    """A surface given as the zero set of a scalar field F.

    ``name`` is the surface's CLI name.  ``F`` maps points of shape (..., 3)
    to scalars; ``gradF`` to (..., 3) and ``hessF`` to (..., 3, 3).
    """

    name: str
    F: Callable[[np.ndarray], np.ndarray]
    gradF: Callable[[np.ndarray], np.ndarray]
    hessF: Callable[[np.ndarray], np.ndarray]


def unit_sphere():
    """Unit sphere as F(x) = ||x||^2 - 1."""

    def F(p):
        p = np.asarray(p, dtype=float)
        return np.sum(p * p, axis=-1) - 1.0

    def gradF(p):
        return 2.0 * np.asarray(p, dtype=float)

    def hessF(p):
        return np.broadcast_to(2.0 * np.eye(3), np.shape(p)[:-1] + (3, 3)).copy()

    return ImplicitSurface("sphere", F, gradF, hessF)


def schwarz_p():
    """Schwarz primitive minimal surface, cos(2 pi x) + cos(2 pi y) + cos(2 pi z) = 0."""
    w = 2.0 * np.pi

    def F(p):
        c = np.cos(w * np.asarray(p, dtype=float))
        # the order of np.sum over the length-3 axis, without its short-axis reduction
        return (c[..., 0] + c[..., 1]) + c[..., 2]

    def gradF(p):
        return -w * np.sin(w * np.asarray(p, dtype=float))

    def hessF(p):
        diag = -w * w * np.cos(w * np.asarray(p, dtype=float))
        out = np.zeros(diag.shape + (3,))
        out[..., [0, 1, 2], [0, 1, 2]] = diag
        return out

    return ImplicitSurface("schwarz-p", F, gradF, hessF)


def surface_by_name(name):
    """Look up a built-in surface by its CLI name."""
    surfaces = {s.name: s for s in (unit_sphere(), schwarz_p())}
    try:
        return surfaces[name]
    except KeyError:
        raise ValueError(f"unknown surface {name!r}; expected one of {sorted(surfaces)}") from None


# ---------------------------------------------------------------------------
# node generation
# ---------------------------------------------------------------------------

def _fibonacci_sphere(n):
    # Spherical Fibonacci lattice: latitudes at midpoints, golden-angle longitudes.
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    pts = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _repulsion_relax(pts, rng):
    """Relax ``pts`` on the sphere by Riesz-2 repulsion between nearest neighbors."""
    n = len(pts)
    # Tangential jitter breaks the lattice symmetry so the relaxation can rearrange.
    jitter = rng.normal(scale=0.05 / np.sqrt(n), size=pts.shape)
    pts = pts + jitter - pts * np.einsum("ij,ij->i", jitter, pts)[:, None]
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    h = np.sqrt(4.0 * np.pi / n)  # nominal spacing
    k = min(_REPULSION_NEIGHBORS, n - 1)
    max_move = _REPULSION_MAX_MOVE * h
    for _ in range(_REPULSION_STEPS):
        _, nbr = cKDTree(pts).query(pts, k=k + 1)
        diff = pts[:, None, :] - pts[nbr[:, 1:]]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        # h^3 sum_j (x_i - x_j) / r_ij^4: one neighbor at distance h pushes with unit force
        force = h**3 * np.einsum("ij,ijk->ik", 1.0 / (r2 * r2), diff)
        move = _REPULSION_STEP * h * (force - pts * np.einsum("ij,ij->i", pts, force)[:, None])
        size = np.linalg.norm(move, axis=1, keepdims=True)
        pts = pts + move * (max_move / np.maximum(size, max_move))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def gen_sphere_nodes(n, method="fibonacci", seed=0):
    """Generate n quasi-uniform nodes on the unit sphere.

    ``method="fibonacci"`` is the deterministic spherical Fibonacci lattice;
    ``method="repulsion"`` jitters that lattice (seeded) and relaxes it for
    400 steps of Riesz-2 repulsion between each node and its 12 nearest
    neighbors.  A step moves each node along the tangential part of its
    force, by at most h/10 (h = sqrt(4 pi / n), the nominal spacing), then
    back onto the sphere.  Each step costs one k-d tree query.
    """
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise ValueError(f"need an integer n >= 4 nodes, got {n!r}")
    if method not in ("fibonacci", "repulsion"):
        raise ValueError(f"unknown method {method!r}; expected 'fibonacci' or 'repulsion'")
    pts = _fibonacci_sphere(n)
    if method == "repulsion":
        pts = _repulsion_relax(pts, np.random.default_rng(seed))
    return NodeSet(pts, label=f"sphere-{method}-{n}")


# ---------------------------------------------------------------------------
# radial projection onto an implicit surface
# ---------------------------------------------------------------------------

def _project_rays(dirs, surface):
    """First root t of F(t d) on [_PROJECTION_T_LO, _PROJECTION_T_HI] along each
    unit ray d of ``dirs`` (N, 3), or NaN.

    The scan takes the steps of a ray-by-ray search and finds each first event bit for bit:
    an exact zero at sample e, which is the root, or a sign change from k to k + 1, whose
    bracket goes to SciPy's ``find_root`` with its default tolerances.  Groups of 2560 rays
    are scanned a pass of at most 256 * 400 sample points at a time, so every pass spans at
    least 40 samples.  A ray leaves at its first event, and the next pass starts at the last
    sample of this one: at most one evaluation in 40 repeats.
    """
    ts = np.linspace(_PROJECTION_T_LO, _PROJECTION_T_HI, _PROJECTION_SAMPLES)
    k, t = np.full(len(dirs), -1), np.full(len(dirs), np.nan)
    group = _PROJECTION_PASS // 40
    for start in range(0, len(dirs), group):
        todo, first = np.arange(start, min(len(dirs), start + group)), 0
        while len(todo) and first < len(ts) - 1:
            stop = min(len(ts), first + _PROJECTION_PASS // len(todo))
            vals = surface.F(ts[None, first:stop, None] * dirs[todo, None, :])
            signs = np.sign(vals)
            # a sign change leaves both of its samples nonzero, so it never ties a zero
            event = vals == 0.0
            event[:, 1:] |= signs[:, :-1] * signs[:, 1:] < 0
            rows, j = np.arange(len(todo)), event.argmax(axis=1)
            zero, cross = vals[rows, j] == 0.0, event[rows, j] & (vals[rows, j] != 0.0)
            t[todo[zero]] = ts[first + j[zero]]
            k[todo[cross]] = first + j[cross] - 1
            todo, first = todo[~(zero | cross)], stop - 1

    from scipy.optimize.elementwise import find_root  # here: importing it costs 0.1 s and 10 MB
    # the directions go as args, which find_root narrows to the unconverged rays
    rays = np.flatnonzero(k >= 0)
    t[rays] = find_root(lambda s, *d: surface.F(s[..., None] * np.stack(d, axis=-1)),
                        (ts[k[rays]], ts[k[rays] + 1]), args=tuple(dirs[rays].T)).x
    return t


def project_radial(nodes, surface, drop_misses=False):
    """Project each node radially (along x/||x||) onto an implicit surface.

    The nearest root to the origin is taken: the first sign change (or an
    earlier exact zero) among 400 samples of t in [0.05, 1.5], refined by
    SciPy's ``find_root``.  All rays are scanned together, each only up to
    its first event, and every bracket is refined in one call.

    With ``drop_misses=False`` (default) a direction whose ray never crosses
    the surface, or whose root leaves |F| above 1e-10, raises
    :class:`ProjectionError` with the lowest such node index; with
    ``drop_misses=True`` such nodes are silently removed from the output.
    A node at the origin has no radial direction: it raises ValueError before any scan.
    """
    norms = np.linalg.norm(nodes.points, axis=1, keepdims=True)
    if not norms.all():
        i = int(np.argmin(norms))  # the only one: NodeSet rejects duplicates
        raise ValueError(f"node {i} lies at the origin: its radial direction is undefined")
    dirs = nodes.points / norms
    points = _project_rays(dirs, surface)[:, None] * dirs
    hit = np.abs(surface.F(points)) <= _PROJECTION_RESIDUAL_TOL
    if not drop_misses and not hit.all():
        i = int(np.argmin(hit))
        raise ProjectionError(f"no surface crossing along ray of node {i}", node_index=i)
    label = f"{nodes.label or 'nodes'}>{surface.name}"
    return NodeSet(points[hit], label=label)


# ---------------------------------------------------------------------------
# nearest-neighbor stencils
# ---------------------------------------------------------------------------

def check_node_ids(nodes, ids):
    """``ids`` as an array; raise ValueError unless every id is an integer in [0, N)."""
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"node ids must be integers, got {ids.flat[0]!r}")
    bad = ids[(ids < 0) | (ids >= len(nodes))]
    if bad.size:
        raise ValueError(f"node id {bad.flat[0]} out of range [0, {len(nodes)})")
    return ids


def knn_table(nodes, m, centers=None):
    """Stencils of many nodes at once: ``(indices, distances)``, (len(centers), m).

    Rows are ordered by (exact distance, node index), so the center comes
    first.  One k-d tree query fetches m + 1 candidates per row, in distance
    order, with the tree's distances (bit for bit the norms of the differences
    on the shipped sets); only rows holding an exact tie are sorted again, by
    index.  All points closer than the farthest candidate are fetched, so a
    row whose m-th distance ties the farthest, at first the (m + 1)-th, is
    queried again with twice as many.  The all-node table (``centers=None``)
    is stored read-only on the NodeSet, one per M, and returned by later calls.
    Raises ValueError unless m is an integer in [1, N] and every center an integer in [0, N).
    """
    n = len(nodes)
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"stencil size M must be an integer, got {m!r}")
    if not 1 <= m <= n:
        raise ValueError(f"stencil size must satisfy 1 <= M <= {n}, got {m}")
    if centers is None and m in nodes._knn_tables:
        return nodes._knn_tables[m]
    rows = np.arange(n) if centers is None else check_node_ids(nodes, centers)
    indices, distances = np.empty((len(rows), m), dtype=np.intp), np.empty((len(rows), m))
    todo = np.arange(len(rows))
    k = min(n, m + 1)
    while len(todo):
        d, cand = nodes.kdtree.query(nodes.points[rows[todo]], k=k)  # k >= 2: 2-D, not k = 1's 1-D
        # d is sorted already, so reordering a tie leaves it as it is
        tied = np.flatnonzero((d[:, 1:] == d[:, :-1]).any(axis=1))
        cand[tied] = np.take_along_axis(cand[tied], np.lexsort((cand[tied], d[tied])), axis=1)
        done = (d[:, m - 1] < d[:, -1]) | (k == n)
        indices[todo[done]] = cand[done, :m]
        distances[todo[done]] = d[done, :m]
        todo = todo[~done]
        k = min(n, 2 * k)
    if centers is None:
        nodes._knn_tables[m] = indices, distances
        for table in (indices, distances):
            table.setflags(write=False)
    return indices, distances


def nearest_neighbors(nodes, i, m):
    """Stencil of node i and its m-1 nearest neighbors: its row of :func:`knn_table`,
    kept for the benchmark probes.

    Ties in distance are broken by the smaller node index.
    """
    indices, distances = knn_table(nodes, m, [i])
    return Stencil(i, indices[0, 1:m], distances[0, 1:m])
