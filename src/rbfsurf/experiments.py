"""Accuracy studies on the unit sphere: shape-parameter sweeps, convergence
orders, and surface-frame errors.

The reference field is f(x, y, z) = x (1 + y (1 + z)), a combination of
degree 1..3 spherical harmonics whose surface Laplacian on the unit sphere
is -2x (1 + 3y (1 + 2z)).  Each sweep row holds a max-over-nodes error.  The
operator sweep adds the worst stencil condition number and the failed solves, which
are never fatal; frame sweep rows hold max_cond = 0.0.  A failed frame fit raises.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np

from ._linalg import solve_failed
from .errors import RbfSurfError
from .kernels import Kernel, KernelFamily
from .lbo import weight_table
from .nodesets import ImplicitSurface, NodeSet, gen_sphere_nodes, unit_sphere
from .surface_geom import analytic_frames, estimate_frames

_MIN_FIT_POINTS = 3
_SPREAD_TOL = 1e-12
_SPHERE_TOL = 1e-10


def reference_field(points):
    """f = x (1 + y (1 + z)) evaluated at (..., 3) points."""
    x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    return x * (1.0 + y * (1.0 + z))


def reference_lbo(points):
    """Surface Laplacian of the reference field on the unit sphere.

    f = x + xy + xyz restricts to spherical harmonics of degree 1, 2, 3
    with eigenvalues -2, -6, -12, so the result is -2x - 6xy - 12xyz.
    """
    x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    return -2.0 * x * (1.0 + 3.0 * y * (1.0 + 2.0 * z))


@dataclass(frozen=True)
class SweepRow:
    """One (N, M, eps) cell of a sweep; the fields are the output columns, in order."""

    n: int
    m: int
    eps: float
    max_error: float
    max_cond: float
    failures: int = 0


@dataclass
class ConvergenceTable:
    """Sweep rows; :func:`fit_order` fits their convergence orders."""

    rows: list


def fit_order(rows) -> dict:
    """Least-squares convergence order per stencil size.

    The model is error proportional to (sqrt N)^(-mu), so mu is minus the
    slope of log(max_error) against log(sqrt N).  Requires one shape
    parameter, at least three distinct node counts per stencil size and a
    non-degenerate spread.
    """
    by_m, eps_by_m = {}, {}
    for row in rows:
        by_m.setdefault(row.m, {})[row.n] = row.max_error
        eps_by_m.setdefault(row.m, set()).add(row.eps)
    orders = {}
    for m, cells in sorted(by_m.items()):
        if len(eps_by_m[m]) > 1:
            raise ValueError(f"rows for M={m} mix the shape parameters {sorted(eps_by_m[m])}; "
                             "fit one eps at a time")
        ns = np.array(sorted(cells))
        if len(ns) < _MIN_FIT_POINTS:
            raise ValueError(
                f"need at least {_MIN_FIT_POINTS} distinct node counts for M={m}, got {len(ns)}"
            )
        log_h = np.log(np.sqrt(ns))
        if log_h.max() - log_h.min() < _SPREAD_TOL:
            raise ValueError(f"node counts for M={m} span a degenerate range")
        errors = np.array([cells[n] for n in ns])
        if np.any(errors <= 0) or not np.all(np.isfinite(errors)):
            raise ValueError(f"errors for M={m} must be finite and positive to fit in log scale")
        slope = np.polyfit(log_h, np.log(errors), 1)[0]
        orders[m] = -float(slope)
    return orders


def _max_lbo_error(nodes, frames, m, kernel, f, lf, node=None):
    """Worst nodal error of the stencil approximation against the exact LBO.

    Conditioning is never gated here; the caller sees the worst condition
    number and how many solves failed outright.  A solve fails by the
    assembly gate's rule, :func:`solve_failed` (cond of 1e15 and above, a
    zero pivot giving an infinite cond), and its node is left out of the error.
    """
    indices, w, cond = weight_table(nodes, frames, m, kernel,
                                    None if node is None else [node])
    ok = ~solve_failed(cond)
    failures = int(len(ok) - ok.sum())
    approx = np.einsum("ij,ij->i", w[ok], f[indices[ok]])
    worst_err = float(np.abs(approx - lf[indices[ok, 0]]).max(initial=0.0))
    if failures and worst_err == 0.0:
        worst_err = np.inf
    return worst_err, float(cond.max()), failures


def _cells(n, m, eps_grid, family, nodes, method, seed):
    """Yield (node set, [(M, kernel), ...]) per node count, the cells in the grid
    order M, eps: ``nodes``, checked against every count in ``n`` and the unit sphere,
    or one sphere set generated per count.  Scalar or iterable ``n``, ``m``, ``eps_grid``."""
    ns, ms, eps_list = ([x] if np.isscalar(x) else list(x) for x in (n, m, eps_grid))
    if nodes is not None:
        if any(n_i != len(nodes) for n_i in ns):
            raise ValueError(f"n = {n} names node counts other than the {len(nodes)} given nodes")
        off = np.abs(np.linalg.norm(nodes.points, axis=1) - 1.0)
        if off.max() > _SPHERE_TOL:
            raise ValueError(f"node {off.argmax()} lies {off.max():.3g} off the unit sphere")
    cells = [(m_i, Kernel(family, float(eps))) for m_i in ms for eps in eps_list]
    for n_i in ns:
        nodeset = nodes if nodes is not None else gen_sphere_nodes(n_i, method=method, seed=seed)
        yield nodeset, cells


def _cell_frames(nodeset, m, kernel):
    """Estimated frames of one sweep cell; a failure names the cell in its message."""
    try:
        return estimate_frames(nodeset, m, kernel)
    except (RbfSurfError, ValueError) as exc:
        exc.args = (f"N={len(nodeset)}, M={m}, eps={kernel.epsilon:g}: {exc}",) + exc.args[1:]
        raise


def lbo_error_sweep(surface: ImplicitSurface, n, m, eps_grid,
                    use_analytic_frames=True, *, family=KernelFamily.GAUSSIAN,
                    nodes: Optional[NodeSet] = None, node: Optional[int] = None,
                    seed=0, method="fibonacci") -> ConvergenceTable:
    """Max LBO error on the sphere for each shape parameter in the grid.

    Scalar or iterable ``n``, ``m``, ``eps_grid`` are accepted; the grid is
    the cartesian product in the given order.  With ``use_analytic_frames``
    off, frames are re-estimated per cell with the same stencil size and kernel.
    ``node`` restricts the error to a single node id.  Given ``nodes``, every count
    in ``n`` must be their number and every node must lie on the unit sphere within
    1e-10.  A failed frame estimate is re-raised with ``N=..., M=..., eps=...: ``.
    """
    if surface.name != "sphere":
        raise ValueError("the analytic reference field lives on the unit sphere")
    rows = []
    for nodeset, cells in _cells(n, m, eps_grid, family, nodes, method, seed):
        f = reference_field(nodeset.points)
        lf = reference_lbo(nodeset.points)
        if use_analytic_frames:
            frames = analytic_frames(unit_sphere(), nodeset.points)
        for m_i, kernel in cells:
            if not use_analytic_frames:
                frames = _cell_frames(nodeset, m_i, kernel)
            err, cond, failures = _max_lbo_error(nodeset, frames, m_i, kernel, f, lf, node)
            rows.append(SweepRow(len(nodeset), m_i, kernel.epsilon, err, cond, failures))
    return ConvergenceTable(rows)


def frame_error_sweep(n, m, eps_grid, *, family=KernelFamily.GAUSSIAN,
                      nodes: Optional[NodeSet] = None, seed=0,
                      method="fibonacci") -> tuple:
    """Normal and curvature errors of estimated frames on the unit sphere.

    For each (N, M, eps) cell, E_n is the worst infinity-norm deviation of
    the oriented unit normal from the exact outward normal (the position
    itself on the unit sphere), and E_kappa the worst |kappa - 2|.  Returns
    two tables with max_error = E_n and E_kappa respectively.  ``nodes`` and
    a failed estimate are treated as in :func:`lbo_error_sweep`.
    """
    normal_rows, curvature_rows = [], []
    for nodeset, cells in _cells(n, m, eps_grid, family, nodes, method, seed):
        for m_i, kernel in cells:
            frames = _cell_frames(nodeset, m_i, kernel)
            e_n = float(np.abs(frames.normals - nodeset.points).max())
            e_k = float(np.abs(frames.curvatures - 2.0).max())
            normal_rows.append(SweepRow(len(nodeset), m_i, kernel.epsilon, e_n, 0.0))
            curvature_rows.append(SweepRow(len(nodeset), m_i, kernel.epsilon, e_k, 0.0))
    return ConvergenceTable(normal_rows), ConvergenceTable(curvature_rows)


def save_table_csv(table: ConvergenceTable, path, orders: Optional[dict] = None):
    """Write sweep rows as CSV, one header row naming every column, then one
    ``# mu[M=m] = ...`` line per fitted order."""
    footer = "\n".join(f"# mu[M={m}] = {mu:.6g}" for m, mu in sorted((orders or {}).items()))
    np.savetxt(path, np.array([astuple(row) for row in table.rows]),
               fmt=["%d", "%d", "%.17g", "%.17g", "%.17g", "%d"], delimiter=",",
               header=",".join(f.name for f in fields(SweepRow)), comments="", footer=footer)


def table_report(table: ConvergenceTable, orders: Optional[dict] = None):
    """Plain dict view of a table (rows plus optional fitted orders)."""
    report = {
        "columns": [f.name for f in fields(SweepRow)],
        "rows": [list(astuple(row)) for row in table.rows],
    }
    if orders is not None:
        report["orders"] = {str(m): mu for m, mu in orders.items()}
    return report
