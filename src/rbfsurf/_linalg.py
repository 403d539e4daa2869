"""Batched solves of the local RBF systems, and the one conditioning policy.

Every local system (weight solve, level-set fit) is an augmented RBF
interpolation system; :func:`factored_blocks` builds and factors its bordered
block over the stencil nodes, many stencils at a time, :func:`solve_refined` is the one way
a right-hand side becomes a solution (the factors' solve, then one :func:`refine` step),
and :func:`check_conditioning` applies the policy to the whole batch.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np
from scipy import linalg as sla

from .errors import ConditioningError

COND_ERROR_LIMIT = 1e15
COND_WARN_LIMIT = 1e12
# stencils per batch: bounds the (chunk, P, P) temporaries
_CHUNK = 64
_SHOWN = 10
_EPS = np.finfo(float).eps

logger = logging.getLogger(__name__)


def solve_failed(cond):
    """Which solves failed: those whose cond is not below 1e15 (NaN included)."""
    return ~(cond < COND_ERROR_LIMIT)


def check_conditioning(cond, nodes=None):
    """Warn once about estimates (K,) above 1e12; raise once for those of 1e15 and above.

    A level-set fit's estimate is the larger of its block's and its 2 x 2 Schur complement's
    (1-norm, inf if singular).  ``nodes``, if given, names the node behind each estimate;
    the warning then lists the worst nodes and the error every failed one.  Before both, one
    DEBUG record on this module's logger (values also in its ``stats``) gives the
    count, min, median and max cond, how many exceed 1e12 and the 10 worst nodes.
    """
    if len(cond) and logger.isEnabledFor(logging.DEBUG):
        stats = {"systems": len(cond), "cond_min": float(cond.min()),
                 "cond_median": float(np.median(cond)), "cond_max": float(cond.max()),
                 "above_warn": int((cond > COND_WARN_LIMIT).sum()), "worst_nodes": None
                 if nodes is None else np.asarray(nodes)[np.argsort(-cond)[:_SHOWN]].tolist()}
        logger.debug("conditioning of the local systems: %s", stats, extra={"stats": stats})
    failed = solve_failed(cond)
    poor = (cond > COND_WARN_LIMIT) & ~failed
    if poor.any():
        worst = "" if nodes is None else (
            f", worst nodes {np.asarray(nodes)[poor][np.argsort(-cond[poor])[:_SHOWN]].tolist()}")
        warnings.warn(f"local system poorly conditioned: {poor.sum()} of {len(cond)} above "
                      f"{COND_WARN_LIMIT:g} (worst cond ~ {cond[poor].max():.3e}{worst})",
                      stacklevel=3)
    if failed.any():
        ids = [] if nodes is None else np.asarray(nodes)[failed].tolist()
        shown = ", ".join(map(str, ids[:_SHOWN])) + ("..." if len(ids) > _SHOWN else "")
        raise ConditioningError(f"{failed.sum()} local systems numerically singular"
                                + (f" (nodes {shown})" if ids else ""),
                                cond=float(cond[failed].max()), node_indices=ids)


def factored_blocks(centers, m, kernel):
    """Build the local systems of K stencils ``centers`` (K, P, 3), ``_CHUNK`` at a time, factor
    their bordered (m + 1) blocks, and yield ``(part, A, cond, solve)`` for each chunk.

    ``A`` interpolates with ``phi(|x - centers[k, j]|)`` plus a constant whose row and column of
    ones follow the first m centers, so the block comes first.  ``dgetrf`` factors it in place;
    ``cond`` is the 1-norm ``dgecon`` estimate, inf for an exact zero pivot or a reciprocal
    below machine epsilon.  ``solve(b)`` applies the factors to the chunk's ``b`` (k, m + 1)
    or (k, j, m + 1) in place until the next chunk; a system with an exact zero pivot gets NaN.
    Built batch-last (P, P, chunk), so each ufunc loop runs over the chunk: squared distances
    summed coordinate by coordinate (cdist's roundoff), phi in place, the 1-norm's column sums
    in ``np.abs(A).sum(axis=1)``'s order (stencil rows, then the border's 1; the border column
    sums to m).  The exactly symmetric block goes untransposed into factor storage, each system
    from a 64-byte boundary (off it, OpenBLAS's Sandybridge kernels round otherwise).  No gate
    is applied.
    """
    n_sys, p, _ = centers.shape
    n = m + 1
    size = min(n_sys, _CHUNK)
    matrices, (r2, delta) = np.empty((size, p + 1, p + 1)), np.empty((2, p, p, size))
    matrices[:, m], matrices[:, :, m], matrices[:, m, m] = 1.0, 1.0, 0.0
    stride = -(-n * n // 8) * 8  # doubles per system, a multiple of 64 bytes
    buffer = np.empty(size * stride + 8)
    buffer = buffer[-buffer.ctypes.data % 64 // 8:][:size * stride].reshape(size, stride)
    storage = buffer[:, :n * n].reshape(size, n, n)
    factors, pivots = list(storage.transpose(0, 2, 1)), [None] * size  # Fortran-ordered views
    getrf, gecon, getrs = sla.lapack.dgetrf, sla.lapack.dgecon, sla.lapack.dgetrs

    def solve(b):
        for k in range(len(b)):
            getrs(factors[k], pivots[k], b[k].T, 0, 1)
        b[info > 0] = np.nan  # dgetrs divided by the zero pivot

    for start in range(0, n_sys, _CHUNK):
        part = slice(start, start + _CHUNK)
        c = np.ascontiguousarray(centers[part].transpose(2, 1, 0))
        A, r, d = matrices[:c.shape[-1]], r2[..., :c.shape[-1]], delta[..., :c.shape[-1]]
        np.square(np.subtract(c[0, :, None], c[0, None, :], out=r), out=r)
        for axis in (1, 2):
            r += np.square(np.subtract(c[axis, :, None], c[axis, None, :], out=d), out=d)
        phi = kernel._phi_into(np.sqrt(r, out=r), r).transpose(2, 0, 1)
        A[:, :m, :m], A[:, :m, n:] = phi[:, :m, :m], phi[:, :m, m:]
        A[:, n:, :m], A[:, n:, n:] = phi[:, m:, :m], phi[:, m:, m:]
        anorm = np.maximum(np.abs(phi[:, :m, :m]).sum(axis=1).max(axis=1) + 1.0, m)
        storage[:len(A)] = A[:, :n, :n]
        info, rcond = np.empty(len(A), dtype=int), np.empty(len(A))
        for k in range(len(A)):
            _, pivots[k], info[k] = getrf(factors[k], 1)
            rcond[k] = gecon(factors[k], anorm[k])[0]
        ok = (info == 0) & (rcond >= _EPS)
        cond = np.divide(1.0, rcond, out=np.full(len(A), np.inf), where=ok)
        yield part, A, cond, solve


def refine(A, x, rhs, solve):
    """One refinement step of ``x`` (K, n) against ``A x = rhs``: the residual formed in
    ``np.longdouble`` (each entry a left-to-right dot; a long-double ``A`` is read as it is),
    its correction by ``solve`` in place.  A NaN solution stays NaN, warning-free."""
    residual = (rhs - np.vecdot(A, x[:, None, :], dtype=np.longdouble)).astype(float)
    solve(residual)
    x += residual


def solve_refined(A, rhs, solve):
    """The solution (K, n) of ``A x = rhs`` for the chunk's matrices ``A`` (K, n, n) and
    ``solve`` of :func:`factored_blocks`: ``solve`` on a C-ordered copy of ``rhs``, then one
    :func:`refine` step.  ``rhs`` is only read."""
    x = np.array(rhs, order="C")
    solve(x)
    refine(A, x, rhs, solve)
    return x
