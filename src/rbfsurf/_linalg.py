"""Batched solves of the local RBF systems, and the one conditioning policy.

Every local system (weight solve, level-set fit) is an augmented RBF
interpolation system, solved many stencils at a time by :func:`solve_rbf_systems`;
:func:`check_conditioning` applies the policy to the whole batch.
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

    ``nodes``, if given, names the node behind each estimate; the warning
    then lists the worst nodes and the error every failed one.  Before both, one
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


def solve_rbf_systems(centers, rhs, kernel):
    """Solve the augmented RBF systems of K stencils; return ``(sol, cond)``.

    System k interpolates with ``phi(|x - centers[k, j]|)``, j < P, plus a
    constant: the P x P kernel matrix bordered by a row and a column of
    ones, right-hand side ``rhs[k]`` of length P + 1.  No gate is applied.

    Built in place, ``_CHUNK`` at a time and batch-last (P, P, chunk), so each ufunc loop runs
    over the chunk: squared distances summed coordinate by coordinate (cdist's roundoff),
    rooted and turned into phi in place, then copied, transposed, into one bordered matrix
    and again into Fortran-ordered factor storage, each system from a 64-byte boundary (off
    it, OpenBLAS's Sandybridge kernels round otherwise).  LAPACK factors in place: LU with
    partial pivoting and the solve in one ``dgesv`` call, then the 1-norm condition estimate
    from the factors, inf for an exact zero pivot or a reciprocal below machine epsilon.  One
    refinement step follows, its residual formed in ``np.longdouble`` (each entry a
    left-to-right dot) and its correction solved with the same factors.
    """
    n_sys, p, _ = centers.shape
    n = p + 1
    sol, cond = np.empty((n_sys, n)), np.empty(n_sys)
    size = min(n_sys, _CHUNK)
    matrices, (r2, delta) = np.empty((size, n, n)), np.empty((2, p, p, size))
    matrices[:, p], matrices[:, :, p], matrices[:, p, p] = 1.0, 1.0, 0.0
    stride = -(-n * n // 8) * 8  # doubles per system, a multiple of 64 bytes
    buffer = np.empty(size * stride + 8)
    buffer = buffer[-buffer.ctypes.data % 64 // 8:][:size * stride].reshape(size, stride)
    factors = buffer[:, :n * n].reshape(size, n, n).transpose(0, 2, 1)
    pivots = np.empty((size, n), dtype=np.int32)
    for start in range(0, n_sys, _CHUNK):
        part = slice(start, start + _CHUNK)
        c = np.ascontiguousarray(centers[part].transpose(2, 1, 0))
        A, r, d = matrices[:c.shape[-1]], r2[..., :c.shape[-1]], delta[..., :c.shape[-1]]
        np.square(np.subtract(c[0, :, None], c[0, None, :], out=r), out=r)
        for axis in (1, 2):
            r += np.square(np.subtract(c[axis, :, None], c[axis, None, :], out=d), out=d)
        A[:, :p, :p] = kernel._phi_into(np.sqrt(r, out=r), r).transpose(2, 0, 1)
        anorm = np.abs(A).sum(axis=1).max(axis=1)
        lu, piv, x = factors[:len(A)], pivots[:len(A)], sol[part]
        lu[...], x[...] = A, rhs[part]
        for k in range(len(A)):
            _, piv[k], _, info = sla.lapack.dgesv(lu[k], x[k], overwrite_a=True,
                                                  overwrite_b=True)
            if info:  # an exact zero pivot: dgesv skips the solve and leaves b
                x[k] = np.nan
            rcond, _ = sla.lapack.dgecon(lu[k], anorm[k], norm="1")
            cond[start + k] = 1.0 / rcond if info == 0 and rcond >= _EPS else np.inf
        residual = (rhs[part] - np.vecdot(A, x[:, None, :], dtype=np.longdouble)).astype(float)
        for k in range(len(A)):
            sla.lapack.dgetrs(lu[k], piv[k], residual[k], overwrite_b=True)
        x += residual
    return sol, cond
