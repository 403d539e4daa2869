"""Batched solves of the local RBF systems, and the one conditioning policy.

Every local system (weight solve, level-set fit) is an augmented RBF
interpolation system, solved many stencils at a time by :func:`solve_rbf_systems`;
:func:`check_conditioning` applies the policy to the whole batch.
"""

from __future__ import annotations

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


def solve_failed(cond):
    """Which solves failed: those whose cond is not below 1e15 (NaN included)."""
    return ~(cond < COND_ERROR_LIMIT)


def check_conditioning(cond, nodes=None):
    """Warn once about estimates (K,) above 1e12; raise once for those of 1e15 and above.

    ``nodes``, if given, names the node behind each estimate; the warning
    then lists the worst nodes and the error every failed one.
    """
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


def solve_with_cond(A, b):
    """Solve the stacked systems ``A (K, P, P) x = b (K, P)``; return ``(x, cond)``.

    LU with partial pivoting and the solve in one ``dgesv`` call, then the
    1-norm condition estimate of each system from its factors, set to inf
    for an exact zero pivot or once the reciprocal drops below machine
    epsilon.  One refinement step follows: the residual is formed in
    ``np.longdouble`` and the correction solved with the same factors.
    """
    anorm = np.abs(A).sum(axis=1).max(axis=1)
    x = np.empty(b.shape)
    cond = np.empty(len(A))
    factors = []
    for k in range(len(A)):
        lu, piv, x[k], info = sla.lapack.dgesv(A[k], b[k])
        if info:  # an exact zero pivot: dgesv skips the solve and hands back b
            x[k] = np.nan
        rcond, _ = sla.lapack.dgecon(lu, anorm[k], norm="1")
        cond[k] = 1.0 / rcond if info == 0 and rcond >= _EPS else np.inf
        factors.append((lu, piv))
    residual = (b - (A.astype(np.longdouble) @ x[..., None])[..., 0]).astype(float)
    for k, (lu, piv) in enumerate(factors):
        x[k] += sla.lapack.dgetrs(lu, piv, residual[k])[0]
    return x, cond


def solve_rbf_systems(centers, rhs, kernel):
    """Solve the augmented RBF systems of K stencils; return ``(sol, cond)``.

    System k interpolates with ``phi(|x - centers[k, j]|)``, j < P, plus a
    constant: the P x P kernel matrix bordered by a row and a column of
    ones, right-hand side ``rhs[k]`` of length P + 1.  No gate is applied.
    """
    n_sys, p, _ = centers.shape
    sol = np.empty((n_sys, p + 1))
    cond = np.empty(n_sys)
    for start in range(0, n_sys, _CHUNK):
        part = slice(start, start + _CHUNK)
        c = centers[part]
        # squares summed coordinate by coordinate: the same roundoff as scipy's cdist
        r2 = np.zeros((len(c), p, p))
        for d in range(3):
            delta = c[:, :, None, d] - c[:, None, :, d]
            r2 += delta * delta
        A = np.ones((len(c), p + 1, p + 1))
        A[:, :p, :p] = kernel.phi(np.sqrt(r2))
        A[:, p, p] = 0.0
        sol[part], cond[part] = solve_with_cond(A, rhs[part])
    return sol, cond
