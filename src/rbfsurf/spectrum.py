"""Spectral diagnostics of the assembled operator.

Explicit time integration of the semidiscrete reaction-diffusion system
needs every eigenvalue of the differentiation matrix in the left half-plane.
On the unit sphere the exact surface-Laplacian spectrum is known
(``-k(k+1)`` with multiplicity ``2k+1``), which gives a sharp correctness
check for the low modes.

Both checks need only a few eigenvalues, so ``eigenvalues`` computes a
partial spectrum with sparse ARPACK (Lehoucq, Sorensen & Yang, *ARPACK
Users' Guide*, SIAM 1998) and never forms the dense matrix: every eigenvalue
in a disc around ``SHIFT``, the rightmost ones outside it, and the one of
largest magnitude, which keeps the operator's scale for the roundoff
tolerance of ``stability_report``.  Shift-invert solves with one LU factor of
``L - SHIFT*I`` per call, in minimum-degree order on ``A^T + A`` (Liu, ACM
TOMS 11, 1985), which fills less than SciPy's default COLAMD on the nearly
symmetric kNN pattern while partial pivoting stays on the diagonal, else COLAMD.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .errors import RbfSurfError
from .lbo import SparseOperator

# center of the disc and shift-invert pole, just right of the stable half-plane
SHIFT = 0.5
# covers the sphere clusters k <= 6 (down to -42) at cluster tolerance 0.5
DISC_RADIUS = 50.0
_FIRST_K = 64
_FAR_K = 6
_FAR_TOL = 1e-6

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterRow:
    """One row of the sphere-spectrum cluster table."""

    k: int
    target: float
    matched: int
    expected: int


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    max_real_part: float
    max_imag_abs: float
    cluster_table: tuple
    unstable: bool


def _arpack(matrix, k, opinv=None, **options):
    """k eigenvalues from ARPACK's ``eigs``, started from a fixed random vector."""
    n = matrix.shape[0]
    # a vector of ones is an exact eigenvector of these operators (zero row sums)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        return eigs(matrix, k=k, v0=v0, return_eigenvectors=False, OPinv=opinv, **options)
    except ArpackNoConvergence as exc:
        call = ", ".join(f"{key}={value!r}" for key, value in {"k": k, **options}.items())
        raise RbfSurfError(f"ARPACK eigs({call}) did not converge on the N = {n} operator: "
                           f"{exc}") from exc


def eigenvalues(op: SparseOperator, radius=DISC_RADIUS):
    """Partial spectrum of the operator, sorted by real part descending.

    Holds every eigenvalue within ``radius`` of ``SHIFT``, found by
    shift-invert with one factor: k starts at 64 and doubles until the
    farthest eigenvalue returned lies outside the disc, so the disc is
    complete.  Outside the disc it adds the 6 rightmost eigenvalues and the
    largest in magnitude, both to relative tolerance 1e-6.  Ties in the real
    part sort by imaginary part descending.  Raises ``ValueError`` before any
    ARPACK call unless the radius is finite and positive, and when the disc
    needs k >= N - 1, which ARPACK cannot do; ``RbfSurfError`` when ARPACK
    does not converge, or when SuperLU finds ``L - SHIFT*I`` exactly singular.
    With DEBUG on, one record on this module's logger (values also in its
    ``stats``) gives N, the eigenvalue count, the radius, the final k, the
    largest real part, the largest magnitude, the factor's ordering,
    nonzeros and seconds, and the seconds taken.
    """
    if not 0 < radius < np.inf:
        raise ValueError(f"disc radius must be finite and positive, got {radius}")
    started = time.perf_counter()
    n, matrix = op.n, op.matrix
    shifted = (matrix - SHIFT * sparse.identity(n)).tocsc()
    # minimum degree on A^T + A presumes diagonal pivots; partial pivoting
    # leaves the diagonal of a column whose largest entry lies off it
    diagonal_pivots = np.all(abs(shifted).max(axis=0).toarray() <= np.abs(shifted.diagonal()))
    ordering = "MMD_AT_PLUS_A" if diagonal_pivots else "COLAMD"
    try:
        factor = splu(shifted, permc_spec=ordering)
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise RbfSurfError(f"the shift {SHIFT:g} is an eigenvalue of the N = {n} operator: "
                           f"L - {SHIFT:g} I is exactly singular ({exc})") from exc
    factor_s = time.perf_counter() - started
    solve = LinearOperator(matrix.shape, matvec=factor.solve, dtype=float)
    k = 0
    while k == 0 or np.abs(near - SHIFT).max() <= radius:
        if k >= n - 2:
            raise ValueError(
                f"the disc of radius {radius:g} around {SHIFT:g} holds more than {k} of the "
                f"N = {n} eigenvalues, and ARPACK needs k < N - 1; solve densely instead")
        k = min(max(2 * k, _FIRST_K), n - 2)
        near = _arpack(matrix, k, solve, sigma=SHIFT)
    right = _arpack(matrix, min(_FAR_K, n - 2), which="LR", tol=_FAR_TOL)
    largest = _arpack(matrix, 1, which="LM", tol=_FAR_TOL)
    # the largest is new only when it lies left of every rightmost one
    far = np.concatenate([right, largest[largest.real < right.real.min()]])
    found = np.concatenate([near[np.abs(near - SHIFT) <= radius],
                            far[np.abs(far - SHIFT) > radius]])
    found = found[np.lexsort((-found.imag, -found.real))]
    if logger.isEnabledFor(logging.DEBUG):
        stats = {"n": n, "eigenvalues": len(found), "radius": float(radius), "k": k,
                 "abscissa": float(found.real.max()), "abs_max": float(np.abs(found).max()),
                 "ordering": ordering, "factor_nnz": factor.nnz, "factor_s": factor_s,
                 "seconds": time.perf_counter() - started}
        logger.debug("partial spectrum: %s", stats, extra={"stats": stats})
    return found


def check_cluster_options(k_max, tol):
    """Raise ValueError unless the cluster tolerance is finite and positive and ``k_max`` is an
    integer >= 0."""
    if not tol > 0:
        raise ValueError(f"cluster tolerance must be positive, got {tol}")
    if not np.isfinite(tol):
        raise ValueError(f"cluster tolerance must be finite and positive, got {tol}")
    if not isinstance(k_max, (int, np.integer)):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")


def stability_report(eigs, k_max, tol, real_part_tol=None):
    """Cluster the spectrum around the exact sphere eigenvalues.

    For each k up to ``k_max``, counts eigenvalues with real part within ``tol`` of ``-k(k+1)``
    and imaginary part at most ``tol`` in magnitude, against the exact multiplicity ``2k+1``.
    ``unstable`` flags any real part above ``real_part_tol``, by default
    ``len(eigs) * eps * max|lambda|``.  Over the partial spectrum of ``eigenvalues`` that count
    is K, not N: the largest-magnitude eigenvalue it holds keeps the operator's scale, and the
    tolerance is N / K times tighter than the roundoff level of a dense solve.  Raises
    ``ValueError`` on a NaN, infinite or negative ``real_part_tol``, an empty or non-finite
    spectrum, and as :func:`check_cluster_options` does.
    """
    if real_part_tol is not None and not 0 <= real_part_tol < np.inf:
        raise ValueError(f"real-part tolerance must be finite and nonnegative, got {real_part_tol}")
    check_cluster_options(k_max, tol)
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size == 0 or not np.isfinite(eigs).all():
        raise ValueError(f"need a nonempty, finite spectrum, got {eigs.size} eigenvalues "
                         f"of which {int((~np.isfinite(eigs)).sum())} are not finite")
    if real_part_tol is None:
        real_part_tol = len(eigs) * np.finfo(float).eps * float(np.abs(eigs).max())
    table = []
    for k in range(k_max + 1):
        target = -k * (k + 1)
        near = (np.abs(eigs.real - target) <= tol) & (np.abs(eigs.imag) <= tol)
        table.append(ClusterRow(k, float(target), int(near.sum()), 2 * k + 1))
    max_real = float(eigs.real.max())
    return SpectrumReport(
        eigenvalues=eigs,
        max_real_part=max_real,
        max_imag_abs=float(np.abs(eigs.imag).max()),
        cluster_table=tuple(table),
        unstable=max_real > real_part_tol,
    )


def save_spectrum_csv(report: SpectrumReport, path, n, radius):
    """Write ``re,im`` rows, then commented lines: what part of the N
    eigenvalues they are (``eigenvalues`` with this ``radius``) and the report."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([report.eigenvalues.real, report.eigenvalues.imag]),
                   fmt="%.17g", delimiter=",", header="re,im", comments="")
        fh.write(f"# partial spectrum: {len(report.eigenvalues)} of {n} eigenvalues, every one "
                 f"within {radius:g} of {SHIFT:g}, then those of the {_FAR_K} rightmost and of the "
                 "largest in magnitude that lie outside that disc\n")
        fh.write(f"# max_real_part = {report.max_real_part:.6e}\n")
        fh.write(f"# max_imag_abs = {report.max_imag_abs:.6e}\n")
        fh.write(f"# unstable = {report.unstable}\n")
        fh.write("# k,target,matched,expected\n")
        for row in report.cluster_table:
            fh.write(f"# {row.k},{row.target:g},{row.matched},{row.expected}\n")
