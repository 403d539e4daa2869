"""Spectral diagnostics of the assembled operator.

Explicit time integration of the semidiscrete reaction-diffusion system
needs every eigenvalue of the differentiation matrix in the left half-plane.
On the unit sphere the exact surface-Laplacian spectrum is known
(``-k(k+1)`` with multiplicity ``2k+1``), which gives a sharp correctness
check for the low modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .lbo import SparseOperator

DENSE_EIG_MAX_N = 5000


@dataclass(frozen=True)
class ClusterRow:
    """One row of the sphere-spectrum cluster table."""

    k: int
    target: float
    matched: int
    expected: int


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    max_real_part: float
    max_imag_abs: float
    cluster_table: tuple
    unstable: bool


def eigenvalues(op: SparseOperator):
    """Full spectrum of the operator, sorted by real part descending.

    Uses a dense general eigensolver; capped at N = 5000 since the
    stability check is a once-per-configuration diagnostic.
    """
    if op.n > DENSE_EIG_MAX_N:
        raise ValueError(
            f"operator size {op.n} exceeds the dense-eigensolver cap {DENSE_EIG_MAX_N}; "
            "partial spectra are out of scope"
        )
    # a Fortran-ordered copy the solver may overwrite: no second dense copy
    eigs = sla.eigvals(op.matrix.toarray(order="F"), overwrite_a=True)
    order = np.lexsort((-eigs.imag, -eigs.real))
    return eigs[order]


def sphere_multiplicity(k):
    """Multiplicity 2k + 1 of the sphere eigenvalue -k(k+1)."""
    if k < 0:
        raise ValueError(f"mode index must be nonnegative, got {k}")
    return 2 * k + 1


def stability_report(eigs, k_max, tol, real_part_tol=None):
    """Cluster the spectrum around the exact sphere eigenvalues.

    For each k up to ``k_max``, counts eigenvalues with real part within
    ``tol`` of ``-k(k+1)`` and imaginary part at most ``tol`` in magnitude.
    ``unstable`` flags any real part above ``real_part_tol``, by default
    the roundoff level ``len(eigs) * eps * max|lambda|`` of a dense solve.
    """
    if not tol > 0:
        raise ValueError(f"cluster tolerance must be positive, got {tol}")
    eigs = np.asarray(eigs, dtype=complex)
    if real_part_tol is None:
        real_part_tol = len(eigs) * np.finfo(float).eps * float(np.abs(eigs).max())
    table = []
    for k in range(k_max + 1):
        target = -k * (k + 1)
        near = (np.abs(eigs.real - target) <= tol) & (np.abs(eigs.imag) <= tol)
        table.append(ClusterRow(k, float(target), int(near.sum()), sphere_multiplicity(k)))
    max_real = float(eigs.real.max())
    return SpectrumReport(
        eigenvalues=eigs,
        max_real_part=max_real,
        max_imag_abs=float(np.abs(eigs.imag).max()),
        cluster_table=tuple(table),
        unstable=max_real > real_part_tol,
    )


def save_spectrum_csv(report: SpectrumReport, path):
    """Write ``re,im`` rows followed by a commented cluster-table summary."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        for lam in report.eigenvalues:
            fh.write(f"{lam.real:.17g},{lam.imag:.17g}\n")
        fh.write(f"# max_real_part = {report.max_real_part:.6e}\n")
        fh.write(f"# max_imag_abs = {report.max_imag_abs:.6e}\n")
        fh.write(f"# unstable = {report.unstable}\n")
        fh.write("# k,target,matched,expected\n")
        for row in report.cluster_table:
            fh.write(f"# {row.k},{row.target:g},{row.matched},{row.expected}\n")
