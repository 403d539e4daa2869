"""Eigenvalue diagnostics: sorting, sphere clusters, stability flags."""

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse

from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import SparseOperator, assemble_operator
from rbfsurf.nodesets import gen_sphere_nodes, unit_sphere
from rbfsurf.spectrum import (
    DENSE_EIG_MAX_N,
    eigenvalues,
    save_spectrum_csv,
    sphere_multiplicity,
    stability_report,
)
from rbfsurf.surface_geom import analytic_frames


def diag_operator(values):
    return SparseOperator(sparse.diags(values).tocsr(), stencil_size=1)


class TestSphereMultiplicity:
    def test_known_values(self):
        assert [sphere_multiplicity(k) for k in range(6)] == [1, 3, 5, 7, 9, 11]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_multiplicity(-1)


class TestEigenvalues:
    def test_sorted_by_real_part(self):
        eigs = eigenvalues(diag_operator([-3.0, -1.0, -2.0]))
        assert np.allclose(eigs, [-1.0, -2.0, -3.0])

    def test_complex_pair_order(self):
        # rotation block: eigenvalues +-i share the real part, the positive
        # imaginary one sorts first
        rot = sparse.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        eigs = eigenvalues(SparseOperator(rot, stencil_size=2))
        assert eigs[0] == pytest.approx(1j)
        assert eigs[1] == pytest.approx(-1j)

    def test_matches_dense_eigvals(self):
        # the Fortran-ordered copy the solver overwrites gives the same spectrum
        nodes = gen_sphere_nodes(200)
        op = assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 15,
                               Kernel(KernelFamily.GAUSSIAN, 2.0))
        dense = op.matrix.toarray()
        ref = sla.eigvals(dense)
        assert np.array_equal(eigenvalues(op), ref[np.lexsort((-ref.imag, -ref.real))])
        assert np.array_equal(dense, op.matrix.toarray())

    def test_size_cap(self):
        big = sparse.identity(DENSE_EIG_MAX_N + 1, format="csr")
        with pytest.raises(ValueError):
            eigenvalues(SparseOperator(big, stencil_size=1))


class TestStabilityReport:
    def test_synthetic_clusters(self):
        eigs = np.array(
            [0.0, -2.1, -1.95, -2.0 + 0.2j, -6.4, -5.9, -30.0, -12.0 + 2.0j]
        )
        rep = stability_report(eigs, 2, 0.5)
        assert [row.matched for row in rep.cluster_table] == [1, 3, 2]
        assert [row.expected for row in rep.cluster_table] == [1, 3, 5]
        assert [row.target for row in rep.cluster_table] == [0.0, -2.0, -6.0]
        assert rep.max_real_part == 0.0
        assert rep.max_imag_abs == 2.0
        assert not rep.unstable

    def test_imaginary_part_excludes(self):
        # real part on target but imaginary part beyond tol must not count
        eigs = np.array([-2.0 + 0.6j, -2.0])
        rep = stability_report(eigs, 1, 0.5)
        assert rep.cluster_table[1].matched == 1

    def test_unstable_flag(self):
        rep = stability_report(np.array([0.5, -2.0]), 0, 0.5)
        assert rep.unstable
        assert rep.max_real_part == 0.5
        assert not stability_report(np.array([0.5, -2.0]), 0, 0.5, real_part_tol=1.0).unstable

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            stability_report(np.array([0.0]), 1, 0.0)


@pytest.fixture(scope="module")
def report():
    nodes = gen_sphere_nodes(400)
    frames = analytic_frames(unit_sphere(), nodes.points)
    op = assemble_operator(nodes, frames, 21, Kernel(KernelFamily.GAUSSIAN, 2.0))
    return stability_report(eigenvalues(op), 3, 0.5)


class TestSphereOperatorSpectrum:
    def test_stable(self, report):
        assert report.max_real_part <= 1e-6
        assert not report.unstable

    def test_low_mode_clusters(self, report):
        for row in report.cluster_table:
            assert row.matched == row.expected, f"k={row.k}"

    def test_csv_round_trip(self, report, tmp_path):
        path = tmp_path / "spec.csv"
        save_spectrum_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "re,im"
        data = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
        )
        eigs = data[:, 0] + 1j * data[:, 1]
        assert np.array_equal(eigs, report.eigenvalues)
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("max_real_part" in ln for ln in comments)
        # one commented table row per cluster
        assert sum("," in ln for ln in comments) >= len(report.cluster_table)
