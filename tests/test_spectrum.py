"""Eigenvalue diagnostics: the partial spectrum against a dense oracle,
sorting, sphere clusters, stability flags."""

import logging

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackNoConvergence, splu

from rbfsurf import spectrum
from rbfsurf.errors import RbfSurfError
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import SparseOperator, assemble_operator
from rbfsurf.nodesets import gen_sphere_nodes, unit_sphere
from rbfsurf.spectrum import (
    DISC_RADIUS,
    SHIFT,
    eigenvalues,
    save_spectrum_csv,
    stability_report,
)
from rbfsurf.surface_geom import analytic_frames

# eigenvalues inside the disc come from shift-invert at ARPACK's default
# (machine-precision) tolerance; on the sphere operators they agree with the
# dense solve to about 1e-12
DISC_BOUND = 1e-9
# the largest magnitude comes from eigs(which="LM", tol=1e-6)
FAR_RTOL = 1e-6
# far eigenvalues of the synthetic operators below: outside the default disc
FAR = -60.0 - np.arange(97)


def dense_eigenvalues(op):
    """The full spectrum by a dense general eigensolve, sorted as ``eigenvalues``
    sorts: the oracle for the partial spectrum."""
    eigs = sla.eigvals(op.matrix.toarray())
    return eigs[np.lexsort((-eigs.imag, -eigs.real))]


def sphere_op(n, m):
    nodes = gen_sphere_nodes(n)
    return assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), m,
                             Kernel(KernelFamily.GAUSSIAN, 2.0))


def block_operator(*blocks):
    return SparseOperator(sparse.block_diag(blocks, format="csr"))


class TestEigenvalues:
    def test_sorted_by_real_part(self):
        eigs = eigenvalues(block_operator(sparse.diags(np.r_[-3.0, -1.0, -2.0, FAR])))
        # the disc part, then the six rightmost and the largest magnitude outside it
        assert np.allclose(eigs, [-1.0, -2.0, -3.0, -60.0, -61.0, -62.0, -156.0])

    def test_complex_pair_order(self):
        # rotation block: eigenvalues +-i share the real part, the positive
        # imaginary one sorts first
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        eigs = eigenvalues(block_operator(rot, sparse.diags(FAR)))
        assert eigs[0] == pytest.approx(1j)
        assert eigs[1] == pytest.approx(-1j)

    def test_disc_grows_until_complete(self, caplog):
        # 100 eigenvalues in the disc: k = 64 ends inside it, k = 128 beyond
        caplog.set_level(logging.DEBUG, logger="rbfsurf.spectrum")
        inside = -0.4 * np.arange(100.0)
        eigs = eigenvalues(block_operator(sparse.diags(np.r_[inside, FAR])))
        assert np.allclose(eigs, np.r_[inside, -156.0], rtol=0, atol=DISC_BOUND)
        assert caplog.records[-1].stats["k"] == 128

    @pytest.mark.parametrize("blocks, ordering", [
        ((), "MMD_AT_PLUS_A"),
        # both columns of the rotation block minus SHIFT*I peak off the diagonal
        ((np.array([[0.0, 1.0], [-1.0, 0.0]]),), "COLAMD"),
    ], ids=["diagonal-pivots", "off-diagonal-pivot"])
    def test_one_factor_per_call(self, caplog, monkeypatch, blocks, ordering):
        # the k = 64 and k = 128 shift-invert calls both solve with one factor
        caplog.set_level(logging.DEBUG, logger="rbfsurf.spectrum")
        orderings = []

        def spy(matrix, **options):
            orderings.append(options)
            return splu(matrix, **options)

        monkeypatch.setattr(spectrum, "splu", spy)
        inside = -0.4 * np.arange(100.0)
        eigs = eigenvalues(block_operator(sparse.diags(np.r_[inside, FAR]), *blocks))
        assert np.allclose(eigs[np.abs(eigs.imag) == 0], np.r_[inside, -156.0], rtol=0,
                           atol=DISC_BOUND)
        stats = caplog.records[-1].stats
        assert stats["k"] == 128
        assert orderings == [{"permc_spec": ordering}]
        assert stats["ordering"] == ordering
        assert stats["factor_nnz"] > 0 and stats["factor_s"] > 0

    @pytest.mark.parametrize("matrix", [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        sparse.diags([-3.0, -1.0, -2.0]),
        # every eigenvalue in the disc: it needs k = N, and ARPACK k < N - 1
        sparse.diags(-0.1 * np.arange(100.0)),
    ], ids=["2x2", "3x3", "all-in-disc"])
    def test_too_small_for_arpack(self, matrix):
        with pytest.raises(ValueError, match="ARPACK needs k < N - 1"):
            eigenvalues(block_operator(matrix))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_radius_checked_before_arpack(self, monkeypatch, radius):
        monkeypatch.setattr(spectrum, "eigs", lambda *a, **k: pytest.fail("ARPACK called"))
        with pytest.raises(ValueError, match=f"disc radius must be finite and positive, "
                                             f"got {radius}"):
            eigenvalues(block_operator(sparse.diags(np.r_[-3.0, -1.0, FAR])), radius=radius)

    def test_far_growing_mode_found_once(self):
        # a growing mode far outside the disc is both the rightmost and the
        # largest eigenvalue: the LR part finds it, and it is kept once
        op = sphere_op(200, 15)
        eigs = eigenvalues(block_operator(op.matrix, np.array([[1000.0]])))
        assert np.sum(np.abs(eigs - 1000.0) < 1000.0 * FAR_RTOL) == 1
        report = stability_report(eigs, 2, 0.5)
        assert report.unstable and report.max_real_part == pytest.approx(1000.0)
        assert [row.matched for row in report.cluster_table] == [1, 3, 5]

    def test_reruns_bit_identical(self):
        op = sphere_op(200, 15)
        first, second = eigenvalues(op), eigenvalues(op)
        assert first.tobytes() == second.tobytes()

    def test_no_convergence_is_one_clear_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(spectrum, "eigs", stalled)
        with pytest.raises(RbfSurfError, match=r"ARPACK eigs\(k=64, sigma=0.5\) did not "
                                               r"converge on the N = 200 operator"):
            eigenvalues(sphere_op(200, 15))

    def test_singular_shift_is_one_clear_error(self):
        # SHIFT itself is an eigenvalue, so L - SHIFT*I has an exact zero pivot
        op = block_operator(sparse.diags(np.r_[spectrum.SHIFT, FAR]))
        with pytest.raises(RbfSurfError, match=r"^the shift 0.5 is an eigenvalue of the "
                                               r"N = 98 operator: L - 0.5 I is exactly "
                                               r"singular \(Factor is exactly singular\)$"):
            eigenvalues(op)


@pytest.fixture(scope="module", params=[(200, 15), (400, 21), (1000, 31)],
                ids=["sphere200", "sphere400", "sphere1000"])
def sphere_pair(request):
    op = sphere_op(*request.param)
    return eigenvalues(op), dense_eigenvalues(op)


class TestAgainstDenseOracle:
    def test_disc_eigenvalues_found_exactly_once(self, sphere_pair):
        eigs, dense = sphere_pair
        dist = np.abs(dense - SHIFT)
        # no dense eigenvalue so near the circle that the bound decides its side
        assert np.abs(dist - DISC_RADIUS).min() > DISC_BOUND
        inside = dense[dist <= DISC_RADIUS]
        found = eigs[np.abs(eigs - SHIFT) <= DISC_RADIUS]
        assert len(found) == len(inside)
        gap = np.abs(inside[:, None] - found[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= DISC_BOUND

    def test_largest_magnitude(self, sphere_pair):
        eigs, dense = sphere_pair
        assert np.abs(eigs).max() == pytest.approx(np.abs(dense).max(), rel=FAR_RTOL)

    def test_clusters_and_verdict_equal(self, sphere_pair):
        eigs, dense = sphere_pair
        for real_part_tol in (None, 1e-6):
            sparse_rep = stability_report(eigs, 6, 0.5, real_part_tol)
            dense_rep = stability_report(dense, 6, 0.5, real_part_tol)
            assert sparse_rep.cluster_table == dense_rep.cluster_table
            assert sparse_rep.unstable == dense_rep.unstable


class TestDebugRecord:
    @staticmethod
    def records(caplog):
        return [r for r in caplog.records if r.name == "rbfsurf.spectrum"]

    def test_one_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.spectrum")
        op = sphere_op(200, 15)
        eigs = eigenvalues(op)
        (record,) = self.records(caplog)
        assert record.levelno == logging.DEBUG
        stats = record.stats
        assert stats.pop("seconds") > stats.pop("factor_s") > 0
        factor = splu((op.matrix - SHIFT * sparse.identity(200)).tocsc(),
                      permc_spec="MMD_AT_PLUS_A")
        assert stats == {"n": 200, "eigenvalues": len(eigs), "radius": DISC_RADIUS, "k": 64,
                         "abscissa": eigs.real.max(), "abs_max": np.abs(eigs).max(),
                         "ordering": "MMD_AT_PLUS_A", "factor_nnz": factor.nnz}
        assert "'n': 200" in record.getMessage()

    def test_silent_by_default(self):
        log = logging.getLogger("rbfsurf.spectrum")
        assert log.level == logging.NOTSET and not log.handlers


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

    @pytest.mark.parametrize("tol, message", [
        (np.inf, "cluster tolerance must be finite and positive, got inf"),
        (0.0, "cluster tolerance must be positive, got 0.0"),
        (-1.0, "cluster tolerance must be positive, got -1.0"),
    ])
    def test_tol_must_be_finite_and_positive(self, tol, message):
        # an infinite tolerance would match every eigenvalue to every cluster
        with pytest.raises(ValueError, match=message):
            stability_report(np.array([0.0, -2.0]), 1, tol)

    @pytest.mark.parametrize("real_part_tol", [np.nan, np.inf, -np.inf, -1e-6])
    def test_real_part_tol_must_be_finite_and_nonnegative(self, real_part_tol):
        # a NaN tolerance would pass any spectrum as stable; the check comes before the
        # spectrum's own (an empty one raises for the tolerance)
        message = f"real-part tolerance must be finite and nonnegative, got {real_part_tol}"
        for eigs in (np.array([5.0, -2.0]), np.array([])):
            with pytest.raises(ValueError, match=message):
                stability_report(eigs, 1, 0.5, real_part_tol=real_part_tol)

    @pytest.mark.parametrize("eigs", [np.array([np.nan, -2.0]), np.array([-2.0, np.inf]),
                                      np.array([-2.0, complex(0.0, np.nan)])],
                             ids=["nan", "inf", "nan-imag"])
    def test_nonfinite_rejected(self, eigs):
        with pytest.raises(ValueError, match="not finite"):
            stability_report(eigs, 1, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            stability_report(np.array([]), 1, 0.5)

    def test_negative_kmax_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            stability_report(np.array([0.0, -2.0]), -1, 0.5)

    @pytest.mark.parametrize("k_max", [2.5, np.float64(2.0)], ids=["fraction", "float64"])
    def test_non_integer_kmax_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            stability_report(np.array([0.0, -2.0]), k_max, 0.5)


@pytest.fixture(scope="module")
def report():
    return stability_report(eigenvalues(sphere_op(400, 21)), 3, 0.5)


class TestSphereOperatorSpectrum:
    def test_stable(self, report):
        assert report.max_real_part <= 1e-6
        assert not report.unstable

    def test_low_mode_clusters(self, report):
        for row in report.cluster_table:
            assert row.matched == row.expected, f"k={row.k}"

    def test_csv_round_trip(self, report, tmp_path):
        path = tmp_path / "spec.csv"
        save_spectrum_csv(report, path, 400, DISC_RADIUS)
        lines = path.read_text().splitlines()
        assert lines[0] == "re,im"
        data = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
        )
        eigs = data[:, 0] + 1j * data[:, 1]
        assert np.array_equal(eigs, report.eigenvalues)
        comments = [ln for ln in lines if ln.startswith("#")]
        assert comments[0].startswith(
            f"# partial spectrum: {len(eigs)} of 400 eigenvalues, every one within 50 of 0.5")
        assert any("max_real_part" in ln for ln in comments)
        # one commented table row per cluster
        assert sum("," in ln for ln in comments) >= len(report.cluster_table)
