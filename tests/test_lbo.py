"""Stencil weights and sparse operator assembly.

The closed-form surface Laplacian of an RBF is checked against angular
finite differences on the sphere (an independent parametric route), and
the production weight solve against a hand-rolled dense build solved in
50-digit arithmetic.
"""

import logging

import mpmath
import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse

from rbfsurf import lbo, surface_geom
from rbfsurf._linalg import check_conditioning, solve_rbf_systems, solve_with_cond
from rbfsurf.errors import ConditioningError
from rbfsurf.kernels import Kernel, KernelFamily, lbo_of_rbf_rows
from rbfsurf.lbo import (
    SparseOperator,
    StencilGeometry,
    assemble_operator,
    stencil_weights,
    weight_table,
)
from rbfsurf.nodesets import gen_sphere_nodes, knn_table, nearest_neighbors, unit_sphere
from rbfsurf.surface_geom import SurfaceFrame, _fit_levelsets, analytic_frames, fit_levelset
from rbfsurf.experiments import reference_field, reference_lbo

from conftest import closed_form_phi, repulsion_nodes

GAUSS2 = Kernel(KernelFamily.GAUSSIAN, 2.0)
ALL_FAMILIES = list(KernelFamily)


def sphere_point(theta, phi):
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def angular_lbo(kernel, center, theta, phi, h=1e-3):
    """Surface Laplacian of phi(|x - center|) on the unit sphere by
    5-point angular differences: g_tt + cot(t) g_t + g_pp / sin(t)^2."""

    def g(t, p):
        return kernel.phi(np.linalg.norm(sphere_point(t, p) - center))

    def d1(f, x):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

    def d2(f, x):
        return (
            -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
        ) / (12 * h * h)

    g_t = d1(lambda t: g(t, phi), theta)
    g_tt = d2(lambda t: g(t, phi), theta)
    g_pp = d2(lambda p: g(theta, p), phi)
    return g_tt + g_t / np.tan(theta) + g_pp / np.sin(theta) ** 2


class TestLboOfRbf:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_displacement_limit(self, family):
        # tangential approach: (r.n)/r -> 0, so the value is phi'/r + phi'' at 0
        ker = Kernel(family, 2.0)
        got = lbo_of_rbf_rows(ker, np.zeros((1, 3)), np.zeros(1), np.array([0.0, 0.0, 1.0]),
                              2.0)[0]
        assert got == pytest.approx(ker.dphi_over_r(0.0) + ker.d2phi(0.0), rel=1e-14)

    def test_gaussian_equator_value(self):
        # center at the pole, evaluation on the equator: with r^2 = 2 - 2cos(t)
        # the one-variable reduction g(t) = exp(-2 + 2cos t) gives
        # g'' + cot(t) g' = 4 e^-2 at t = pi/2
        ker = Kernel(KernelFamily.GAUSSIAN, 1.0)
        r_vec = np.array([[1.0, 0.0, -1.0]])
        got = lbo_of_rbf_rows(ker, r_vec, np.linalg.norm(r_vec, axis=1), np.array([1.0, 0.0, 0.0]),
                              2.0)[0]
        assert got == pytest.approx(4.0 * np.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("theta,phi", [(1.1, 0.7), (2.0, -0.3)])
    def test_matches_angular_differences(self, family, theta, phi):
        ker = Kernel(family, 2.0)
        center = sphere_point(0.4, 1.9)
        x = sphere_point(theta, phi)
        r_vec = (x - center)[None]
        got = lbo_of_rbf_rows(ker, r_vec, np.linalg.norm(r_vec, axis=1), x, 2.0)[0]
        assert got == pytest.approx(angular_lbo(ker, center, theta, phi), abs=1e-7)


@pytest.fixture(scope="module")
def shipped1000():
    nodes = repulsion_nodes(1000)
    return nodes, surface_geom.estimate_frames(nodes, 31, GAUSS2)


class TestSingleStencilEntryPoints:
    """The one-stencil names the benchmark probes call, against the batched engine."""

    def test_from_stencil_uses_center_frame(self, sphere1000, sphere1000_frames):
        st = nearest_neighbors(sphere1000, 7, 12)
        geom = StencilGeometry.from_stencil(sphere1000, st, sphere1000_frames)
        assert np.array_equal(geom.points, sphere1000.points[knn_table(sphere1000, 12, [7])[0][0]])
        assert np.array_equal(geom.normal, sphere1000_frames.normals[7])
        assert geom.curvature == sphere1000_frames.curvatures[7]

    @pytest.mark.parametrize("m", [7, 15, 31])
    def test_equal_the_batched_rows(self, shipped1000, m):
        # shipped sphere with the frames sphere-sweep estimates (M = 31)
        nodes, frames = shipped1000
        indices, distances = knn_table(nodes, m)
        fits = _fit_levelsets(nodes.points[indices], distances[:, 1], indices[:, 0], GAUSS2)
        for i in (0, 123, 500, 999):
            st = nearest_neighbors(nodes, i, m)
            assert np.array_equal(st.all_indices(), knn_table(nodes, m, [i])[0][0])
            w, cond = stencil_weights(StencilGeometry.from_stencil(nodes, st, frames), GAUSS2,
                                      gate=False, return_cond=True)
            _, w_table, cond_table = weight_table(nodes, frames, m, GAUSS2, centers=[i])
            assert np.array_equal(w, w_table[0]) and np.array_equal(cond, cond_table[0])
            fit = fit_levelset(st, nodes, GAUSS2, h=float(st.neighbor_distances[0]))
            assert np.array_equal(fit.coefficients, fits.coefficients[i])
            assert np.array_equal(fit.cond, fits.cond[i])

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_gate_and_return_cond(self, sphere1000, sphere1000_frames):
        geom = StencilGeometry.from_stencil(sphere1000, nearest_neighbors(sphere1000, 0, 15),
                                            sphere1000_frames)
        w, cond = stencil_weights(geom, GAUSS2, return_cond=True)
        assert cond > 1.0
        assert np.array_equal(w, stencil_weights(geom, GAUSS2))
        flat = StencilGeometry.from_stencil(sphere1000, nearest_neighbors(sphere1000, 0, 31),
                                            sphere1000_frames)
        with pytest.raises(ConditioningError):
            stencil_weights(flat, Kernel(KernelFamily.GAUSSIAN, 1e-8))


def exact_solve(A, rhs):
    """Solve a double-precision system in 50-digit arithmetic, rounded back."""
    with mpmath.workdps(50):
        x = mpmath.lu_solve(mpmath.matrix(A.tolist()), mpmath.matrix(rhs.tolist()))
        return np.array([float(v) for v in x])


def dense_weights(points, normal, curvature, kernel):
    """Independent build of the augmented system of stencil ``points`` (center
    first) and the center's frame, entry by entry, solved exactly.

    Distances and dot products are plain sums of products.  At cond ~ 1e9
    a last-bit change in the entries alone (a BLAS dot instead of a sum)
    moves the weights by ~ 1e-9 relative, so the entries follow the
    textbook formulas and the 50-digit solve removes the oracle's own
    solve error.
    """
    m = len(points)
    A = np.zeros((m + 1, m + 1))
    for a in range(m):
        for b in range(m):
            A[a, b] = kernel.phi(np.sqrt(np.sum((points[a] - points[b]) ** 2)))
        A[a, m] = 1.0
        A[m, a] = 1.0
    rhs = np.zeros(m + 1)
    for a in range(m):
        rv = points[0] - points[a]
        r = np.sqrt(np.sum(rv * rv))
        if r == 0.0:
            rhs[a] = kernel.dphi_over_r(0.0) + kernel.d2phi(0.0)
        else:
            rn = np.sum(rv * normal)
            c = rn / r
            rhs[a] = (1 + c * c - curvature * rn) * kernel.dphi_over_r(r) + (
                1 - c * c
            ) * kernel.d2phi(r)
    return exact_solve(A, rhs)[:m]


def table_rows(nodes, frames, m, kernel, centers):
    """The production weight rows of ``centers``, through the conditioning gate."""
    indices, w, cond = weight_table(nodes, frames, m, kernel, centers=centers)
    check_conditioning(cond, indices[:, 0])
    return indices, w


def dense_rows(nodes, frames, indices, kernel):
    """:func:`dense_weights` of each stencil row of ``indices``."""
    return [dense_weights(nodes.points[idx], frames.normals[idx[0]], frames.curvatures[idx[0]],
                          kernel) for idx in indices]


class TestStencilWeights:
    def test_row_sum_zero(self, sphere1000, sphere1000_frames):
        rng = np.random.default_rng(3)
        _, rows = table_rows(sphere1000, sphere1000_frames, 21, GAUSS2,
                             rng.integers(0, 1000, size=10))
        for w in rows:
            assert abs(w.sum()) <= 1e-8 * np.abs(w).max()

    @pytest.mark.parametrize("m", [11, 31])
    def test_matches_dense_solve(self, sphere1000, sphere1000_frames, m):
        rng = np.random.default_rng(17)
        indices, rows = table_rows(sphere1000, sphere1000_frames, m, GAUSS2,
                                   rng.integers(0, 1000, size=5))
        for w, w2 in zip(rows, dense_rows(sphere1000, sphere1000_frames, indices, GAUSS2)):
            assert np.abs(w - w2).max() <= 1e-10 * np.abs(w2).max()

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_flat_kernel_trips_gate(self, sphere1000, sphere1000_frames):
        with pytest.raises(ConditioningError):
            table_rows(sphere1000, sphere1000_frames, 31, Kernel(KernelFamily.GAUSSIAN, 1e-8), [0])


def factor_then_solve(A, b):
    """The two-call form :func:`solve_with_cond` replaced: dgetrf, then dgetrs."""
    anorm = np.abs(A).sum(axis=1).max(axis=1)
    x, cond, factors = np.empty(b.shape), np.empty(len(A)), []
    for k in range(len(A)):
        lu, piv, info = sla.lapack.dgetrf(A[k])
        rcond, _ = sla.lapack.dgecon(lu, anorm[k], norm="1")
        cond[k] = 1.0 / rcond if info == 0 and rcond >= np.finfo(float).eps else np.inf
        x[k] = sla.lapack.dgetrs(lu, piv, b[k])[0]
        factors.append((lu, piv))
    residual = (b - (A.astype(np.longdouble) @ x[..., None])[..., 0]).astype(float)
    for k, (lu, piv) in enumerate(factors):
        x[k] += sla.lapack.dgetrs(lu, piv, residual[k])[0]
    return x, cond


def fresh_rbf_systems(centers, rhs, kernel):
    """The form :func:`solve_rbf_systems` replaced: each chunk of 64 builds its
    squared distances from strided views into fresh arrays, copies phi into a
    matrix of ones, and solves as :func:`factor_then_solve` (which equals
    :func:`solve_with_cond` bit for bit) with its longdouble copy of A."""
    n_sys, p, _ = centers.shape
    sol, cond = np.empty((n_sys, p + 1)), np.empty(n_sys)
    for start in range(0, n_sys, 64):
        part = slice(start, start + 64)
        c = centers[part]
        r2 = np.zeros((len(c), p, p))
        for d in range(3):
            delta = c[:, :, None, d] - c[:, None, :, d]
            r2 += delta * delta
        A = np.ones((len(c), p + 1, p + 1))
        A[:, :p, :p] = closed_form_phi(kernel, np.sqrt(r2))
        A[:, p, p] = 0.0
        sol[part], cond[part] = factor_then_solve(A, rhs[part])
    return sol, cond


def captured_systems(monkeypatch, module, run):
    """The (centers, rhs, kernel) that ``run`` hands to ``module.solve_rbf_systems``."""
    calls, real = [], module.solve_rbf_systems
    monkeypatch.setattr(module, "solve_rbf_systems",
                        lambda *args: calls.append(args) or real(*args))
    run()
    (args,) = calls
    return args


class TestLocalSolve:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("kind", ["weights", "levelset"])
    @pytest.mark.parametrize("count", [100, 1])
    def test_in_place_build_matches_fresh_form(self, sphere1000, sphere1000_frames, monkeypatch,
                                               family, kind, count):
        # 100 systems make a full chunk of 64 and a partial one
        kernel = Kernel(family, 3.0)
        centers = np.arange(0, 1000, 10)[:count]
        if kind == "weights":
            args = captured_systems(monkeypatch, lbo, lambda: lbo.weight_table(
                sphere1000, sphere1000_frames, 31, kernel, centers))
        else:
            indices, distances = knn_table(sphere1000, 31, centers)
            args = captured_systems(monkeypatch, surface_geom, lambda: surface_geom._fit_levelsets(
                sphere1000.points[indices], distances[:, 1], indices[:, 0], kernel))
        assert args[0].shape == (count, 31 if kind == "weights" else 33, 3)
        sol, cond = solve_rbf_systems(*args)
        sol_ref, cond_ref = fresh_rbf_systems(*args)
        assert np.all(cond < 1e15)
        assert np.array_equal(sol, sol_ref) and np.array_equal(cond, cond_ref)

    @pytest.mark.parametrize("eps", [2.0, 1.0])
    def test_one_call_matches_factor_then_solve(self, sphere1000, sphere1000_frames, eps):
        # 100 weight systems per kernel, M = 31: cond 5e8-7e9 at eps = 2, 2e12-4e13 at eps = 1
        kernel = Kernel(KernelFamily.GAUSSIAN, eps)
        indices, _ = knn_table(sphere1000, 31, np.arange(0, 1000, 10))
        points = sphere1000.points[indices]
        r = points[:, :1] - points
        A = np.ones((len(points), 32, 32))
        A[:, :31, :31] = kernel.phi(np.linalg.norm(points[:, :, None] - points[:, None], axis=-1))
        A[:, 31, 31] = 0.0
        b = np.pad(lbo_of_rbf_rows(kernel, r, np.linalg.norm(r, axis=-1),
                                   sphere1000_frames.normals[indices[:, 0]],
                                   sphere1000_frames.curvatures[indices[:, 0]]), ((0, 0), (0, 1)))
        x, cond = solve_with_cond(A, b)
        x_ref, cond_ref = factor_then_solve(A, b)
        assert np.array_equal(x, x_ref) and np.array_equal(cond, cond_ref)

    def test_exactly_singular_system_gives_nan(self):
        A = np.array([[[1.0, 2.0], [2.0, 4.0]]])
        with np.errstate(invalid="ignore"):
            x, cond = solve_with_cond(A, np.array([[1.0, 1.0]]))
        assert np.isnan(x).all() and cond[0] == np.inf


class TestConditioningRecord:
    @staticmethod
    def records(caplog):
        return [r for r in caplog.records if r.name == "rbfsurf._linalg"]

    def test_one_record_per_assembly(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf._linalg")
        nodes = gen_sphere_nodes(200)
        frames = analytic_frames(unit_sphere(), nodes.points)
        assemble_operator(nodes, frames, 15, GAUSS2)
        (record,) = self.records(caplog)
        assert record.levelno == logging.DEBUG
        _, _, cond = lbo.weight_table(nodes, frames, 15, GAUSS2)
        assert record.stats == {
            "systems": 200, "cond_min": cond.min(), "cond_median": np.median(cond),
            "cond_max": cond.max(), "above_warn": 0,
            "worst_nodes": np.argsort(-cond)[:10].tolist()}
        assert "'systems': 200" in record.getMessage()

    def test_failing_batch_logs_before_raising(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf._linalg")
        cond = np.array([1e3, 5e12, np.inf, 2e15])
        with pytest.warns(UserWarning, match="1 of 4 above"), pytest.raises(ConditioningError):
            check_conditioning(cond, [7, 8, 9, 10])
        (record,) = self.records(caplog)
        assert record.stats == {"systems": 4, "cond_min": 1e3, "cond_median": (5e12 + 2e15) / 2,
                                "cond_max": np.inf, "above_warn": 3, "worst_nodes": [9, 10, 8, 7]}

    def test_without_nodes(self, sphere1000, sphere1000_frames, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf._linalg")
        _, _, cond = weight_table(sphere1000, sphere1000_frames, 15, GAUSS2, centers=[0])
        check_conditioning(cond)
        (record,) = self.records(caplog)
        assert record.stats["systems"] == 1 and record.stats["worst_nodes"] is None
        assert record.stats["cond_min"] == record.stats["cond_max"] == cond

    def test_silent_by_default(self):
        log = logging.getLogger("rbfsurf._linalg")
        assert log.level == logging.NOTSET and not log.handlers


class TestOperatorHealthRecord:
    @staticmethod
    def records(caplog):
        return [r for r in caplog.records if r.name == "rbfsurf.lbo"]

    def test_one_record_per_assembly(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.lbo")
        nodes = gen_sphere_nodes(200)
        op = assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 15, GAUSS2)
        (record,) = self.records(caplog)
        assert record.levelno == logging.DEBUG
        # row sums nearly cancel: two summation orders agree to roundoff of the weights
        sums, tol = np.abs(op.matrix.toarray().sum(axis=1)), 1e-13 * np.abs(op.matrix.data).max()
        radii = [np.sort(np.linalg.norm(nodes.points - x, axis=1))[14] for x in nodes.points]
        stats = record.stats
        assert stats["rowsum_max"] == pytest.approx(sums.max(), abs=tol)
        assert sums[stats["rowsum_argmax"]] == pytest.approx(sums.max(), abs=tol)
        assert [stats["radius_min"], stats["radius_median"], stats["radius_max"]] == pytest.approx(
            [min(radii), np.median(radii), max(radii)], rel=1e-14)
        assert "rowsum_max" in record.getMessage()

    def test_silent_and_free_by_default(self, caplog, monkeypatch):
        log = logging.getLogger("rbfsurf.lbo")
        assert log.level == logging.NOTSET and not log.handlers
        # below DEBUG the stats are not even computed
        caplog.set_level(logging.INFO, logger="rbfsurf.lbo")
        monkeypatch.setattr(SparseOperator, "row_sums", lambda self: pytest.fail("computed"))
        nodes = gen_sphere_nodes(60)
        assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 7, GAUSS2)
        assert not self.records(caplog)


@pytest.fixture(scope="module")
def small_setup():
    nodes = gen_sphere_nodes(200)
    frames = analytic_frames(unit_sphere(), nodes.points)
    op = assemble_operator(nodes, frames, 15, GAUSS2)
    return nodes, frames, op


class TestAssembleOperator:
    def test_shape_and_row_support(self, small_setup):
        nodes, _, op = small_setup
        assert op.n == 200
        assert op.stencil_size == 15
        assert op.matrix.nnz == 200 * 15
        for i in (0, 57, 199):
            row = op.matrix.getrow(i)
            assert np.array_equal(np.sort(row.indices), np.sort(knn_table(nodes, 15, [i])[0][0]))

    def test_constants_annihilated(self, small_setup):
        _, _, op = small_setup
        scale = np.abs(op.matrix.data).max()
        assert np.abs(op.apply(np.ones(op.n))).max() <= 1e-8 * scale

    def test_reference_field_accuracy(self, sphere1000, sphere1000_op):
        got = sphere1000_op.apply(reference_field(sphere1000.points))
        assert np.abs(got - reference_lbo(sphere1000.points)).max() <= 3e-2

    def test_sphere_eigenfunction(self, sphere1000, sphere1000_op):
        # z restricted to the sphere is a degree-1 harmonic: eigenvalue -2
        z = sphere1000.points[:, 2]
        assert np.abs(sphere1000_op.apply(z) + 2.0 * z).max() <= 2e-2

    def test_rows_match_exact_solve(self, sphere1000, sphere1000_frames, sphere1000_op):
        # the batched rows that assembly stores
        indices, _ = knn_table(sphere1000, 31, [0, 123, 500, 999])
        for idx, ref in zip(indices, dense_rows(sphere1000, sphere1000_frames, indices, GAUSS2)):
            row = sphere1000_op.matrix[idx[0]].toarray()[0, idx]
            assert np.abs(row - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_orientation_invariance(self, small_setup):
        # the weight rows depend on (n, kappa) only through even combinations,
        # so flipping every frame must reproduce the matrix exactly
        nodes, frames, op = small_setup
        flipped = SurfaceFrame(-frames.normals, -frames.curvatures)
        op2 = assemble_operator(nodes, flipped, 15, GAUSS2)
        assert np.array_equal(op.matrix.toarray(), op2.matrix.toarray())

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_failure_aggregation(self):
        nodes = gen_sphere_nodes(50)
        frames = analytic_frames(unit_sphere(), nodes.points)
        with pytest.raises(ConditioningError) as exc_info:
            assemble_operator(nodes, frames, 31, Kernel(KernelFamily.GAUSSIAN, 1e-8))
        assert len(exc_info.value.node_indices) > 0

    def test_validation(self, small_setup):
        nodes, frames, _ = small_setup
        with pytest.raises(ValueError):
            assemble_operator(nodes, frames, 0, GAUSS2)
        with pytest.raises(ValueError):
            assemble_operator(nodes, frames, 201, GAUSS2)
        short = SurfaceFrame(frames.normals[:100], frames.curvatures[:100])
        with pytest.raises(ValueError):
            assemble_operator(nodes, short, 15, GAUSS2)

    def test_nonfinite_normal_rejected(self, small_setup):
        # the kernel matrix does not involve the normals, so the
        # conditioning gate alone would let this through as NaN weights
        nodes, frames, _ = small_setup
        normals = frames.normals.copy()
        normals[7] = np.nan
        with pytest.raises(ValueError, match="node 7"):
            assemble_operator(nodes, SurfaceFrame(normals, frames.curvatures), 15, GAUSS2)


class TestSparseOperator:
    def test_apply_matches_dense(self, small_setup):
        _, _, op = small_setup
        rng = np.random.default_rng(11)
        f = rng.standard_normal(op.n)
        dense = op.matrix.toarray() @ f
        assert np.abs(op.apply(f) - dense).max() <= 1e-12 * np.abs(op.apply(f)).max()

    def test_apply_stacked_fields(self, small_setup):
        nodes, _, op = small_setup
        rng = np.random.default_rng(12)
        # a (2, N) state, and the strided (3, N) coordinate functions whose
        # Laplacian is the accuracy check on the Schwarz P surface
        for fields in (rng.standard_normal((2, op.n)), nodes.points.T):
            got = op.apply(fields)
            assert got.shape == fields.shape
            for row, field in zip(got, fields):
                assert np.array_equal(row, op.apply(field))

    def test_apply_is_matmul_bit_for_bit(self, small_setup):
        # the kernel call behind `matrix @ row`, on every field layout the
        # package applies and on 64-bit index arrays
        nodes, _, op = small_setup
        rng = np.random.default_rng(13)
        wide = sparse.csr_matrix(op.matrix, copy=True)
        wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
        wide_op = SparseOperator(wide, stencil_size=op.stencil_size)
        assert wide_op.matrix.indices.dtype == wide_op.matrix.indptr.dtype == np.int64
        state = rng.standard_normal((2, op.n))
        cases = [(op, state[0]), (op, state), (op, nodes.points.T), (op, nodes.points[:, 1]),
                 (wide_op, state), (op, rng.integers(-5, 5, op.n))]
        for operator, field in cases:
            got = operator.apply(field)
            assert got.shape == field.shape and got.dtype == np.float64
            assert not np.shares_memory(got, field)
            rows = np.atleast_2d(field)
            assert np.array_equal(np.atleast_2d(got), [operator.matrix @ row for row in rows])

    def test_apply_length_mismatch(self, small_setup):
        _, _, op = small_setup
        with pytest.raises(ValueError):
            op.apply(np.ones(op.n - 1))
        with pytest.raises(ValueError):
            op.apply(np.ones((2, 2, op.n)))

    def test_row_sums(self, small_setup):
        # rows nearly cancel, so the two summation orders agree only to
        # roundoff at the scale of the individual weights
        _, _, op = small_setup
        tol = 1e-13 * np.abs(op.matrix.data).max()
        assert np.abs(op.row_sums() - op.matrix.toarray().sum(axis=1)).max() <= tol

    def test_save_load_round_trip(self, small_setup, tmp_path):
        _, _, op = small_setup
        path = tmp_path / "op.txt"
        op.save(path)
        back = SparseOperator.load(path)
        assert back.n == op.n
        assert back.stencil_size == op.stencil_size
        # %.17g prints doubles losslessly, so the round trip is exact
        assert np.array_equal(back.matrix.toarray(), op.matrix.toarray())

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 0 1.0\n")
        with pytest.raises(ValueError):
            SparseOperator.load(path)

    @pytest.mark.parametrize("header", ["3 0", "-2 3", "2 3"],
                             ids=["no-entries-per-row", "negative-size", "stencil-above-size"])
    def test_load_rejects_bad_sizes(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="N >= 1 and 1 <= M <= N"):
            SparseOperator.load(path)

    @pytest.mark.parametrize("body, message", [
        ("0 0 1.0\n0 1 -1.0\n1 1 1.0\n", "row 1 has 1 entries"),
        ("0 0 1.0\n0 0 2.0\n1 0 1.0\n1 1 -1.0\n", "row 0 repeats a column"),
        ("0 0 1.0\n0 2 -1.0\n1 0 1.0\n1 1 -1.0\n", r"\[0, 2\)"),
        ("0 0 nan\n0 1 -1.0\n1 0 1.0\n1 1 -1.0\n", "finite"),
    ], ids=["entries-per-row", "repeated-column", "index-range", "nonfinite-weight"])
    def test_load_rejects_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=message):
            SparseOperator.load(path)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SparseOperator(sparse.csr_matrix(np.ones((2, 3))), stencil_size=3)

    def test_complex_rejected(self):
        # the CSR kernel writes into a real output, so a complex matrix cannot apply
        with pytest.raises(ValueError, match="complex128"):
            SparseOperator(sparse.csr_matrix([[1j, 0], [0, 1.0]]), stencil_size=1)
