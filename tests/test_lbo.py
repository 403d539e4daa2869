"""Stencil weights and sparse operator assembly.

The closed-form surface Laplacian of an RBF is checked against angular
finite differences on the sphere (an independent parametric route), and
the production weight solve against a hand-rolled dense build solved in
50-digit arithmetic.
"""

import logging
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse

from rbfsurf import _linalg, lbo, surface_geom
from rbfsurf._linalg import check_conditioning, factored_blocks, solve_refined
from rbfsurf.errors import ConditioningError
from rbfsurf.kernels import Kernel, KernelFamily, lbo_of_rbf_rows
from rbfsurf.lbo import (
    SparseOperator,
    StencilGeometry,
    assemble_operator,
    stencil_weights,
    weight_table,
)
from rbfsurf.nodesets import NodeSet, gen_sphere_nodes, knn_table, nearest_neighbors, unit_sphere
from rbfsurf.surface_geom import (
    SurfaceFrame,
    _fit_levelsets,
    analytic_frames,
    estimate_frames,
    fit_levelset,
    levelset_curvature,
    levelset_normal,
)
from rbfsurf.experiments import reference_field, reference_lbo

from conftest import closed_form_phi, repulsion_nodes

GAUSS2 = Kernel(KernelFamily.GAUSSIAN, 2.0)
ALL_FAMILIES = list(KernelFamily)


def radial(kernel, d):
    return kernel.dphi_over_r(d), kernel.d2phi(d)


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
        d = np.zeros(1)
        got = lbo_of_rbf_rows(np.zeros((1, 3)), d, radial(ker, d), np.array([0.0, 0.0, 1.0]),
                              2.0)[0]
        assert got == pytest.approx(ker.dphi_over_r(0.0) + ker.d2phi(0.0), rel=1e-14)

    def test_gaussian_equator_value(self):
        # center at the pole, evaluation on the equator: with r^2 = 2 - 2cos(t)
        # the one-variable reduction g(t) = exp(-2 + 2cos t) gives
        # g'' + cot(t) g' = 4 e^-2 at t = pi/2
        ker = Kernel(KernelFamily.GAUSSIAN, 1.0)
        r_vec = np.array([[1.0, 0.0, -1.0]])
        d = np.linalg.norm(r_vec, axis=1)
        got = lbo_of_rbf_rows(r_vec, d, radial(ker, d), np.array([1.0, 0.0, 0.0]), 2.0)[0]
        assert got == pytest.approx(4.0 * np.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("theta,phi", [(1.1, 0.7), (2.0, -0.3)])
    def test_matches_angular_differences(self, family, theta, phi):
        ker = Kernel(family, 2.0)
        center = sphere_point(0.4, 1.9)
        x = sphere_point(theta, phi)
        r_vec = (x - center)[None]
        d = np.linalg.norm(r_vec, axis=1)
        got = lbo_of_rbf_rows(r_vec, d, radial(ker, d), x, 2.0)[0]
        assert got == pytest.approx(angular_lbo(ker, center, theta, phi), abs=1e-7)


@pytest.fixture(scope="module")
def shipped1000():
    nodes = repulsion_nodes(1000)
    return nodes, surface_geom.estimate_frames(nodes, 31, GAUSS2)


def level_set_chunks(nodes, m, kernel, centers=None):
    """The chunks ``(part, fit, weights)`` of the level-set fits of ``centers`` (all nodes
    by default), offset by the nearest-neighbor distance as estimate_frames runs them."""
    indices, distances = knn_table(nodes, m, centers)
    return _fit_levelsets(nodes.points[indices], distances[:, 1], indices[:, 0], kernel)


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
        fits = [fit for _, fit, _ in level_set_chunks(nodes, m, GAUSS2)]
        coefficients = np.concatenate([fit.coefficients for fit in fits])
        fit_cond = np.concatenate([fit.cond for fit in fits])
        for i in (0, 123, 500, 999):
            st = nearest_neighbors(nodes, i, m)
            assert np.array_equal(st.all_indices(), knn_table(nodes, m, [i])[0][0])
            w, cond = stencil_weights(StencilGeometry.from_stencil(nodes, st, frames), GAUSS2,
                                      gate=False, return_cond=True)
            _, w_table, cond_table = weight_table(nodes, frames, m, GAUSS2, centers=[i])
            assert np.array_equal(w, w_table[0]) and np.array_equal(cond, cond_table[0])
            fit = fit_levelset(st, nodes, GAUSS2, h=float(st.neighbor_distances[0]))
            assert np.array_equal(fit.coefficients, coefficients[i])
            assert np.array_equal(fit.cond, fit_cond[i])
            if m == 31:
                # the frame of the fit, up to the sign the orientation pass fixes
                normal = levelset_normal(fit, nodes.points[i])
                sign = np.sign(normal @ frames.normals[i])
                assert np.array_equal(sign * normal, frames.normals[i])
                kappa = levelset_curvature(fit, nodes.points[i], normal)
                assert sign * kappa == frames.curvatures[i]

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
    """Factor, estimate and refine each system of ``A`` (K, P, P) from fresh copies:
    dgetrf, dgecon and dgetrs, the two-call form of the in-place ``dgesv``."""
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
    """The form the factored blocks replaced: each chunk of 64 builds its
    squared distances from strided views into fresh arrays, copies phi into a
    matrix of ones, and solves as :func:`factor_then_solve` with its longdouble
    copy of A."""
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


def refined_systems(centers, rhs, kernel):
    """Solutions (K, P + 1) and cond of the augmented systems of ``centers`` (K, P, 3) for
    ``rhs``: :func:`factored_blocks` and :func:`solve_refined`, chunk by chunk."""
    sol, cond = np.empty(rhs.shape), np.empty(len(rhs))
    for part, A, part_cond, solve in factored_blocks(centers, centers.shape[1], kernel):
        sol[part], cond[part] = solve_refined(A, rhs[part], solve), part_cond
    return sol, cond


def laplacian_rows(kernel, points, normals, curvatures):
    """The surface-Laplacian rows (K, M) of stencils ``points`` (K, M, 3), center first, at
    their centers: :func:`lbo_of_rbf_rows` of the r-vectors from the center."""
    r = points[:, :1] - points
    d = np.linalg.norm(r, axis=-1)
    return lbo_of_rbf_rows(r, d, radial(kernel, d), normals, curvatures)


def bordered(rows):
    """Weight-system right-hand sides (K, M + 1): ``rows`` and the constant's zero."""
    return np.pad(rows, ((0, 0), (0, 1)))


def captured_systems(monkeypatch, run):
    """The weight rows and cond that ``run`` gets from ``lbo._weight_rows``, and the
    (points, rhs, kernel) of those systems."""
    calls, real = [], lbo._weight_rows

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lbo, "_weight_rows", record)
    run()
    (((points, normals, curvatures, kernel), (w, cond)),) = calls
    return w, cond, (points, bordered(laplacian_rows(kernel, points, normals, curvatures)),
                     kernel)


def fused_weight_systems(nodes, frames, m, kernel, centers):
    """The weight rows and cond that the level-set chunks of ``centers`` solve with their
    block factors for the given frames, and the (points, rhs, kernel) of those systems."""
    indices, _ = knn_table(nodes, m, centers)
    normals, curvatures = frames.normals[indices[:, 0]], frames.curvatures[indices[:, 0]]
    points = nodes.points[indices]
    rows = laplacian_rows(kernel, points, normals, curvatures)
    w, cond = np.empty((len(indices), m)), np.empty(len(indices))
    for part, _, weights in level_set_chunks(nodes, m, kernel, centers):
        w[part], cond[part] = weights(rows[part])
    return w, cond, (points, bordered(rows), kernel)


class TestLocalSolve:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("kind", ["weights", "fused"])
    @pytest.mark.parametrize("count", [100, 1])
    def test_in_place_build_matches_fresh_form(self, sphere1000, sphere1000_frames, monkeypatch,
                                               family, kind, count):
        # 100 systems make a full chunk of 64 and a partial one; "weights" factors the
        # weight systems themselves, "fused" solves the rows with the factors of the
        # level-set fits' (M + 1) blocks, factored together with the two off-surface columns
        kernel = Kernel(family, 3.0)
        centers = np.arange(0, 1000, 10)[:count]
        if kind == "weights":
            w, cond, args = captured_systems(monkeypatch, lambda: lbo.weight_table(
                sphere1000, sphere1000_frames, 31, kernel, centers))
        else:
            w, cond, args = fused_weight_systems(sphere1000, sphere1000_frames, 31, kernel,
                                                 centers)
        assert args[0].shape == (count, 31, 3)
        sol_ref, cond_ref = fresh_rbf_systems(*args)
        assert np.all(cond < 1e15)
        # the constant's unknown is discarded
        assert np.array_equal(w, sol_ref[:, :-1]) and np.array_equal(cond, cond_ref)

    @pytest.mark.parametrize("eps", [2.0, 1.0])
    def test_ill_conditioned_weights_match_fresh_form(self, sphere1000, sphere1000_frames,
                                                      monkeypatch, eps):
        # 100 weight systems, M = 31: cond 5e8-7e9 at eps = 2, 2e12-4e13 at eps = 1
        kernel = Kernel(KernelFamily.GAUSSIAN, eps)
        w, cond, args = captured_systems(monkeypatch, lambda: lbo.weight_table(
            sphere1000, sphere1000_frames, 31, kernel, np.arange(0, 1000, 10)))
        sol_ref, cond_ref = fresh_rbf_systems(*args)
        assert cond.min() > (1e8 if eps == 2.0 else 1e12) and cond.max() < 1e15
        assert np.array_equal(w, sol_ref[:, :-1]) and np.array_equal(cond, cond_ref)

    def test_coincident_centers_give_nan_and_inf_cond(self, sphere1000):
        # two equal kernel rows factor to an exact zero pivot; the rest of the batch is untouched
        indices, _ = knn_table(sphere1000, 31, np.arange(0, 1000, 10))
        centers = sphere1000.points[indices]
        centers[7, 1] = centers[7, 0]
        rhs = np.random.default_rng(7).normal(size=(100, 32))
        sol, cond = refined_systems(centers, rhs, GAUSS2)
        with np.errstate(invalid="ignore"):  # the fresh form's longdouble residual meets inf
            sol_ref, cond_ref = fresh_rbf_systems(centers, rhs, GAUSS2)
        assert np.isnan(sol[7]).all() and cond[7] == np.inf
        assert np.isfinite(sol[np.arange(100) != 7]).all()
        assert np.array_equal(sol, sol_ref, equal_nan=True) and np.array_equal(cond, cond_ref)

    def test_both_callers_solve_through_solve_refined(self, monkeypatch):
        # 200 nodes make four chunks: one refined solve each, for analytic frames in
        # assemble_operator and for the rows that estimate_frames fits and carries
        calls = []
        for module in (lbo, surface_geom):
            real = module.solve_refined
            monkeypatch.setattr(module, "solve_refined", lambda *args, module=module, real=real:
                                calls.append(module.__name__) or real(*args))
        nodes = gen_sphere_nodes(200)
        assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 15, GAUSS2)
        assert calls == ["rbfsurf.lbo"] * 4
        assemble_operator(nodes, surface_geom.estimate_frames(nodes, 15, GAUSS2), 15, GAUSS2)
        assert calls == ["rbfsurf.lbo"] * 4 + ["rbfsurf.surface_geom"] * 4

    def test_chunk_converts_its_block_once(self, monkeypatch):
        # 200 nodes make four chunks; in each, the fit's refinement (surface_geom.refine)
        # and the weights' (through solve_refined, _linalg.refine) read one long-double copy
        calls = []
        for module in (surface_geom, _linalg):
            real = module.refine
            monkeypatch.setattr(module, "refine", lambda A, *args, module=module, real=real:
                                calls.append((module.__name__, A)) or real(A, *args))
        surface_geom.estimate_frames(gen_sphere_nodes(200), 15, GAUSS2)
        assert [name for name, _ in calls] == ["rbfsurf.surface_geom", "rbfsurf._linalg"] * 4
        for (_, fit_A), (_, weight_A) in zip(calls[::2], calls[1::2]):
            assert fit_A.dtype == weight_A.dtype == np.longdouble
            assert fit_A.shape[1:] == (18, 18) and weight_A.shape[1:] == (16, 16)
            assert np.shares_memory(fit_A, weight_A)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("caller", ["weights", "fused"])
    def test_coincident_neighbors_give_nan_rows_without_warnings(self, sphere1000,
                                                                 sphere1000_frames, caller):
        # neighbors 1 and 2 of node 0 coincide: its (M + 1) block factors to an exact zero
        # pivot under the Sandybridge, Haswell and Prescott kernels alike, and both users
        # of the factors give a NaN row and cond inf, warning-free; the other rows are finite
        indices, distances = knn_table(sphere1000, 31, np.arange(0, 1000, 10))
        points = sphere1000.points[indices]
        points[0, 2] = points[0, 1]
        ctr, bad = indices[:, 0], np.arange(100) == 0
        normals, curvatures = sphere1000_frames.normals[ctr], sphere1000_frames.curvatures[ctr]
        if caller == "weights":
            w, cond = lbo._weight_rows(points, normals, curvatures, GAUSS2)
        else:
            w, cond = np.empty((100, 31)), np.empty(100)
            rows = laplacian_rows(GAUSS2, points, normals, curvatures)
            for part, fit, weights in _fit_levelsets(points, distances[:, 1], ctr, GAUSS2):
                w[part], cond[part] = weights(rows[part])
                assert np.array_equal(np.isnan(fit.coefficients).all(axis=1), bad[part])
                assert np.array_equal(fit.cond == np.inf, bad[part])
        assert np.isnan(w[bad]).all() and np.all(cond[bad] == np.inf)
        assert np.isfinite(w[~bad]).all() and np.all(cond[~bad] < 1e15)


class TestLocalSolveSchur:
    """The level-set fits from the (M + 1) block's factors and a 2 x 2 Schur step, against
    the dense (M + 3) system of the same centers solved in the fresh form."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_coefficients_match_dense_fresh_form(self, sphere1000, family):
        # measured on these 100 stencils: coefficients within 3.6e-14 of their largest,
        # the constant within 6.9e-18, cond 0.91-1.48 times the dense system's
        kernel = Kernel(family, 3.0)
        fits = [fit for _, fit, _ in level_set_chunks(sphere1000, 31, kernel,
                                                      np.arange(0, 1000, 10))]
        centers = np.concatenate([fit.centers for fit in fits])
        rhs = np.zeros((100, 34))
        rhs[:, 31], rhs[:, 32] = 1.0, -1.0
        sol, cond = fresh_rbf_systems(centers, rhs, kernel)
        scale = np.abs(sol[:, :33]).max(axis=1)
        coefficients = np.concatenate([fit.coefficients for fit in fits])
        constant = np.concatenate([fit.constant for fit in fits])
        assert np.all(np.abs(coefficients - sol[:, :33]).max(axis=1) <= 1e-12 * scale)
        assert np.all(np.abs(constant - sol[:, 33]) <= 1e-15 * scale)
        ratio = np.concatenate([fit.cond for fit in fits]) / cond
        assert np.all((0.5 <= ratio) & (ratio <= 2.0))


class TestLocalSolveSizes:
    """Systems of odd size P = M + 1 packed P^2 doubles apart would start every other one 8
    bytes off a 16-byte boundary, where OpenBLAS's Sandybridge kernels factor into other
    bits; the solve's 64-byte system stride keeps them equal to the fresh form's factors."""

    @pytest.mark.parametrize("m", [4, 31, 32])
    def test_matches_fresh_form(self, sphere1000, m):
        # 70 systems make a full chunk of 64 and a partial one; P = 5, 32 and 33
        indices, _ = knn_table(sphere1000, m, np.arange(70) * 13)
        rhs = np.random.default_rng(m).normal(size=(70, m + 1))
        args = (sphere1000.points[indices], rhs, Kernel(KernelFamily.GAUSSIAN, 3.0))
        sol, cond = refined_systems(*args)
        sol_ref, cond_ref = fresh_rbf_systems(*args)
        assert np.all(cond < 1e12)
        assert np.array_equal(sol, sol_ref) and np.array_equal(cond, cond_ref)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("extra", [0, 2])
    @pytest.mark.parametrize("m", [4, 31, 32])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_solve_matches_dgesv(self, sphere1000, m, columns, extra, family):
        # dgesv factored and solved each system in one call before ``solve``; on a copy of
        # each block it gives the same factors (cond) and, for one column, the same solution.
        # Two columns are pinned to dgetrs on dgesv's factors: from order 32 on, OpenBLAS's
        # Haswell and Prescott kernels solve two columns inside dgesv in other bits than
        # dgetrs does (the Sandybridge kernels do not).  P = m + 2 is the fits' shape, two
        # centers past the block; the block goes into factor storage untransposed, which
        # needs it to equal its transpose bit for bit
        indices, _ = knn_table(sphere1000, m + extra, np.arange(70) * 13)
        shape = (70, m + 1) if columns == 1 else (70, columns, m + 1)
        b = np.random.default_rng(m).normal(size=shape)
        x, x_ref, cond_ref = b.copy(), np.empty(b.shape), np.empty(70)
        for part, A, cond, solve in factored_blocks(sphere1000.points[indices], m,
                                                    Kernel(family, 2.0)):
            blocks = A[:, :m + 1, :m + 1]
            assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
            solve(x[part])
            for k, block, anorm in zip(range(70)[part], blocks,
                                       np.abs(blocks).sum(axis=1).max(axis=1)):
                lu, piv, sol, info = sla.lapack.dgesv(np.array(block, order="F"), b[k].T)
                assert info == 0
                x_ref[k] = (sol if columns == 1 else sla.lapack.dgetrs(lu, piv, b[k].T)[0]).T
                cond_ref[k] = 1.0 / sla.lapack.dgecon(lu, anorm, norm="1")[0]
            assert np.array_equal(cond, cond_ref[part])
        assert np.array_equal(x, x_ref)

    def test_strided_inputs_are_left_unchanged(self, sphere1000):
        # centers and rhs in Fortran order, not C-contiguous: read, never written
        indices, _ = knn_table(sphere1000, 32, np.arange(70))
        centers = np.asfortranarray(sphere1000.points[indices])
        rhs = np.asfortranarray(np.random.default_rng(1).normal(size=(70, 33)))
        assert not (centers.flags.c_contiguous or rhs.flags.c_contiguous)
        before = (centers.copy(), rhs.copy())
        sol, cond = refined_systems(centers, rhs, GAUSS2)
        sol_ref, cond_ref = fresh_rbf_systems(*before, GAUSS2)
        assert np.array_equal(sol, sol_ref) and np.array_equal(cond, cond_ref)
        assert np.array_equal(centers, before[0]) and np.array_equal(rhs, before[1])


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
        assert stats["rows_reused"] is False and stats["seconds"] > 0

    def test_reuse_of_the_estimated_rows(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.lbo")
        nodes = gen_sphere_nodes(200)
        frames = surface_geom.estimate_frames(nodes, 15, GAUSS2)
        assemble_operator(nodes, frames, 15, GAUSS2)
        assemble_operator(nodes, frames, 16, GAUSS2)
        assert [r.stats["rows_reused"] for r in self.records(caplog)] == [True, False]

    def test_silent_and_free_by_default(self, caplog, monkeypatch):
        log = logging.getLogger("rbfsurf.lbo")
        assert log.level == logging.NOTSET and not log.handlers
        # below DEBUG the stats are not even computed
        caplog.set_level(logging.INFO, logger="rbfsurf.lbo")
        monkeypatch.setattr(SparseOperator, "row_sums", lambda self: pytest.fail("computed"))
        nodes = gen_sphere_nodes(60)
        assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 7, GAUSS2)
        assert not self.records(caplog)


class TestKeptRows:
    """The weight rows that the frames of estimate_frames carry, against a recomputation."""

    @pytest.mark.parametrize("kernel", [GAUSS2, Kernel(KernelFamily.INVERSE_QUADRATIC, 3.0),
                                        Kernel(KernelFamily.INVERSE_MULTIQUADRIC, 3.0)],
                             ids=["gaussian", "iq", "imq"])
    @pytest.mark.parametrize("method", ["repulsion", "fibonacci"])
    def test_equal_a_recomputation(self, monkeypatch, method, kernel):
        nodes = repulsion_nodes(1000) if method == "repulsion" else gen_sphere_nodes(1000)
        frames = surface_geom.estimate_frames(nodes, 31, kernel)
        flips = np.where(np.arange(1000) % 2, -1.0, 1.0)
        flipped = SurfaceFrame(frames.normals * flips[:, None], frames.curvatures * flips)
        other = Kernel(kernel.family, kernel.epsilon + 0.5)
        solved = []
        real = lbo._weight_rows
        monkeypatch.setattr(lbo, "_weight_rows", lambda *a: solved.append(a) or real(*a))
        fresh = NodeSet(nodes.points)  # the same points in another node set: solved again
        expected = {(m, k): weight_table(fresh, frames, m, k)
                    for m, k in ((31, kernel), (31, other), (21, kernel))}
        expected_op = assemble_operator(fresh, frames, 31, kernel).matrix
        assert len(solved) == 4
        for got, want in zip(weight_table(nodes, frames, 31, kernel), expected[31, kernel]):
            assert np.array_equal(got, want)  # kept, with the orientation's flips
        _, w, cond = weight_table(nodes, frames, 31, kernel, centers=[999, 3])
        assert np.array_equal(w, expected[31, kernel][1][[999, 3]])
        assert np.array_equal(cond, expected[31, kernel][2][[999, 3]])
        assert len(solved) == 4
        # new frames are solved again: (n, kappa) and (-n, -kappa) give the kept rows' bits
        for got, want in zip(weight_table(nodes, flipped, 31, kernel), expected[31, kernel]):
            assert np.array_equal(got, want)
        op = assemble_operator(nodes, flipped, 31, kernel).matrix
        assert all(np.array_equal(getattr(op, a), getattr(expected_op, a))
                   for a in ("data", "indices", "indptr"))
        assert len(solved) == 6
        for m, k in ((31, other), (21, kernel)):  # another eps or M: solved again
            for got, want in zip(weight_table(nodes, frames, m, k), expected[m, k]):
                assert np.array_equal(got, want)
        assert len(solved) == 8

    def test_a_second_estimate_keeps_the_first(self, caplog):
        # the rows travel with their frames: an estimate at M = 21 leaves those of M = 31
        caplog.set_level(logging.DEBUG, logger="rbfsurf.lbo")
        nodes = gen_sphere_nodes(500)
        frames = surface_geom.estimate_frames(nodes, 31, GAUSS2)
        surface_geom.estimate_frames(nodes, 21, GAUSS2)
        op = assemble_operator(nodes, frames, 31, GAUSS2).matrix
        expected = assemble_operator(NodeSet(nodes.points), frames, 31, GAUSS2).matrix
        records = [r for r in caplog.records if r.name == "rbfsurf.lbo"]
        assert [r.stats["rows_reused"] for r in records] == [True, False]
        assert all(np.array_equal(getattr(op, a), getattr(expected, a))
                   for a in ("data", "indices", "indptr"))

    def test_other_frames_are_solved(self, monkeypatch):
        nodes = gen_sphere_nodes(200)
        frames = surface_geom.estimate_frames(nodes, 15, GAUSS2)
        curvatures = frames.curvatures.copy()
        curvatures[7] = np.nextafter(curvatures[7], np.inf)
        moved = SurfaceFrame(frames.normals, curvatures)
        expected = weight_table(NodeSet(nodes.points), moved, 15, GAUSS2)
        solved = []
        real = lbo._weight_rows
        monkeypatch.setattr(lbo, "_weight_rows", lambda *a: solved.append(a) or real(*a))
        for got, want in zip(weight_table(nodes, moved, 15, GAUSS2), expected):
            assert np.array_equal(got, want)
        assert len(solved) == 1


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
        assert np.all(np.diff(op.matrix.indptr) == 15)
        assert op.matrix.nnz == 200 * 15
        for i in (0, 57, 199):
            row = op.matrix.getrow(i)
            assert np.array_equal(np.sort(row.indices), np.sort(knn_table(nodes, 15, [i])[0][0]))

    @pytest.mark.parametrize("method", ["fibonacci", "repulsion"])
    def test_columns_sorted_as_by_argsort(self, method):
        # SciPy's in-place sort gives the CSR arrays that a per-row argsort of the kNN
        # rows and the weight rows gave
        nodes = gen_sphere_nodes(1000) if method == "fibonacci" else repulsion_nodes(1000)
        frames = analytic_frames(unit_sphere(), nodes.points)
        matrix = assemble_operator(nodes, frames, 31, GAUSS2).matrix
        indices, w, _ = weight_table(nodes, frames, 31, GAUSS2)
        order = np.argsort(indices, axis=1)
        assert matrix.has_sorted_indices
        assert np.all(np.diff(matrix.indices.reshape(1000, 31), axis=1) > 0)
        assert np.array_equal(matrix.indptr, np.arange(0, 1001 * 31, 31))
        assert np.array_equal(matrix.indices, np.take_along_axis(indices, order, axis=1).ravel())
        assert np.array_equal(matrix.data, np.take_along_axis(w, order, axis=1).ravel())

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

    @pytest.mark.parametrize("m", [15.0, np.float64(15.0)], ids=["float", "float64"])
    @pytest.mark.parametrize("build", [
        lambda nodes, frames, m: estimate_frames(nodes, m, GAUSS2),
        lambda nodes, frames, m: assemble_operator(nodes, frames, m, GAUSS2),
    ], ids=["estimate_frames", "assemble_operator"])
    def test_non_integer_stencil_size_rejected(self, small_setup, build, m):
        # a float M used to reach numpy's array shapes inside knn_table as a TypeError
        nodes, frames, _ = small_setup
        with pytest.raises(ValueError, match=r"stencil size M must be an integer, got .*15\.0"):
            build(nodes, frames, m)


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
        wide_op = SparseOperator(wide)
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
        assert path.read_text().splitlines()[0] == "200 15"
        # %.17g prints doubles losslessly, so the round trip is exact
        assert np.array_equal(back.matrix.toarray(), op.matrix.toarray())

    @staticmethod
    def laplacian_1d(n, periodic):
        """Second-difference matrix of a chain of n nodes, 3 entries per row on a
        ring, 2 in the end rows of an open chain."""
        ones = np.ones(n - 1)
        matrix = sparse.diags([ones, -2.0 * np.ones(n), ones], [-1, 0, 1], format="lil")
        if periodic:
            matrix[0, n - 1] = matrix[n - 1, 0] = 1.0
        return matrix.tocsr()

    def test_constructor_puts_matrix_in_canonical_form(self):
        # unsorted columns and a repeated one, as COO triplets may come
        matrix = sparse.csr_matrix((np.array([2.0, 1.0, 0.5, 3.0]), np.array([1, 0, 1, 0]),
                                    np.array([0, 3, 4])), shape=(2, 2))
        op = SparseOperator(matrix)
        assert op.matrix.has_canonical_format
        assert np.array_equal(op.matrix.indptr, [0, 2, 3])
        assert np.array_equal(op.matrix.indices, [0, 1, 0])
        assert np.array_equal(op.matrix.data, [1.0, 2.5, 3.0])

    def test_save_rejects_ragged_rows_writing_nothing(self, tmp_path):
        path = tmp_path / "chain.txt"
        with pytest.raises(ValueError, match="cannot save: row 0 holds 2 entries, not M=3"):
            SparseOperator(self.laplacian_1d(10, periodic=False)).save(path)
        assert not path.exists()

    def test_save_rejects_empty_rows_and_nonfinite_weights(self, tmp_path):
        path = tmp_path / "op.txt"
        with pytest.raises(ValueError, match="cannot save: row 0 holds 0 entries, not M=1"):
            SparseOperator(sparse.csr_matrix((3, 3))).save(path)
        with pytest.raises(ValueError, match="finite"):
            SparseOperator(sparse.diags([1.0, np.inf, 2.0]).tocsr()).save(path)
        assert not path.exists()

    def test_ring_round_trips_bit_for_bit(self, tmp_path):
        # uniform rows that assembly did not build; row 0 wraps to column 9
        op = SparseOperator(self.laplacian_1d(10, periodic=True))
        path = tmp_path / "ring.txt"
        op.save(path)
        lines = path.read_text().splitlines()
        assert lines[:4] == ["10 3", "0 0 -2", "0 1 1", "0 9 1"]
        back = SparseOperator.load(path)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.matrix, name), getattr(op.matrix, name))
        again = tmp_path / "again.txt"
        back.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_load_takes_columns_in_any_order(self, small_setup, tmp_path):
        # each row's columns in descending order load to the sorted file's
        # arrays and save back to its bytes
        _, _, op = small_setup
        path, reversed_path, again = (tmp_path / name for name in ("op.txt", "rev.txt", "again.txt"))
        op.save(path)
        header, *lines = path.read_text().splitlines()
        m = int(header.split()[1])
        rows = [lines[k:k + m][::-1] for k in range(0, len(lines), m)]
        reversed_path.write_text("\n".join([header, *(ln for row in rows for ln in row)]) + "\n")
        assert reversed_path.read_bytes() != path.read_bytes()
        back = SparseOperator.load(reversed_path)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.matrix, name), getattr(op.matrix, name))
        back.save(again)
        assert again.read_bytes() == path.read_bytes()

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
        ("0 0 1.0\n0 1 -1.0\n1 1 1.0\n", "operator holds 3 entries, header N=2 M=2 needs 4"),
        ("0 0 1.0\n0 1 -1.0\n0 1 0.5\n1 1 1.0\n", "row 1 holds 1 distinct columns, expected M=2"),
        ("0 0 1.0\n0 0 2.0\n1 0 1.0\n1 1 -1.0\n", "row 0 holds 1 distinct columns, expected M=2"),
        ("0 0 1.0\n0 2 -1.0\n1 0 1.0\n1 1 -1.0\n", r"\[0, 2\)"),
        ("0 0 nan\n0 1 -1.0\n1 0 1.0\n1 1 -1.0\n", "finite"),
    ], ids=["entries-per-row", "uneven-rows", "repeated-column", "index-range",
            "nonfinite-weight"])
    def test_load_rejects_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=message):
            SparseOperator.load(path)

    def test_load_names_the_short_row_beside_a_long_one(self, tmp_path):
        # N*M entries in all: row 0 holds three distinct columns, so row 1 holds one
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 0 1.0\n0 1 -1.0\n0 2 0.5\n1 1 1.0\n2 0 1.0\n2 2 -1.0\n")
        with pytest.raises(ValueError, match="row 1 holds 1 distinct columns, expected M=2"):
            SparseOperator.load(path)

    def test_load_memory_is_bounded_by_the_file(self, tmp_path):
        # a header N of two million over one entry raises before any array of size N
        path = tmp_path / "bad.txt"
        path.write_text("2000000 1\n0 0 1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="holds 1 entries, header N=2000000 M=1 needs"):
                SparseOperator.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SparseOperator(sparse.csr_matrix(np.ones((2, 3))))

    def test_empty_rejected(self):
        # no row to hold the M >= 1 entries of the file format
        with pytest.raises(ValueError, match=r"square with N >= 1, got shape \(0, 0\)"):
            SparseOperator(sparse.csr_matrix((0, 0)))

    def test_complex_rejected(self):
        # the CSR kernel writes into a real output, so a complex matrix cannot apply
        with pytest.raises(ValueError, match="complex128"):
            SparseOperator(sparse.csr_matrix([[1j, 0], [0, 1.0]]))

    @pytest.mark.parametrize("field", [[1 + 1j, 2, 3], np.ones((2, 3), dtype=np.complex64)],
                             ids=["list", "stack"])
    def test_complex_field_rejected(self, field):
        # a float conversion would drop the imaginary part with only a ComplexWarning
        op = SparseOperator(sparse.csr_matrix([[1.0, 0, 1], [0, 1, 0], [2, 0, 2]]))
        with pytest.raises(ValueError, match="field must be real"):
            op.apply(field)
