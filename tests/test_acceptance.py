"""End-to-end acceptance checks.

Every test covers one gate of the release checklist: a stated tolerance,
a stated runtime budget, and one printed PASS/FAIL line.  The lines are
emitted with capture disabled so they show up in piped logs even when
the test passes.
"""

import time

import mpmath
import numpy as np
import pytest
from scipy import sparse
from scipy import stats
from scipy.spatial import cKDTree

from conftest import repulsion_nodes
from rbfsurf._linalg import check_conditioning
from rbfsurf.experiments import fit_order, frame_error_sweep, lbo_error_sweep
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator, weight_table
from rbfsurf.nodesets import project_radial, schwarz_p, unit_sphere
from rbfsurf.pde import run_schaeffer, run_turing
from rbfsurf.spectrum import eigenvalues, stability_report
from rbfsurf.surface_geom import analytic_frames

GAUSS2 = Kernel(KernelFamily.GAUSSIAN, 2.0)
LADDER = (500, 1000, 2000, 4000)


def _finish(capsys, index, label, checks, elapsed, budget):
    """Print one summary line for a criterion, then assert its checks."""
    ok = all(flag for flag, _ in checks) and elapsed < budget
    detail = "; ".join(text for _, text in checks)
    line = (f"acceptance {index}/9 {'PASS' if ok else 'FAIL'} {label}: "
            f"{detail} [{elapsed:.1f} s / {budget:.0f} s]")
    with capsys.disabled():
        print(line, flush=True)
    failed = [text for flag, text in checks if not flag]
    assert not failed, f"{label}: {failed}"
    assert elapsed < budget, f"{label}: {elapsed:.1f} s exceeds {budget:.0f} s"


def _gated_weight_rows(nodes, frames, m, centers):
    """The weight rows that assembly stores for ``centers``, through its conditioning gate."""
    indices, w, cond = weight_table(nodes, frames, m, GAUSS2, centers=centers)
    check_conditioning(cond, indices[:, 0])
    return indices, w


def test_01_stencil_row_sums_vanish(capsys, sphere1000, sphere1000_frames):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for m in (11, 31):
        centers = rng.choice(len(sphere1000), 50, replace=False)
        for w in _gated_weight_rows(sphere1000, sphere1000_frames, m, centers)[1]:
            worst = max(worst, abs(w.sum()) / np.abs(w).max())
    elapsed = time.perf_counter() - t0
    _finish(capsys, 1, "constants annihilated on 100 random stencils",
            [(worst <= 1e-8, f"worst |sum w| / max|w| = {worst:.2e} (tol 1e-08)")],
            elapsed, 10.0)


@pytest.mark.filterwarnings("ignore:local system poorly conditioned")
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_02_shape_parameter_sweep_has_interior_minimum(capsys):
    t0 = time.perf_counter()
    # wide geometric grid: flat-kernel breakdown on the left, smoothing
    # error on the right, best accuracy strictly inside
    eps_grid = np.geomspace(0.1, 8.0, 14)
    table = lbo_error_sweep(unit_sphere(), 1000, 16, eps_grid)
    err = np.array([row.max_error for row in table.rows])
    err = np.where(np.isfinite(err), err, np.inf)
    k = int(np.argmin(err))
    elapsed = time.perf_counter() - t0
    _finish(capsys, 2, "shape-parameter sweep at N=1000, M=16",
            [(err[k] <= 1e-2, f"best error {err[k]:.2e} at eps={eps_grid[k]:.3g} (tol 1e-02)"),
             (0 < k < len(err) - 1, "minimum is interior"),
             (err[0] > 3 * err[k] and err[-1] > 3 * err[k],
              f"U-shaped: edges {err[0]:.1e} / {err[-1]:.1e} dominate the minimum")],
            elapsed, 60.0)


@pytest.mark.filterwarnings("ignore:local system poorly conditioned")
def test_03_operator_error_orders_increase_with_stencil_size(capsys):
    t0 = time.perf_counter()
    rows = []
    for n in LADDER:
        table = lbo_error_sweep(unit_sphere(), n, [11, 15, 21, 31], [2.0],
                                nodes=repulsion_nodes(n))
        rows.extend(table.rows)
    mu = fit_order(rows)
    expected = {11: 1.8, 15: 2.4, 21: 3.4, 31: 5.4}
    fitted = [mu[m] for m in (11, 15, 21, 31)]
    elapsed = time.perf_counter() - t0
    _finish(capsys, 3, "operator convergence orders over N=500..4000",
            [(all(abs(mu[m] - expected[m]) <= 0.8 for m in expected),
              "mu = " + ", ".join(f"{m}:{mu[m]:.2f}" for m in sorted(mu))
              + " within 0.8 of 1.8/2.4/3.4/5.4"),
             (all(a < b for a, b in zip(fitted, fitted[1:])),
              "orders strictly increase with M")],
            elapsed, 300.0)


@pytest.mark.filterwarnings("ignore:local system poorly conditioned")
def test_04_frame_estimation_accuracy_and_orders(capsys):
    t0 = time.perf_counter()
    nrows, krows = [], []
    for n in LADDER:
        tn, tk = frame_error_sweep(n, [11, 15, 21, 31], [2.0],
                                   nodes=repulsion_nodes(n))
        nrows.extend(tn.rows)
        krows.extend(tk.rows)
    mun, muk = fit_order(nrows), fit_order(krows)
    point_n = next(r.max_error for r in nrows if r.n == 1000 and r.m == 31)
    point_k = next(r.max_error for r in krows if r.n == 1000 and r.m == 31)
    exp_n = {11: 2.4, 15: 3.4, 21: 4.2, 31: 6.0}
    exp_k = {11: 1.8, 15: 2.0, 21: 3.0, 31: 5.2}
    elapsed = time.perf_counter() - t0
    _finish(capsys, 4, "normal/curvature estimation at N=1000, M=31",
            [(point_n <= 1e-2, f"E_n = {point_n:.2e} (tol 1e-02)"),
             (point_k <= 1e-1, f"E_kappa = {point_k:.2e} (tol 1e-01)"),
             (all(abs(mun[m] - exp_n[m]) <= 1.0 for m in exp_n),
              "normal orders " + ", ".join(f"{m}:{mun[m]:.2f}" for m in sorted(mun))),
             (all(abs(muk[m] - exp_k[m]) <= 1.0 for m in exp_k),
              "curvature orders " + ", ".join(f"{m}:{muk[m]:.2f}" for m in sorted(muk)))],
            elapsed, 300.0)


def test_05_spectrum_stable_with_sphere_multiplicities(capsys, sphere1000_op):
    t0 = time.perf_counter()
    eigs = eigenvalues(sphere1000_op)
    report = stability_report(eigs, k_max=4, tol=0.5, real_part_tol=1e-6)
    counts = [row.matched for row in report.cluster_table]
    elapsed = time.perf_counter() - t0
    _finish(capsys, 5, "spectrum of the N=1000 sphere operator",
            [(report.max_real_part <= 1e-6,
              f"max Re = {report.max_real_part:.2e} (tol 1e-06)"),
             (counts == [1, 3, 5, 7, 9],
              f"cluster multiplicities {counts} == [1, 3, 5, 7, 9]")],
            elapsed, 120.0)


def _blob_sizes(points, mask):
    """Connected-component sizes of the masked nodes on the 6-NN graph."""
    k = 6
    _, nbr = cKDTree(points).query(points, k=k + 1)
    rows = np.repeat(np.arange(len(points)), k)
    adj = sparse.csr_matrix((np.ones(rows.size), (rows, nbr[:, 1:].ravel())),
                            shape=(len(points),) * 2)
    sub = ((adj + adj.T)[mask])[:, mask]
    _, labels = sparse.csgraph.connected_components(sub, directed=False)
    return np.bincount(labels)


@pytest.mark.filterwarnings("ignore:local system poorly conditioned")
def test_06_turing_spots_and_stripes_on_schwarz_surface(capsys):
    t0 = time.perf_counter()
    projected = project_radial(repulsion_nodes(1800), schwarz_p(), drop_misses=True)
    frames = analytic_frames(schwarz_p(), projected.points)
    # the projected set is about twice as dense as the sphere sets, so the
    # kernel must be sharper to keep the local systems solvable; eps=6 is
    # the smallest integer shape whose operator has no growing eigenmode
    op = assemble_operator(projected, frames, 31, Kernel(KernelFamily.GAUSSIAN, 6.0))
    runs = {preset: run_turing(projected, frames, preset=preset, seed=0,
                               t_end=4000.0, op=op, steady_tol=1e-3,
                               steady_window=10.0)
            for preset in ("spots", "stripes")}
    u_spots = runs["spots"].final.fields[0]
    u_stripes = runs["stripes"].final.fields[0]
    spot_sizes = _blob_sizes(projected.points,
                             u_spots > u_spots.mean() + 0.5 * u_spots.std())
    stripe_sizes = _blob_sizes(projected.points,
                               u_stripes > u_stripes.mean() + 0.5 * u_stripes.std())
    elapsed = time.perf_counter() - t0
    _finish(capsys, 6, "reaction-diffusion patterns on the triply periodic surface",
            [(1500 <= len(projected) <= 1800, f"{len(projected)} projected nodes"),
             (runs["spots"].steady_time is not None
              and runs["spots"].final_rate_inf < 1e-3,
              f"spots quasi-steady at t={runs['spots'].steady_time:.0f}, "
              f"max|du/dt| = {runs['spots'].final_rate_inf:.1e}"),
             (u_spots.std() > 0.1, f"spots field std {u_spots.std():.2f} > 0.1"),
             # frozen pattern-class statistics: spots are isolated positive
             # peaks (heavy right tail), stripes a symmetric two-level field
             (stats.skew(u_spots) > 1.0 and stats.kurtosis(u_spots) > 2.0,
              f"spots skew {stats.skew(u_spots):.2f}, "
              f"kurtosis {stats.kurtosis(u_spots):.2f}"),
             (abs(stats.skew(u_stripes)) < 0.5 and stats.kurtosis(u_stripes) < -0.5,
              f"stripes skew {stats.skew(u_stripes):.2f}, "
              f"kurtosis {stats.kurtosis(u_stripes):.2f}"),
             (runs["stripes"].steady_time is not None
              and runs["stripes"].final_rate_inf < 1e-3,
              f"stripes quasi-steady at t={runs['stripes'].steady_time:.0f}"),
             (0.05 < u_stripes.std() < 0.5 and u_spots.std() > 10 * u_stripes.std(),
              f"amplitudes separate: {u_spots.std():.2f} vs {u_stripes.std():.2f}"),
             (10 <= len(spot_sizes) <= 40 and spot_sizes.max() < 80,
              f"{len(spot_sizes)} compact high-u blobs (largest {spot_sizes.max()})"),
             (stripe_sizes.max() >= 80,
              f"stripes percolate (largest band {stripe_sizes.max()} nodes)")],
            elapsed, 900.0)


def test_07_membrane_wave_activates_and_repolarizes(capsys, sphere1000,
                                                    sphere1000_frames, sphere1000_op):
    t0 = time.perf_counter()
    far = int(np.argmax(np.linalg.norm(sphere1000.points - sphere1000.points[0],
                                       axis=1)))
    run = run_schaeffer(sphere1000, sphere1000_frames, t_end=600.0,
                        probe=[0, far], stim_node=0, op=sphere1000_op)
    v_stim = run.probe_v[:, 0]
    t_stim = run.activation_time(0, 0.5)
    t_far = run.activation_time(1, 0.5)
    h_all = np.concatenate([run.probe_h.ravel(), run.final.fields[1]])
    elapsed = time.perf_counter() - t0
    _finish(capsys, 7, "stimulated membrane wave on the N=1000 sphere",
            [(v_stim.max() > 0.9, f"upstroke peak v = {v_stim.max():.2f} > 0.9"),
             (v_stim[-1] < 0.05, f"repolarized to v = {v_stim[-1]:.1e} by 600 ms"),
             (h_all.min() >= -1e-9 and h_all.max() <= 1 + 1e-9,
              f"gate stays in [0, 1] (range {h_all.min():.3f}..{h_all.max():.3f})"),
             (t_stim is not None and t_far is not None and 0 < t_stim < t_far,
              f"activation {t_stim:.2f} ms at the stimulus, "
              f"{t_far:.2f} ms at the antipode")],
            elapsed, 300.0)


def _dense_oracle_weights(points, normal, curvature, kernel):
    """Entry-by-entry dense build of the augmented system of stencil ``points``
    (center first) and the center's frame, solved in 50 digits.

    Distances and dot products are plain sums of products, the textbook
    formulas; the exact solve leaves only the production solve's error.
    """
    m = len(points)
    A = np.zeros((m + 1, m + 1))
    rhs = np.zeros(m + 1)
    for a in range(m):
        for b in range(m):
            A[a, b] = kernel.phi(np.sqrt(np.sum((points[a] - points[b]) ** 2)))
        A[a, m] = A[m, a] = 1.0
        rv = points[0] - points[a]
        r = np.sqrt(np.sum(rv * rv))
        if r == 0.0:
            rhs[a] = kernel.dphi_over_r(0.0) + kernel.d2phi(0.0)
        else:
            rn = np.sum(rv * normal)
            c = rn / r
            rhs[a] = ((1 + c * c - curvature * rn)
                      * kernel.dphi_over_r(r) + (1 - c * c) * kernel.d2phi(r))
    with mpmath.workdps(50):
        x = mpmath.lu_solve(mpmath.matrix(A.tolist()), mpmath.matrix(rhs.tolist()))
        return np.array([float(v) for v in x])[:m]


def test_08_weights_match_dense_solve_and_sparse_apply(capsys, sphere1000,
                                                       sphere1000_frames, sphere1000_op):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for m in (11, 31):
        centers = rng.choice(len(sphere1000), 25, replace=False)
        for idx, w in zip(*_gated_weight_rows(sphere1000, sphere1000_frames, m, centers)):
            ref = _dense_oracle_weights(sphere1000.points[idx], sphere1000_frames.normals[idx[0]],
                                        sphere1000_frames.curvatures[idx[0]], GAUSS2)
            worst = max(worst, np.abs(w - ref).max() / np.abs(ref).max())
    field = rng.standard_normal(len(sphere1000))
    dense = sphere1000_op.matrix.toarray() @ field
    apply_err = np.abs(sphere1000_op.apply(field) - dense).max() / np.abs(dense).max()
    elapsed = time.perf_counter() - t0
    _finish(capsys, 8, "production weights against an exact dense solve",
            [(worst <= 1e-10, f"worst weight deviation {worst:.2e} (tol 1e-10)"),
             (apply_err <= 1e-12, f"sparse apply vs dense {apply_err:.2e} (tol 1e-12)")],
            elapsed, 30.0)


def test_09_kernel_derivatives_match_finite_differences(capsys):
    t0 = time.perf_counter()
    r = np.linspace(0.05, 2.5, 50)
    h = 1e-3
    worst = 0.0
    for family in KernelFamily:
        for eps in (0.5, 1.0, 2.0, 4.0):
            kern = Kernel(family, eps)
            phi = kern.phi
            fd1 = (-phi(r + 2 * h) + 8 * phi(r + h)
                   - 8 * phi(r - h) + phi(r - 2 * h)) / (12 * h)
            fd2 = (-phi(r + 2 * h) + 16 * phi(r + h) - 30 * phi(r)
                   + 16 * phi(r - h) - phi(r - 2 * h)) / (12 * h * h)
            d1 = r * kern.dphi_over_r(r)
            d2 = kern.d2phi(r)
            worst = max(worst,
                        np.abs(fd1 - d1).max() / np.abs(d1).max(),
                        np.abs(fd2 - d2).max() / np.abs(d2).max())
    elapsed = time.perf_counter() - t0
    _finish(capsys, 9, "kernel derivatives for all families, eps in {0.5, 1, 2, 4}",
            [(worst <= 1e-6, f"worst relative deviation {worst:.2e} (tol 1e-06)")],
            elapsed, 1.0)
