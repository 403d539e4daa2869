import io
import itertools
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize.elementwise import find_root
from scipy.spatial import cKDTree

from rbfsurf import (
    FileFormatError,
    NodeSet,
    ProjectionError,
    gen_sphere_nodes,
    load_nodes,
    project_radial,
    save_nodes,
    schwarz_p,
    surface_by_name,
    unit_sphere,
)
from rbfsurf import nodesets
from rbfsurf.experiments import lbo_error_sweep
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.nodesets import knn_table
from rbfsurf.surface_geom import estimate_frames

from conftest import repulsion_nodes


TETRA = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / np.sqrt(3.0)


class TestNodeSet:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            NodeSet(TETRA[:3])

    def test_rejects_duplicates(self):
        pts = np.vstack([TETRA, TETRA[0]])
        with pytest.raises(ValueError):
            NodeSet(pts)

    @pytest.mark.parametrize("points", [TETRA[:, :2], TETRA.ravel(), TETRA[None]],
                             ids=["two-columns", "flat", "three-axes"])
    def test_rejects_points_not_of_shape_n_by_3(self, points):
        with pytest.raises(ValueError, match=r"points must have shape \(N, 3\), got"):
            NodeSet(points)

    def test_rejects_non_finite(self):
        pts = TETRA.copy()
        pts[1, 2] = np.nan
        with pytest.raises(ValueError):
            NodeSet(pts)

    def test_points_read_only(self):
        nodes = NodeSet(TETRA)
        with pytest.raises(ValueError):
            nodes.points[0, 0] = 99.0

    def test_one_kdtree_per_nodeset(self, monkeypatch):
        # the tree that validates the points also answers every neighbor query
        built = []

        class Counting(cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(len(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(nodesets, "cKDTree", Counting)
        nodes = gen_sphere_nodes(100)
        built.clear()
        nodes = NodeSet(nodes.points)
        knn_table(nodes, 12)
        knn_table(nodes, 12, [5])
        estimate_frames(nodes, 12, Kernel(KernelFamily.GAUSSIAN, 2.0))
        assert built == [100]

    def test_holds_a_copy_of_a_view(self):
        # a float64 C-contiguous slice would be taken as is without a copy,
        # and writes through its base would then reach the validated points
        big = np.vstack([gen_sphere_nodes(200).points, gen_sphere_nodes(300).points])
        nodes = NodeSet(big[:200])
        big[5] = np.nan
        assert np.all(np.isfinite(nodes.points))
        assert big.flags.writeable


class TestLoadNodes:
    def test_basic_parse(self):
        text = "0 0 1\n0 0 -1\n1 0 0\n0 1 0"
        nodes = load_nodes(io.StringIO(text))
        assert len(nodes) == 4
        np.testing.assert_allclose(nodes.points[2], [1, 0, 0])

    def test_comments_and_blanks_skipped(self):
        text = "# comment\n0 0 1\n\n0 0 -1\n  # indented comment\n1 0 0\n0 1 0\n"
        nodes = load_nodes(io.StringIO(text))
        assert len(nodes) == 4

    def test_duplicate_rows_rejected(self):
        text = "0 0 1\n0 0 1\n1 0 0\n0 1 0"
        with pytest.raises(ValueError):
            load_nodes(io.StringIO(text))

    def test_malformed_line_reports_number(self):
        text = "0 0 1\n0 0 -1\n1 0 oops\n0 1 0"
        with pytest.raises(FileFormatError) as err:
            load_nodes(io.StringIO(text))
        assert err.value.line_no == 3

    def test_wrong_arity_reports_number(self):
        text = "0 0 1\n0 0\n1 0 0\n0 1 0"
        with pytest.raises(FileFormatError) as err:
            load_nodes(io.StringIO(text))
        assert err.value.line_no == 2

    def test_round_trip_through_file(self, tmp_path):
        nodes = gen_sphere_nodes(50)
        path = tmp_path / "nodes.txt"
        save_nodes(nodes, path)
        back = load_nodes(path)
        np.testing.assert_array_equal(back.points, nodes.points)


def min_separation(pts):
    return cKDTree(pts).query(pts, k=2)[0][:, 1].min()


class TestGenSphereNodes:
    def test_four_fibonacci_points_unit_norm(self):
        nodes = gen_sphere_nodes(4)
        np.testing.assert_allclose(np.linalg.norm(nodes.points, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_unit_norm_invariant(self, n):
        nodes = gen_sphere_nodes(n)
        assert np.abs(np.linalg.norm(nodes.points, axis=1) - 1.0).max() <= 1e-12

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            gen_sphere_nodes(2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            gen_sphere_nodes(100, method="lattice")

    @pytest.mark.parametrize("n", [4.5, 100.0, np.float64(100.0), "100"],
                             ids=["fraction", "float", "float64", "str"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ValueError, match="need an integer n >= 4 nodes, got"):
            gen_sphere_nodes(n)

    def test_numpy_integer_count_accepted(self):
        nodes = gen_sphere_nodes(np.int64(100))
        assert np.array_equal(nodes.points, gen_sphere_nodes(100).points)
        assert nodes.label == "sphere-fibonacci-100"

    def test_fibonacci_deterministic(self):
        a = gen_sphere_nodes(200)
        b = gen_sphere_nodes(200)
        np.testing.assert_array_equal(a.points, b.points)

    def test_repulsion_deterministic_given_seed(self):
        a = gen_sphere_nodes(150, method="repulsion", seed=3)
        b = gen_sphere_nodes(150, method="repulsion", seed=3)
        np.testing.assert_array_equal(a.points, b.points)

    def test_repulsion_unit_norm(self):
        nodes = gen_sphere_nodes(150, method="repulsion")
        assert np.abs(np.linalg.norm(nodes.points, axis=1) - 1.0).max() <= 1e-12

    def test_repulsion_separation_comparable_to_fibonacci(self):
        fib = min_separation(gen_sphere_nodes(1000).points)
        rep = min_separation(gen_sphere_nodes(1000, method="repulsion").points)
        # refinement must not shrink the packing; observed ratio 1.079 (dense descent: ~1.08)
        assert rep >= 0.8 * fib

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [4, 13, 64, 150])
    def test_repulsion_never_collapses(self, n, seed):
        # n = 4 relaxes over k = n - 1 = 3 neighbors, n = 13 over all 12 others
        fib = min_separation(gen_sphere_nodes(n).points)
        assert min_separation(gen_sphere_nodes(n, method="repulsion", seed=seed).points) >= fib

    def test_move_cap_prevents_collapse(self, monkeypatch):
        # at twice the step, pairs collapse to 0.02x Fibonacci's separation
        # without the cap; with it the packing stays at 0.99x
        monkeypatch.setattr(nodesets, "_REPULSION_STEP", 2 * nodesets._REPULSION_STEP)
        fib = min_separation(gen_sphere_nodes(300).points)
        assert min_separation(gen_sphere_nodes(300, method="repulsion").points) >= 0.8 * fib

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_repulsion_operator_accuracy_matches_shipped_set(self, n):
        # the shipped sets come from the dense Riesz-2 descent
        nodes = gen_sphere_nodes(n, method="repulsion")
        estimate_frames(nodes, 31, Kernel(KernelFamily.GAUSSIAN, 2.0))
        err = lbo_error_sweep(unit_sphere(), n, 31, [2.0], nodes=nodes).rows[0].max_error
        ref = lbo_error_sweep(unit_sphere(), n, 31, [2.0], nodes=repulsion_nodes(n)).rows[0].max_error
        assert err <= 1.5 * ref


class TestImplicitSurfaces:
    def test_sphere_level_function(self):
        s = unit_sphere()
        assert s.F(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)
        assert s.F(np.array([0.0, 2.0, 0.0])) == pytest.approx(3.0)

    def test_schwarz_p_level_function(self):
        s = schwarz_p()
        x = np.array([0.25, 0.0, 0.0])
        assert s.F(x) == pytest.approx(np.cos(np.pi / 2) + 2.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for s in (unit_sphere(), schwarz_p()):
            for _ in range(5):
                x = rng.uniform(-0.8, 0.8, 3)
                fd = np.empty(3)
                for a in range(3):
                    e = np.zeros(3)
                    e[a] = 1e-6
                    fd[a] = (s.F(x + e) - s.F(x - e)) / 2e-6
                np.testing.assert_allclose(s.gradF(x), fd, rtol=1e-6, atol=1e-8)

    def test_surface_by_name(self):
        assert surface_by_name("sphere").name == unit_sphere().name == "sphere"
        assert surface_by_name("schwarz-p").name == schwarz_p().name == "schwarz-p"
        with pytest.raises(ValueError):
            surface_by_name("torus")


def project_direction_oracle(direction, surface, t_lo=0.05, t_hi=1.5, samples=400):
    """Ray-by-ray reference: first root of F(t * direction) on [t_lo, t_hi], or None."""
    ts = np.linspace(t_lo, t_hi, samples)
    vals = surface.F(ts[:, None] * direction[None, :])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    exact = np.nonzero(vals == 0.0)[0]
    if len(exact) and (not len(sign_change) or exact[0] <= sign_change[0]):
        return ts[exact[0]]
    if not len(sign_change):
        return None
    bracket = ts[sign_change[0]], ts[sign_change[0] + 1]
    return float(find_root(lambda t: surface.F(t[..., None] * direction), bracket).x)


def project_oracle(points, surface):
    """Projected point of every node, ray by ray; None where the ray misses."""
    dirs = points / np.linalg.norm(points, axis=1, keepdims=True)
    out = []
    for d in dirs:
        t = project_direction_oracle(d, surface)
        hit = t is not None and abs(float(surface.F(t * d))) <= 1e-10
        out.append(t * d if hit else None)
    return out


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def cube_rotations():
    """The 24 rotations of the cube, which map the Schwarz P surface onto itself."""
    signed = (np.diag(signs)[:, perm] for perm in itertools.permutations(range(3))
              for signs in itertools.product((1.0, -1.0), repeat=3))
    return [r for r in signed if np.linalg.det(r) > 0]


class TestProjectRadial:
    def test_sphere_projection_is_identity_scale(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(40, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        nodes = NodeSet(raw * rng.uniform(0.5, 1.4, size=(40, 1)))
        proj = project_radial(nodes, unit_sphere())
        np.testing.assert_allclose(np.linalg.norm(proj.points, axis=1), 1.0, atol=1e-10)

    def test_axis_direction_misses_schwarz_p(self):
        # F(t,0,0) = cos(2 pi t) + 2 >= 1 on the whole ray
        pts = np.vstack([[1.0, 0.0, 0.0], TETRA])
        with pytest.raises(ProjectionError) as err:
            project_radial(NodeSet(pts), schwarz_p())
        assert err.value.node_index == 0

    @pytest.mark.parametrize("drop_misses", [False, True])
    @pytest.mark.parametrize("at", [0, 7])
    def test_node_at_origin_rejected_before_the_scan(self, monkeypatch, drop_misses, at):
        points = np.insert(gen_sphere_nodes(50).points, at, 0.0, axis=0)
        monkeypatch.setattr(nodesets, "_project_rays", lambda *a: pytest.fail("rays scanned"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"node {at} lies at the origin: its radial "
                                                 "direction is undefined"):
                project_radial(NodeSet(points), schwarz_p(), drop_misses=drop_misses)

    def test_diagonal_direction_root(self):
        # all four cube diagonals hit the surface at t = sqrt(3)/4, since
        # F(t d) = 3 cos(2 pi t / sqrt(3)) along each of them
        diagonals = np.array([
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, 1.0],
        ]) / np.sqrt(3.0)
        proj = project_radial(NodeSet(diagonals), schwarz_p())
        t = np.linalg.norm(proj.points, axis=1)
        np.testing.assert_allclose(t, np.sqrt(3.0) / 4.0, atol=1e-10)

    def test_residuals_below_tolerance(self):
        nodes = gen_sphere_nodes(500)
        proj = project_radial(nodes, schwarz_p(), drop_misses=True)
        surface = schwarz_p()
        residuals = np.array([abs(surface.F(p)) for p in proj.points])
        assert residuals.max() <= 1e-10
        assert len(proj) < len(nodes)  # axis-adjacent directions were dropped

    def test_drop_misses_preserves_survivor_order(self):
        nodes = gen_sphere_nodes(100)
        proj = project_radial(nodes, schwarz_p(), drop_misses=True)
        dirs_in = nodes.points / np.linalg.norm(nodes.points, axis=1, keepdims=True)
        dirs_out = proj.points / np.linalg.norm(proj.points, axis=1, keepdims=True)
        # every surviving direction appears, in original order
        k = 0
        for d in dirs_out:
            while k < len(dirs_in) and not np.allclose(dirs_in[k], d, atol=1e-9):
                k += 1
            assert k < len(dirs_in)
            k += 1


class TestProjectRadialOracle:
    """The scanned projection against the ray-by-ray reference, bit for bit."""

    @pytest.mark.parametrize("r", range(24))
    def test_cube_rotations_of_repulsion_1800(self, r):
        # each rotation checks one third of the set (600 nodes, scanned in two
        # passes: the rays open after the first 170 samples run a second), so
        # every node is checked under eight rotations
        # and a run stays short: the reference takes about 0.7 s per 1800 rays
        part = slice(600 * (r % 3), 600 * (r % 3 + 1))
        points = repulsion_nodes(1800).points[part] @ cube_rotations()[r].T
        proj = project_radial(NodeSet(points), schwarz_p(), drop_misses=True)
        expected = [p for p in project_oracle(points, schwarz_p()) if p is not None]
        assert len(expected) < len(points)
        assert_same_bits(proj.points, np.array(expected))

    @pytest.mark.parametrize("n", [500, 1000])
    def test_fibonacci_sphere_exact(self, n):
        # every ray hits, and every root is refined from the bracket of samples 261 and 262
        nodes = gen_sphere_nodes(n)
        proj = project_radial(nodes, unit_sphere())
        assert_same_bits(proj.points, np.array(project_oracle(nodes.points, unit_sphere())))

    def test_misses_and_diagonals(self):
        # the +x axis misses (F >= 1 along it); the diagonals hit at sqrt(3)/4
        pts = np.vstack([TETRA, [[1.0, 0.0, 0.0]], [[1.0, 1.0, -1.0]] / np.sqrt(3.0)])
        expected = project_oracle(pts, schwarz_p())
        assert [p is None for p in expected] == [False] * 4 + [True, False]
        proj = project_radial(NodeSet(pts), schwarz_p(), drop_misses=True)
        assert_same_bits(proj.points, np.array([p for p in expected if p is not None]))

    def test_first_miss_in_second_pass(self):
        # 56 of the 302 rays, both misses among them, are still open after the first pass
        hits = project_radial(gen_sphere_nodes(400), schwarz_p(), drop_misses=True).points[:300]
        points = np.insert(hits, [270, 290], [[0.0, 0.0, 1.0], [0.0, -1.0, 0.0]], axis=0)
        with pytest.raises(ProjectionError) as err:
            project_radial(NodeSet(points), schwarz_p())
        assert err.value.node_index == 270
        proj = project_radial(NodeSet(points), schwarz_p(), drop_misses=True)
        expected = [p for p in project_oracle(points, schwarz_p()) if p is not None]
        assert len(expected) == 300
        assert_same_bits(proj.points, np.array(expected))



def exact_root(surface, direction, t):
    """The root of F(s * direction) nearest ``t``, to 40 digits, for the float direction."""
    with mpmath.workdps(40):
        d = [mpmath.mpf(float(x)) for x in direction]
        if surface.name == "sphere":
            return 1 / mpmath.sqrt(mpmath.fsum(x * x for x in d))
        w = 2 * mpmath.pi
        return mpmath.findroot(lambda s: mpmath.fsum(mpmath.cos(w * s * x) for x in d),
                               mpmath.mpf(float(t)))


class TestProjectionRootsExact:
    """Every hit ray's root against the exact root of F(t d): the bracketing solver's
    default tolerances leave a few ulp, where a looser one would leave far more."""

    @pytest.mark.parametrize("surface", [schwarz_p(), unit_sphere()], ids=["schwarz-p", "sphere"])
    @pytest.mark.parametrize("nodes", [lambda: repulsion_nodes(1800),
                                       lambda: gen_sphere_nodes(1000)],
                             ids=["repulsion-1800", "fibonacci-1000"])
    def test_within_a_few_ulp(self, nodes, surface):
        points = nodes().points
        dirs = points / np.linalg.norm(points, axis=1, keepdims=True)
        t = nodesets._project_rays(dirs, surface)
        hit = np.abs(surface.F(t[:, None] * dirs)) <= 1e-10
        assert hit.sum() > 0.9 * len(points)
        ulps = np.array([float(abs(mpmath.mpf(float(t_i)) - exact_root(surface, d, t_i)))
                         for d, t_i in zip(dirs[hit], t[hit])]) / np.spacing(t[hit])
        assert ulps.max() <= 8.0 and ulps.mean() <= 1.0


SAMPLES = np.linspace(0.05, 1.5, 400)


def ellipsoid(axes):
    """F(x) = sum((x_a / axes_a)^2) - 1; along a coordinate axis F(t e_a) is exactly 0
    at t = axes_a, so equal axes SAMPLES[j] put an exact zero at sample j."""
    axes = np.asarray(axes, dtype=float)
    return nodesets.ImplicitSurface("ellipsoid",
                                    lambda p: np.sum((np.asarray(p) / axes) ** 2, axis=-1) - 1.0,
                                    lambda p: 2.0 * np.asarray(p) / axes**2, None)


def scan_passes(surface):
    """``surface`` with an F that records the (rays, samples) shape of each scan pass."""
    passes = []

    def F(p):
        if np.ndim(p) == 3:
            passes.append(np.shape(p)[:2])
        return surface.F(p)

    return nodesets.ImplicitSurface(surface.name, F, surface.gradF, surface.hessF), passes


class TestProjectionScan:
    """The pass-by-pass scan against the ray-by-ray reference, bit for bit.  Where a
    test sets the pass size to 40 points per ray, pass p spans samples 39p to 39p + 39."""

    AXES = np.vstack([np.eye(3), -np.eye(3)[2:]])

    def check(self, points, surface):
        proj = project_radial(NodeSet(points), surface, drop_misses=True)
        expected = [p for p in project_oracle(points, surface) if p is not None]
        assert_same_bits(proj.points, np.array(expected))
        return proj

    def test_crossing_straddles_a_pass_boundary(self, monkeypatch):
        # the sign change is from sample 39, the last of the first pass, to
        # sample 40, the first new one of the second, where every ray leaves
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 40 * len(TETRA))
        surface, passes = scan_passes(ellipsoid([0.5 * (SAMPLES[39] + SAMPLES[40])] * 3))
        self.check(TETRA, surface)
        assert passes == [(4, 40), (4, 40)]

    @pytest.mark.parametrize("j", [0, 38, 39, 40, 78, 399])
    def test_exact_zero_at_a_pass_edge(self, monkeypatch, j):
        # sample 39 ends the first pass and starts the second, 399 is the last sample
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 40 * len(self.AXES))
        surface, passes = scan_passes(ellipsoid([SAMPLES[j]] * 3))
        proj = self.check(self.AXES, surface)
        assert_same_bits(proj.points, SAMPLES[j] * self.AXES)
        assert len(passes) == 1 + max(0, -(-(j - 39) // 39))

    def test_rays_finish_in_different_passes(self, monkeypatch):
        # first crossings from t = 0.1 (x axis) to past 1.5 (near the z axis, a miss)
        points = gen_sphere_nodes(200).points
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 40 * len(points))
        surface, passes = scan_passes(ellipsoid([0.1, 0.6, 2.0]))
        misses = len(points) - len(self.check(points, surface))
        rays = [r for r, _ in passes]
        # rays leave in every pass: 200, 100, 36 and 2 of them are left to scan
        assert rays == sorted(set(rays), reverse=True) and len(rays) >= 4
        assert 0 < misses <= rays[-1]

    def test_misses_scan_every_pass(self, monkeypatch):
        # F >= 1 along the +x and -y axes; the other rays hit at sqrt(3)/4
        points = np.vstack([TETRA[:2], [[1.0, 0.0, 0.0]], TETRA[2:], [[0.0, -1.0, 0.0]]])
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 40 * len(points))
        surface, passes = scan_passes(schwarz_p())
        assert len(self.check(points, surface)) == 4
        assert passes[-1][0] == 2 and sum(w - 1 for _, w in passes) == 399
        with pytest.raises(ProjectionError) as err:
            project_radial(NodeSet(points), schwarz_p())
        assert err.value.node_index == 2

    def test_more_rays_than_a_pass_holds(self, monkeypatch):
        # 160 points per pass: groups of 4 rays, at least 40 samples at a time
        points = repulsion_nodes(1800).points[:20]
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 160)
        surface, passes = scan_passes(schwarz_p())
        self.check(points, surface)
        assert max(r * w for r, w in passes) <= 160 and max(r for r, _ in passes) == 4

    def test_passes_bounded_and_stop_early(self):
        # every pass stays within 256 x 400 sample points, and the scan takes
        # far fewer than the 400 samples of every ray
        points = repulsion_nodes(1800).points
        surface, passes = scan_passes(schwarz_p())
        project_radial(NodeSet(points), surface, drop_misses=True)
        assert max(r * w for r, w in passes) <= 256 * 400
        assert sum(r * w for r, w in passes) <= 0.6 * 400 * len(points)

    def test_groups_repeat_few_samples(self, monkeypatch):
        # 6000 rays: groups of at most 2560, whose passes span at least 40 samples,
        # so the last sample of a pass, evaluated again by the next, is at most 1 in 40
        nodes = gen_sphere_nodes(6000)
        surface, passes = scan_passes(schwarz_p())
        proj = project_radial(nodes, surface, drop_misses=True)
        assert max(r for r, _ in passes) == 2560
        assert sum(r for r, _ in passes) - len(nodes) <= sum(r * w for r, w in passes) / 40
        # one pass of all 400 samples of every ray gives the same points
        monkeypatch.setattr(nodesets, "_PROJECTION_PASS", 40 * 400 * len(nodes))
        assert_same_bits(proj.points, project_radial(nodes, schwarz_p(), drop_misses=True).points)


def brute_oracle(points, i, m):
    """Sort all nodes by (distance to i, index); first is i itself."""
    d = np.linalg.norm(points - points[i], axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    assert order[0] == i
    return order[1:m]


def knn_row(nodes, i, m):
    """Row of node i in a one-center :func:`knn_table`: (indices, distances), center first."""
    indices, distances = knn_table(nodes, m, [i])
    return indices[0], distances[0]


class TestNearestNeighbors:
    def test_tetra_closest(self):
        nodes = NodeSet(TETRA)
        indices, _ = knn_row(nodes, 0, 2)
        assert indices[0] == 0
        assert list(indices[1:]) == list(brute_oracle(TETRA, 0, 2))

    def test_m_equals_one(self):
        nodes = NodeSet(TETRA)
        indices, distances = knn_row(nodes, 2, 1)
        assert list(indices) == [2]
        assert list(distances) == [0.0]

    def test_m_equals_n_sorted(self):
        nodes = gen_sphere_nodes(60)
        indices, distances = knn_row(nodes, 7, 60)
        np.testing.assert_array_equal(indices[1:], brute_oracle(nodes.points, 7, 60))
        assert np.all(np.diff(distances) >= 0)

    def test_m_too_large_rejected(self):
        nodes = NodeSet(TETRA)
        with pytest.raises(ValueError):
            knn_row(nodes, 0, 5)

    def test_center_never_among_neighbors(self):
        nodes = gen_sphere_nodes(100)
        for i in [0, 13, 99]:
            indices, _ = knn_row(nodes, i, 12)
            assert i not in indices[1:]

    @pytest.mark.parametrize("n", [50, 600, 2000])
    def test_kdtree_and_brute_agree(self, n):
        nodes = gen_sphere_nodes(n)
        rng = np.random.default_rng(n)
        for i in rng.integers(0, n, size=100):
            m = int(rng.integers(1, min(n, 40)))
            indices, distances = knn_row(nodes, int(i), m)
            expected = brute_oracle(nodes.points, int(i), m)
            np.testing.assert_array_equal(indices[1:], expected)
            np.testing.assert_array_equal(
                distances[1:],
                np.linalg.norm(nodes.points[expected] - nodes.points[i], axis=1))

    def test_tie_broken_by_smaller_index(self):
        # nodes 1 and 3 are exactly equidistant from node 0
        pts = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [3.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 5.0, 0.0],
        ])
        nodes = NodeSet(pts)
        assert list(knn_row(nodes, 0, 3)[0][1:]) == [1, 3]

    def test_tie_crossing_the_cut(self):
        # six nodes all at distance 1 from the center: any M < 7 cuts
        # through the tie and must keep the smallest indices
        pts = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
        nodes = NodeSet(pts)
        for m in range(2, 7):
            assert list(knn_row(nodes, 0, m)[0][1:]) == list(range(1, m))


class TestKnnTable:
    @pytest.mark.parametrize("m", [7, 10, 19])
    def test_lattice_ties_match_brute_oracle(self, m):
        # on an integer lattice exact distance ties straddle the M-th
        # neighbor of most nodes (M=10 cuts through the 12-node sqrt(2)
        # shell), so those rows are queried again with 2(m + 1) candidates
        g = np.arange(5.0)
        pts = np.array(np.meshgrid(g, g, g[:3], indexing="ij")).reshape(3, -1).T
        nodes = NodeSet(pts)
        nodes.kdtree = CountingTree(nodes.kdtree)
        indices, distances = knn_table(nodes, m)
        assert nodes.kdtree.queries[0] == (75, m + 1)
        assert nodes.kdtree.queries[1][1] == 2 * (m + 1)
        for i in range(len(pts)):
            assert indices[i, 0] == i
            np.testing.assert_array_equal(indices[i, 1:], brute_oracle(pts, i, m))
        np.testing.assert_array_equal(
            distances, np.linalg.norm(pts[indices] - pts[:, None], axis=2))

    def test_m_equals_n(self):
        nodes = gen_sphere_nodes(60)
        indices, _ = knn_table(nodes, 60)
        for i in range(60):
            np.testing.assert_array_equal(indices[i, 1:], brute_oracle(nodes.points, i, 60))

    @pytest.mark.parametrize("m", [0, 61])
    def test_stencil_size_out_of_range(self, m):
        with pytest.raises(ValueError, match="1 <= M <= 60"):
            knn_table(gen_sphere_nodes(60), m)

    @pytest.mark.parametrize("centers", [[0, 60], [-1], [3, 100, -5]])
    def test_centers_out_of_range(self, centers):
        with pytest.raises(ValueError, match=r"out of range \[0, 60\)"):
            knn_table(gen_sphere_nodes(60), 7, centers)

    @pytest.mark.parametrize("i", [60, -1])
    def test_single_center_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            knn_row(gen_sphere_nodes(60), i, 7)

    def test_center_subset_matches_single_queries(self):
        nodes = gen_sphere_nodes(600)
        indices, distances = knn_table(nodes, 31, [5, 333, 599])
        for row, i in enumerate((5, 333, 599)):
            single, single_distances = knn_row(nodes, i, 31)
            np.testing.assert_array_equal(indices[row], single)
            np.testing.assert_array_equal(distances[row, 1:], single_distances[1:])


class CountingTree:
    """Stands in for ``NodeSet.kdtree``: records the size and k of every query."""

    def __init__(self, tree):
        self.tree, self.queries = tree, []

    def query(self, x, k):
        self.queries.append((len(x), k))
        return self.tree.query(x, k=k)


class TestStoredTables:
    def test_one_query_per_nodeset_and_m(self):
        nodes = gen_sphere_nodes(300)
        nodes.kdtree = CountingTree(nodes.kdtree)
        kernel = Kernel(KernelFamily.GAUSSIAN, 2.0)
        frames = estimate_frames(nodes, 31, kernel)
        assemble_operator(nodes, frames, 31, kernel)
        assert nodes.kdtree.queries == [(300, 32)]
        assemble_operator(nodes, frames, 15, kernel)
        knn_table(nodes, 15)
        assert nodes.kdtree.queries == [(300, 32), (300, 16)]

    def test_stored_table_read_only(self):
        nodes = gen_sphere_nodes(100)
        indices, distances = knn_table(nodes, 12)
        again = knn_table(nodes, 12)
        assert again[0] is indices and again[1] is distances
        with pytest.raises(ValueError):
            indices[0, 0] = 1
        with pytest.raises(ValueError):
            distances[0, 0] = 1.0

    def test_explicit_centers_match_stored_rows(self):
        nodes = gen_sphere_nodes(600)
        nodes.kdtree = CountingTree(nodes.kdtree)
        centers = [599, 5, 333, 5]
        indices, distances = knn_table(nodes, 31, centers)
        stored = knn_table(nodes, 31)
        # an explicit-centers call is computed afresh and stores nothing
        assert nodes.kdtree.queries == [(4, 32), (600, 32)]
        assert indices.flags.writeable
        np.testing.assert_array_equal(indices, stored[0][centers])
        np.testing.assert_array_equal(distances, stored[1][centers])

    @pytest.mark.parametrize("n", [1000, 2000, 4000, "schwarz"])
    def test_tree_distances_equal_norms(self, n):
        # the table keeps the distances the tree returned; on the shipped
        # sets they are the norms of the differences bit for bit
        if n == "schwarz":
            nodes = project_radial(repulsion_nodes(1800), schwarz_p(), drop_misses=True)
        else:
            nodes = repulsion_nodes(n)
        indices, distances = knn_table(nodes, 31)
        pts = nodes.points
        np.testing.assert_array_equal(
            distances, np.linalg.norm(pts[indices] - pts[:, None], axis=2))


class TestNodeIdTypes:
    @pytest.mark.parametrize("centers", [[1.5], [True, False], np.array([2.0]), [3.0]])
    def test_knn_table_rejects_non_integer_ids(self, centers):
        with pytest.raises(ValueError, match="must be integers"):
            knn_table(gen_sphere_nodes(60), 7, centers)
