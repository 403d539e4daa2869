import dataclasses
import logging
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from rbfsurf import (
    ConditioningError,
    GeometryError,
    ImplicitSurface,
    Kernel,
    KernelFamily,
    NodeSet,
    analytic_frames,
    estimate_frames,
    gen_sphere_nodes,
    levelset_curvature,
    levelset_normal,
    load_frames,
    project_radial,
    save_frames,
    schwarz_p,
    unit_sphere,
)
from rbfsurf import surface_geom
from rbfsurf._linalg import check_conditioning
from rbfsurf.nodesets import knn_table
from rbfsurf.surface_geom import (
    LevelSetFit,
    SurfaceFrame,
    _fit_levelsets,
    _levelset_eval,
    _orientation,
)

from conftest import repulsion_nodes

GAUSS2 = Kernel(KernelFamily.GAUSSIAN, 2.0)
# node 0 at the origin, nodes 1 and 2 at its nearest-neighbor distance h = 0.5, so its rough
# normal is (-e_1) x (-e_3) = -e_2 and its off-surface point at +h n is node 3 exactly; no
# two nodes are closer than 0.5, where FLAT_FREE's kernel values underflow to 0
SINGULAR_SCHUR = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0, 0.5], [0, -0.5, 0], [0.6, 0.6, 0.3],
                           [-0.7, 0.5, 0.4], [0.3, 0.8, -0.6], [-0.6, -0.2, -0.7]])
FLAT_FREE = Kernel(KernelFamily.GAUSSIAN, 100.0)


@pytest.fixture(scope="module")
def sphere_nodes():
    return gen_sphere_nodes(1000)


def node_fit(nodes, i, m=16, kernel=GAUSS2):
    """The batched level-set fit of node i as estimate_frames runs it: a batch
    of one row, offset by the nearest-neighbor distance, through the gate."""
    indices, distances = knn_table(nodes, m, [i])
    ((_, fit, _),) = _fit_levelsets(nodes.points[indices], distances[:, 1], indices[:, 0], kernel)
    check_conditioning(fit.cond, indices[:, 0])
    return fit


def psi(fit, x):
    """The fitted Psi of batch row 0 at a point."""
    r = np.linalg.norm(np.asarray(x, dtype=float) - fit.centers[0], axis=1)
    return float(fit.coefficients[0] @ fit.kernel.phi(r) + fit.constant[0])


class TestFitLevelset:
    def test_residuals_on_sphere_stencil(self, sphere_nodes):
        fit = node_fit(sphere_nodes, 123)
        pts = fit.centers[0, :-2]
        for p in pts:
            assert abs(psi(fit, p)) <= 1e-8
        assert psi(fit, fit.centers[0, -2]) == pytest.approx(1.0, abs=1e-8)
        assert psi(fit, fit.centers[0, -1]) == pytest.approx(-1.0, abs=1e-8)

    def test_coefficients_sum_to_zero(self, sphere_nodes):
        fit = node_fit(sphere_nodes, 7)
        assert abs(fit.coefficients.sum()) <= 1e-10 * np.abs(fit.coefficients).max()

    def test_small_stencil_rejected(self, sphere_nodes):
        indices, _ = knn_table(sphere_nodes, 4, [0])
        with pytest.raises(ValueError, match="at least 5 nodes, got 4"):
            next(_fit_levelsets(sphere_nodes.points[indices], np.array([0.1]), [0], GAUSS2))

    def test_nonpositive_offset_rejected(self, sphere_nodes):
        indices, _ = knn_table(sphere_nodes, 16, [0])
        with pytest.raises(ValueError, match="offset must be positive, got 0.0"):
            next(_fit_levelsets(sphere_nodes.points[indices], np.array([0.0]), [0], GAUSS2))

    def test_planar_stencil_normal(self):
        # regular grid in the z=0 plane; fitted normal must be +-e_z
        xs, ys = np.meshgrid(np.arange(4) * 0.1, np.arange(4) * 0.1)
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(16)])
        nodes = NodeSet(pts)
        fit = node_fit(nodes, 5, m=9, kernel=Kernel(KernelFamily.GAUSSIAN, 1.0))
        n = levelset_normal(fit, nodes.points[[5]])[0]
        assert abs(abs(n[2]) - 1.0) <= 1e-6
        assert abs(levelset_curvature(fit, nodes.points[[5]], n[None])[0]) <= 1e-3


class TestLevelsetDerivatives:
    def test_zero_coefficients_zero_gradient(self):
        fit = LevelSetFit(np.zeros(3), 0.5, np.eye(3), GAUSS2, 1.0)
        np.testing.assert_array_equal(_levelset_eval(fit, [0.3, 0.2, 0.1])[3], np.zeros(3))

    def test_gradient_at_center_single_rbf(self):
        fit = LevelSetFit(np.array([1.0]), 0.0, np.array([[0.2, 0.3, 0.4]]), GAUSS2, 1.0)
        np.testing.assert_allclose(_levelset_eval(fit, [0.2, 0.3, 0.4])[3], np.zeros(3))

    def test_gradient_matches_finite_differences(self, sphere_nodes):
        fit = node_fit(sphere_nodes, 321)
        x = sphere_nodes.points[321]
        fd = np.empty(3)
        for a in range(3):
            e = np.zeros(3)
            e[a] = 1e-6
            fd[a] = (psi(fit, x + e) - psi(fit, x - e)) / 2e-6
        np.testing.assert_allclose(_levelset_eval(fit, x[None])[3][0], fd, rtol=1e-6, atol=1e-9)

    def test_sphere_normal_is_radial(self, sphere_nodes):
        # fixed equatorial node: the one nearest (1,0,0)
        i = int(np.argmax(sphere_nodes.points @ np.array([1.0, 0.0, 0.0])))
        fit = node_fit(sphere_nodes, i)
        n = levelset_normal(fit, sphere_nodes.points[[i]])[0]
        x = sphere_nodes.points[i]
        assert min(np.abs(n - x).max(), np.abs(n + x).max()) <= 1e-3

    @pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]]],
                             ids=["point", "one-row-batch"])
    def test_zero_gradient_raises(self, x):
        # a batch row is no node id: the error names no node
        fit = LevelSetFit(np.zeros(3), 0.5, np.eye(3), GAUSS2, 1.0)
        for call in (lambda: levelset_normal(fit, x),
                     lambda: levelset_curvature(fit, x, np.ones_like(x) / np.sqrt(3.0))):
            with pytest.raises(GeometryError) as exc_info:
                call()
            assert exc_info.value.node_index is None
            assert str(exc_info.value) == "level-set gradient vanished (|grad| = 0.000e+00)"

    def test_sphere_curvature_close_to_two(self, sphere_nodes):
        fit = node_fit(sphere_nodes, 42, m=31)
        x = sphere_nodes.points[[42]]
        n = levelset_normal(fit, x)
        # the raw fit's sign convention follows its internal normal guess,
        # so only the magnitude is pinned down here
        kappa = levelset_curvature(fit, x, n)[0]
        assert 1.9 <= abs(kappa) <= 2.1

    def test_curvature_sign_tracks_normal(self, sphere_nodes):
        fit = node_fit(sphere_nodes, 55, m=31)
        x = sphere_nodes.points[[55]]
        n = levelset_normal(fit, x)
        k_plus = levelset_curvature(fit, x, n)[0]
        k_minus = levelset_curvature(fit, x, -n)[0]
        # the formula sees n only through (r.n)^2, so flipping n must be
        # compensated by the caller; the estimator flips kappa with n
        assert k_plus == pytest.approx(k_minus)

    def test_curvature_against_fd_divergence(self, sphere_nodes):
        # oracle: divergence of the unit gradient field by central differences
        fit = node_fit(sphere_nodes, 17, m=31)
        x = sphere_nodes.points[17]
        n = levelset_normal(fit, x[None])

        def unit_normal(p):
            g = _levelset_eval(fit, p[None])[3][0]
            return g / np.linalg.norm(g)

        step = 1e-5
        div = 0.0
        for a in range(3):
            e = np.zeros(3)
            e[a] = step
            div += (unit_normal(x + e)[a] - unit_normal(x - e)[a]) / (2 * step)
        assert levelset_curvature(fit, x[None], n)[0] == pytest.approx(div, abs=1e-6)


class TestEstimateFrames:
    def test_sphere_frames_accuracy(self, sphere_nodes):
        frames = estimate_frames(sphere_nodes, 31, GAUSS2)
        assert np.abs(frames.normals - sphere_nodes.points).max() <= 1e-2
        assert np.abs(frames.curvatures - 2.0).max() <= 1e-1

    def test_leaves_its_nodes_alone(self):
        # the kNN table it queries is cached; the weight rows travel with the frozen frames
        nodes = gen_sphere_nodes(300)
        assert not nodes._knn_tables
        before = dict(vars(nodes))
        frames = estimate_frames(nodes, 15, GAUSS2)
        assert vars(nodes).keys() == before.keys()
        assert all(vars(nodes)[key] is value for key, value in before.items())
        assert list(nodes._knn_tables) == [15]
        with pytest.raises(dataclasses.FrozenInstanceError):
            frames.normals = -frames.normals

    def test_normals_unit(self, sphere_nodes):
        frames = estimate_frames(sphere_nodes, 11, GAUSS2)
        norms = np.linalg.norm(frames.normals, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_orientation_outward_on_sphere(self, sphere_nodes):
        frames = estimate_frames(sphere_nodes, 21, GAUSS2)
        dots = np.einsum("ij,ij->i", frames.normals, sphere_nodes.points)
        assert np.all(dots > 0)

    @pytest.mark.filterwarnings("ignore:local system poorly conditioned")
    def test_global_stencil_n_equals_m(self):
        # M == N exercises the all-in-one-stencil path; the kernel must be
        # wide enough (small eps) for a 40-point global fit to resolve the sphere
        nodes = gen_sphere_nodes(40)
        frames = estimate_frames(nodes, 40, Kernel(KernelFamily.GAUSSIAN, 0.3))
        dots = np.einsum("ij,ij->i", frames.normals, nodes.points)
        assert np.all(dots > 0)
        assert np.abs(frames.curvatures - 2.0).max() <= 0.5

    def test_one_conditioning_warning_per_call(self, sphere_nodes):
        # eps=1 at N=1000 puts every level-set system above the 1e12 limit
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate_frames(sphere_nodes, 31, Kernel(KernelFamily.GAUSSIAN, 1.0))
        poor = [str(w.message) for w in caught
                if str(w.message).startswith("local system poorly conditioned")]
        assert len(poor) == 1
        assert "1000 of 1000 above 1e+12" in poor[0]
        assert "worst nodes [" in poor[0]

    @pytest.mark.parametrize("surface", ["sphere", "schwarz-p"])
    def test_orientation_against_analytic_signs(self, surface):
        # the MST pass must give one sign relative to the exact normals on
        # each connected component of the stencil graph; on the sphere that
        # sign is outward
        exact_surface = unit_sphere() if surface == "sphere" else schwarz_p()
        nodes = project_radial(repulsion_nodes(1800), exact_surface, drop_misses=True)
        eps = 2.0 if surface == "sphere" else 6.0
        frames = estimate_frames(nodes, 31, Kernel(KernelFamily.GAUSSIAN, eps))
        exact = analytic_frames(exact_surface, nodes.points)
        dots = np.einsum("ij,ij->i", frames.normals, exact.normals)
        assert np.abs(dots).min() > 0.9
        indices, _ = knn_table(nodes, 31)
        n = len(nodes)
        graph = sparse.csr_matrix((np.ones(n * 30), (np.repeat(np.arange(n), 30),
                                                     indices[:, 1:].ravel())), shape=(n, n))
        _, labels = sparse.csgraph.connected_components(graph, directed=False)
        for label in np.unique(labels):
            assert len(np.unique(np.sign(dots[labels == label]))) == 1
        if surface == "sphere":
            assert np.all(dots > 0)

    def test_collinear_stencil_names_first_node(self):
        # a planar patch (nodes 0-4) fits; the distant line (nodes 5-12)
        # cannot orient its off-surface points
        patch = [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0], [0.05, 0.05, 0]]
        line = [[10 + 0.1 * k, 0, 0] for k in range(8)]
        with pytest.raises(GeometryError) as exc_info:
            estimate_frames(NodeSet(np.array(patch + line, dtype=float)), 5, GAUSS2)
        assert exc_info.value.node_index == 5
        assert "node 5" in str(exc_info.value)

    def test_vanishing_gradient_names_its_node(self, sphere_nodes, monkeypatch):
        def evaluation(fit, x):
            *terms, g = _levelset_eval(fit, x)
            g[7] = 0.0  # batch row 7 is node 7
            return *terms, g

        monkeypatch.setattr(surface_geom, "_levelset_eval", evaluation)
        with pytest.raises(GeometryError) as exc_info:
            estimate_frames(sphere_nodes, 16, GAUSS2)
        assert exc_info.value.node_index == 7
        assert str(exc_info.value) == "level-set gradient vanished at node 7 (|grad| = 0.000e+00)"

    def test_one_level_set_evaluation(self, sphere_nodes, monkeypatch):
        # per chunk of 64 nodes, phi'/r and phi'' run once each over the 18 centers: the
        # gradient, the curvature row and the weight row over the 16 stencil nodes share them
        calls = []
        for name in ("dphi_over_r", "d2phi"):
            real = getattr(Kernel, name)
            monkeypatch.setattr(Kernel, name, lambda kernel, r, name=name, real=real:
                                calls.append((name, np.shape(r))) or real(kernel, r))
        estimate_frames(sphere_nodes, 16, GAUSS2)
        assert calls == [call for k in [64] * 15 + [40]
                         for call in (("dphi_over_r", (k, 18)), ("d2phi", (k, 18)))]

    def test_gate_before_gradient_across_chunks(self):
        # at eps = 100 every kernel value between nodes 0.5 or more apart underflows to 0,
        # so every level-set gradient vanishes; 70 such nodes fill the first chunk of 64,
        # and node 70 of the second has a singular fit: the gate runs over all chunks first
        sphere = gen_sphere_nodes(70).points * 3.0 + 10.0
        with pytest.raises(GeometryError, match="vanished at node 0 "):
            estimate_frames(NodeSet(sphere), 6, FLAT_FREE)
        with pytest.raises(ConditioningError) as exc_info:
            estimate_frames(NodeSet(np.concatenate([sphere, SINGULAR_SCHUR])), 6, FLAT_FREE)
        assert exc_info.value.node_indices == [70]

    def test_singular_schur_complement_names_its_node(self):
        # node 0's off-surface point +h n lands on node 3: the (M + 3) system has two
        # equal rows while its (M + 1) block, the weight system, is the bordered identity
        nodes = NodeSet(SINGULAR_SCHUR)
        indices, distances = knn_table(nodes, 6)
        ((_, fit, weights),) = _fit_levelsets(nodes.points[indices], distances[:, 1],
                                              indices[:, 0], FLAT_FREE)
        assert np.array_equal(fit.centers[0, 6], nodes.points[3])
        assert fit.cond[0] == np.inf and fit.cond[1:] == pytest.approx(np.full(7, 7.0))
        assert weights(np.zeros((8, 6)))[1] == pytest.approx(np.full(8, 7.0))
        with pytest.raises(ConditioningError) as exc_info:
            estimate_frames(nodes, 6, FLAT_FREE)
        assert exc_info.value.node_indices == [0]
        assert "(nodes 0)" in str(exc_info.value)

    def test_debug_record(self, sphere_nodes, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.surface_geom")
        estimate_frames(sphere_nodes, 16, GAUSS2)
        (record,) = [r for r in caplog.records if r.name == "rbfsurf.surface_geom"]
        stats = record.stats
        assert stats["n"] == 1000 and "'fit_s'" in record.getMessage()
        parts = [stats["fit_s"], stats["gate_s"], stats["orient_s"]]
        assert min(parts) > 0 and sum(parts) == pytest.approx(stats["seconds"], rel=1e-9)

    def test_silent_by_default(self, sphere_nodes, caplog, monkeypatch):
        log = logging.getLogger("rbfsurf.surface_geom")
        assert log.level == logging.NOTSET and not log.handlers
        caplog.set_level(logging.INFO, logger="rbfsurf.surface_geom")
        estimate_frames(sphere_nodes, 16, GAUSS2)
        assert not [r for r in caplog.records if r.name == "rbfsurf.surface_geom"]

    def test_m_bounds(self, sphere_nodes):
        with pytest.raises(ValueError):
            estimate_frames(sphere_nodes, 4, GAUSS2)
        small = gen_sphere_nodes(30)
        with pytest.raises(ValueError):
            estimate_frames(small, 31, GAUSS2)


def sequential_signs(points, normals, indices, distances):
    """Reference orientation: the breadth-first propagation along the minimum
    spanning tree, one node at a time, that the parity rule replaced.  A child
    is flipped when its normal opposes its oriented parent's and is otherwise
    +1 (so an orthogonal edge resets it); each component then faces outward."""
    n = len(points)
    graph = sparse.csr_matrix(
        (distances[:, 1:].ravel(), (np.repeat(indices[:, 0], indices.shape[1] - 1),
                                    indices[:, 1:].ravel())), shape=(n, n))
    tree = csgraph.minimum_spanning_tree(graph)
    _, labels = csgraph.connected_components(tree, directed=False)
    sign = np.ones(n)
    for root in np.unique(labels, return_index=True)[1]:
        order, parent = csgraph.breadth_first_order(tree, root, directed=False)
        dots = np.einsum("ij,ij->i", normals[order[1:]], normals[parent[order[1:]]])
        for j, p, dot in zip(order[1:].tolist(), parent[order[1:]].tolist(), dots.tolist()):
            sign[j] = -1.0 if sign[p] * dot < 0 else 1.0
    outward = np.einsum("ij,ij->i", normals, points - points.mean(axis=0)) * sign
    sign[(np.bincount(labels, outward) < 0)[labels]] *= -1.0
    return sign


class TestOrientation:
    @pytest.mark.parametrize("surface, n, copies", [("sphere", 500, 1), ("sphere", 1000, 1),
                                                    ("schwarz-p", 1800, 1), ("sphere", 500, 3)])
    def test_parity_rule_matches_sequential_pass(self, surface, n, copies):
        # exact normals with seeded random signs: the tree must undo the flips
        # edge by edge; copies shifted well clear of each other give one
        # component each
        exact_surface = unit_sphere() if surface == "sphere" else schwarz_p()
        nodes = repulsion_nodes(n)
        if surface != "sphere":
            nodes = project_radial(nodes, exact_surface, drop_misses=True)
        normals = np.tile(analytic_frames(exact_surface, nodes.points).normals, (copies, 1))
        points = np.concatenate([nodes.points + [10.0 * k, 0.0, 0.0] for k in range(copies)])
        rng = np.random.default_rng(n)
        normals *= rng.choice([-1.0, 1.0], size=len(points))[:, None]
        indices, distances = knn_table(NodeSet(points), 31)
        assert np.all(indices // len(nodes) == indices[:, :1] // len(nodes))
        sign = _orientation(points, normals, indices, distances)
        expected = sequential_signs(points, normals, indices, distances)
        assert sign.dtype == expected.dtype
        assert sign.tobytes() == expected.tobytes()

    def test_orthogonal_edge_inherits_parent_sign(self):
        # tree edges 0-1 and 1-2; node 1 opposes the root (sign -1) and node
        # 2 is exactly orthogonal to node 1, so it keeps -1.  The oriented
        # normals then face outward, so no component flip follows.
        points = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-3.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        indices = np.array([[0, 1], [1, 2], [2, 1]])
        distances = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        assert _orientation(points, normals, indices, distances).tolist() == [1.0, -1.0, -1.0]
        # the sequential pass reset node 2 to +1, which flipped the component
        assert sequential_signs(points, normals, indices, distances).tolist() == [-1.0, 1.0, -1.0]


class TestSurfaceFrame:
    def test_shape_validation(self):
        # the zero normals are not unit either: the shape error comes first
        with pytest.raises(ValueError, match=r"normals must be \(N, 3\)"):
            SurfaceFrame(np.zeros((5, 3)), np.zeros(4))

    @pytest.mark.parametrize("scale, length", [(2.0, "2"), (0.0, "0"), (1.0 + 2e-6, "1.000002")])
    def test_unit_normals(self, scale, length):
        # a scaled normal would give a wrong operator without any warning
        normals = np.eye(3)[None, 0].repeat(4, 0)
        normals[1, 0] = 1.0 + 5e-7  # within 1e-6 of unit length
        normals[2] *= scale
        with pytest.raises(ValueError, match=f"normal of node 2 has length {length}"):
            SurfaceFrame(normals, np.full(4, 2.0))

    def test_read_only_copies(self):
        # a write after construction would get past the finiteness check
        normals, curvatures = np.eye(3)[None, 0].repeat(4, 0), np.full(4, 2.0)
        f = SurfaceFrame(normals, curvatures)
        with pytest.raises(ValueError):
            f.normals[2] = np.nan
        with pytest.raises(ValueError):
            f.curvatures[2] = np.nan
        normals[2] = np.nan
        curvatures[2] = np.nan
        assert np.isfinite(f.normals).all() and np.isfinite(f.curvatures).all()


class TestAnalyticFrames:
    def test_sphere(self, sphere_nodes):
        frames = analytic_frames(unit_sphere(), sphere_nodes.points)
        np.testing.assert_allclose(frames.normals, sphere_nodes.points, atol=1e-12)
        np.testing.assert_allclose(frames.curvatures, 2.0, atol=1e-12)

    def test_schwarz_p_against_fd(self):
        surface = schwarz_p()
        nodes = gen_sphere_nodes(200)
        from rbfsurf import project_radial
        proj = project_radial(nodes, surface, drop_misses=True)
        frames = analytic_frames(surface, proj.points)

        # FD oracle for div(grad F / |grad F|)
        def unit_grad(p):
            g = surface.gradF(p)
            return g / np.linalg.norm(g)

        rng = np.random.default_rng(5)
        for i in rng.integers(0, len(proj), 10):
            x = proj.points[i]
            step = 1e-6
            div = 0.0
            for a in range(3):
                e = np.zeros(3)
                e[a] = step
                div += (unit_grad(x + e)[a] - unit_grad(x - e)[a]) / (2 * step)
            assert frames.curvatures[i] == pytest.approx(div, abs=1e-5)

    def test_vanishing_gradient_names_its_node(self, sphere_nodes):
        sphere = unit_sphere()

        def gradF(p):
            g = sphere.gradF(p)
            g[3] = 0.0
            return g

        surface = ImplicitSurface("sphere", sphere.F, gradF, sphere.hessF)
        with pytest.raises(GeometryError) as exc_info:
            analytic_frames(surface, sphere_nodes.points)
        assert exc_info.value.node_index == 3
        assert "at node 3 " in str(exc_info.value)


class TestFrameCsv:
    def test_round_trip(self, tmp_path, sphere_nodes):
        frames = estimate_frames(sphere_nodes, 11, GAUSS2)
        path = tmp_path / "frames.csv"
        save_frames(sphere_nodes, frames, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,z,nx,ny,nz,kappa"
        points, back = load_frames(path)
        np.testing.assert_array_equal(points, sphere_nodes.points)
        np.testing.assert_array_equal(back.normals, frames.normals)
        np.testing.assert_array_equal(back.curvatures, frames.curvatures)

    def test_save_rejects_frames_of_another_node_count(self, tmp_path, sphere_nodes):
        frames = analytic_frames(unit_sphere(), sphere_nodes.points[:-1])
        path = tmp_path / "frames.csv"
        with pytest.raises(ValueError, match="frame count does not match node count"):
            save_frames(sphere_nodes, frames, path)
        assert not path.exists()

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("x,y,z,nx,ny,nz,kappa\n0,0,1,0,0,1,2\n1,0,0,1,0,0,nan\n")
        with pytest.raises(ValueError, match="node 1"):
            load_frames(path)
