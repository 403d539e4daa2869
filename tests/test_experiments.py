"""Reference solution, order fitting, and the sweep drivers.

The closed-form surface Laplacian of the reference field is checked by
angular finite differences, so a sign or coefficient slip in either
formula cannot cancel out.
"""

import numpy as np
import pytest

from rbfsurf import experiments
from rbfsurf.experiments import (
    ConvergenceTable,
    SweepRow,
    fit_order,
    frame_error_sweep,
    lbo_error_sweep,
    reference_field,
    reference_lbo,
    save_table_csv,
    table_report,
)
from rbfsurf.errors import ConditioningError
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.nodesets import NodeSet, gen_sphere_nodes, project_radial, schwarz_p, unit_sphere
from rbfsurf.surface_geom import estimate_frames

from conftest import repulsion_nodes


def sphere_point(theta, phi):
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def angular_lbo_of(func, theta, phi, h=1e-3):
    """5-point angular Laplacian g_tt + cot(t) g_t + g_pp / sin(t)^2."""

    def g(t, p):
        return func(sphere_point(t, p))

    def d1(f, x):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

    def d2(f, x):
        return (
            -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
        ) / (12 * h * h)

    return (
        d2(lambda t: g(t, phi), theta)
        + d1(lambda t: g(t, phi), theta) / np.tan(theta)
        + d2(lambda p: g(theta, p), phi) / np.sin(theta) ** 2
    )


class TestReferenceSolution:
    def test_field_values(self):
        assert reference_field([1.0, 0.0, 0.0]) == 1.0
        assert reference_field([0.0, 0.0, 1.0]) == 0.0
        s = 1.0 / np.sqrt(2.0)
        assert reference_field([s, s, 0.0]) == pytest.approx(s * (1 + s))

    def test_lbo_values(self):
        assert reference_lbo([1.0, 0.0, 0.0]) == -2.0
        assert reference_lbo([0.0, 0.0, 1.0]) == 0.0
        s = 1.0 / np.sqrt(2.0)
        assert reference_lbo([s, s, 0.0]) == pytest.approx(-2 * s * (1 + 3 * s))

    @pytest.mark.parametrize("theta,phi", [(0.9, 0.3), (1.7, 2.2), (2.4, -1.0)])
    def test_lbo_matches_angular_differences(self, theta, phi):
        x = sphere_point(theta, phi)
        assert reference_lbo(x) == pytest.approx(
            angular_lbo_of(reference_field, theta, phi), abs=1e-7
        )

    def test_vectorized(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert reference_field(pts).shape == (3,)
        assert np.array_equal(reference_lbo(pts), [-2.0, 0.0, 0.0])


def power_law_rows(m, mu, ns, scale=1.0):
    return [SweepRow(n, m, 2.0, scale * float(np.sqrt(n)) ** -mu, 1.0) for n in ns]


class TestFitOrder:
    def test_recovers_exact_power_law(self):
        rows = power_law_rows(11, 2.0, (100, 400, 1600, 6400))
        assert fit_order(rows)[11] == pytest.approx(2.0, abs=1e-10)

    def test_multiple_stencil_sizes(self):
        rows = power_law_rows(11, 2.0, (100, 400, 1600)) + power_law_rows(
            31, 3.4, (100, 400, 1600), scale=0.1
        )
        orders = fit_order(rows)
        assert orders[11] == pytest.approx(2.0, abs=1e-10)
        assert orders[31] == pytest.approx(3.4, abs=1e-10)

    def test_rejects_mixed_shape_parameters(self):
        # a later eps would overwrite an earlier one's cell of the same N
        rows = power_law_rows(11, 2.0, (100, 400, 1600)) + [
            SweepRow(n, 11, 4.0, float(np.sqrt(n)) ** -1.5, 1.0) for n in (100, 400, 1600)]
        with pytest.raises(ValueError, match=r"M=11 mix the shape parameters \[2.0, 4.0\]"):
            fit_order(rows)

    def test_repeated_node_count_keeps_the_last(self):
        rows = power_law_rows(11, 2.0, (100, 400, 1600, 6400))
        rows += power_law_rows(11, 2.0, (400,), scale=7.0)
        assert fit_order(rows) == fit_order([rows[0], rows[4], rows[2], rows[3]])
        assert fit_order(rows)[11] != pytest.approx(2.0)

    def test_needs_three_node_counts(self):
        with pytest.raises(ValueError):
            fit_order(power_law_rows(11, 2.0, (100, 400)))

    def test_rejects_degenerate_spread(self):
        # three distinct node counts whose log sqrt N spans 1e-13, below the 1e-12 floor
        rows = power_law_rows(11, 2.0, [1000 + j * 1e-10 for j in range(3)])
        assert len({row.n for row in rows}) == 3
        with pytest.raises(ValueError, match="node counts for M=11 span a degenerate range"):
            fit_order(rows)

    def test_rejects_nonpositive_errors(self):
        rows = power_law_rows(11, 2.0, (100, 400)) + [SweepRow(1600, 11, 2.0, 0.0, 1.0)]
        with pytest.raises(ValueError):
            fit_order(rows)

    def test_rejects_nonfinite_errors(self):
        rows = power_law_rows(11, 2.0, (100, 400)) + [SweepRow(1600, 11, 2.0, np.inf, 1.0)]
        with pytest.raises(ValueError):
            fit_order(rows)


class TestLboErrorSweep:
    def test_grid_order_and_shape(self):
        table = lbo_error_sweep(unit_sphere(), [100, 200], [11, 15], [2.0, 4.0])
        assert len(table.rows) == 8
        key = [(r.n, r.m, r.eps) for r in table.rows]
        assert key == [
            (100, 11, 2.0), (100, 11, 4.0), (100, 15, 2.0), (100, 15, 4.0),
            (200, 11, 2.0), (200, 11, 4.0), (200, 15, 2.0), (200, 15, 4.0),
        ]
        for row in table.rows:
            assert row.max_error > 0 and np.isfinite(row.max_error)
            assert row.max_cond > 1.0
            assert row.failures == 0

    def test_requires_sphere(self):
        with pytest.raises(ValueError):
            lbo_error_sweep(schwarz_p(), 100, 11, [2.0])

    def test_nodes_generated_once_per_count(self, monkeypatch):
        calls = []
        generate = experiments.gen_sphere_nodes

        def counting(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(experiments, "gen_sphere_nodes", counting)
        table = lbo_error_sweep(unit_sphere(), [100, 200], [11, 15], [2.0, 4.0])
        assert len(calls) == 2
        # a one-cell sweep generates its own node set, as every cell once did
        cells = [lbo_error_sweep(unit_sphere(), n, m, [eps]).rows[0]
                 for n in (100, 200) for m in (11, 15) for eps in (2.0, 4.0)]
        assert table.rows == cells

    def test_reference_and_frames_built_once_per_node_set(self, monkeypatch):
        calls = []
        for name in ("analytic_frames", "reference_field", "reference_lbo"):
            def counting(*args, _name=name, _original=getattr(experiments, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(experiments, name, counting)
        table = lbo_error_sweep(unit_sphere(), [100, 200], [11, 15], [2.0, 4.0])
        assert len(table.rows) == 8
        assert sorted(calls) == sorted(["analytic_frames", "reference_field", "reference_lbo"] * 2)

    def test_scalar_arguments(self):
        table = lbo_error_sweep(unit_sphere(), 100, 11, [2.0])
        assert len(table.rows) == 1
        assert lbo_error_sweep(unit_sphere(), 100, 11, 2.0).rows == table.rows

    def test_one_shot_eps_grid_reaches_every_cell(self):
        table = lbo_error_sweep(unit_sphere(), [100, 200], [11, 15], iter([2.0, 3.0]))
        assert [(r.n, r.m, r.eps) for r in table.rows] == [
            (n, m, eps) for n in (100, 200) for m in (11, 15) for eps in (2.0, 3.0)]

    def test_stencil_larger_than_node_set(self):
        with pytest.raises(ValueError, match="1 <= M <= 13"):
            lbo_error_sweep(unit_sphere(), 13, 31, [2.0])

    def test_single_node_restriction(self):
        full = lbo_error_sweep(unit_sphere(), 200, 11, [2.0])
        one = lbo_error_sweep(unit_sphere(), 200, 11, [2.0], node=5)
        assert one.rows[0].max_error <= full.rows[0].max_error

    def test_preloaded_nodes(self):
        nodes = repulsion_nodes(500)
        table = lbo_error_sweep(unit_sphere(), 500, 31, [2.0], nodes=nodes)
        assert table.rows[0].n == 500
        # the shipped ladder reproduces its recorded accuracy
        assert table.rows[0].max_error < 5e-2

    def test_estimated_frames_path(self):
        analytic = lbo_error_sweep(unit_sphere(), 200, 15, [2.0])
        estimated = lbo_error_sweep(unit_sphere(), 200, 15, [2.0],
                                    use_analytic_frames=False)
        assert estimated.rows[0].max_error != analytic.rows[0].max_error
        assert estimated.rows[0].max_error < 1.0

    def test_failed_frame_estimate_names_its_cell(self):
        with pytest.raises(ConditioningError) as direct:
            estimate_frames(gen_sphere_nodes(200), 31, Kernel(KernelFamily.GAUSSIAN, 0.1))
        with pytest.raises(ConditioningError) as swept:
            lbo_error_sweep(unit_sphere(), 200, 31, [0.1], use_analytic_frames=False)
        assert str(swept.value) == f"N=200, M=31, eps=0.1: {direct.value}"
        assert swept.value.cond == direct.value.cond
        assert swept.value.node_indices == direct.value.node_indices != []

    @pytest.mark.parametrize("sweep", [
        lambda n, nodes: lbo_error_sweep(unit_sphere(), n, 11, [2.0], nodes=nodes),
        lambda n, nodes: frame_error_sweep(n, 11, [2.0], nodes=nodes)[0],
    ], ids=["lbo", "frame"])
    def test_given_nodes_must_match_every_count(self, sweep):
        nodes = gen_sphere_nodes(150)
        with pytest.raises(ValueError, match="150 given nodes"):
            sweep([100, 200, 400], nodes)
        with pytest.raises(ValueError, match="150 given nodes"):
            sweep([150, 200], nodes)
        assert [row.n for row in sweep([150, 150], nodes).rows] == [150, 150]

    @pytest.mark.parametrize("sweep", [
        lambda n, nodes: lbo_error_sweep(unit_sphere(), n, 11, [2.0], nodes=nodes),
        lambda n, nodes: frame_error_sweep(n, 11, [2.0], nodes=nodes)[0],
    ], ids=["lbo", "frame"])
    def test_given_nodes_must_lie_on_the_unit_sphere(self, sweep, monkeypatch):
        for name in ("weight_table", "estimate_frames", "analytic_frames"):
            monkeypatch.setattr(experiments, name, lambda *a, **k: pytest.fail("a cell ran"))
        points = gen_sphere_nodes(150).points.copy()
        points[7] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=r"^node 7 lies 1e-09 off the unit sphere$"):
            sweep(150, NodeSet(points))
        # the Schwarz P set that the turing-schwarz workload runs on
        schwarz = project_radial(repulsion_nodes(1800), schwarz_p(), drop_misses=True)
        with pytest.raises(ValueError, match="off the unit sphere"):
            sweep(len(schwarz), schwarz)

    def test_nodes_within_the_sphere_tolerance_run(self):
        points = gen_sphere_nodes(150).points.copy()
        points[7] *= 1.0 + 5e-11
        assert len(lbo_error_sweep(unit_sphere(), 150, 11, [2.0], nodes=NodeSet(points)).rows) == 1

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_singular_cells_counted_not_fatal(self):
        # the flat limit must come back as data (failure counts, huge
        # errors, infinite cond), never as an exception
        table = lbo_error_sweep(unit_sphere(), 100, 31, [1e-8])
        row = table.rows[0]
        assert row.failures > 0
        assert row.max_error > 1e6 or not np.isfinite(row.max_error)
        assert not np.isfinite(row.max_cond)


class TestFrameErrorSweep:
    def test_on_shipped_ladder(self):
        nodes = repulsion_nodes(500)
        tn, tk = frame_error_sweep(500, [11, 31], [2.0], nodes=nodes)
        assert len(tn.rows) == len(tk.rows) == 2
        # larger stencils are much more accurate at this resolution
        assert tn.rows[1].max_error < 0.1 * tn.rows[0].max_error
        assert tk.rows[1].max_error < 0.1 * tk.rows[0].max_error
        assert all(r.max_error > 0 for r in tn.rows + tk.rows)

    def test_generates_when_no_nodes_given(self):
        tn, tk = frame_error_sweep(150, 11, [2.0])
        assert tn.rows[0].n == 150
        assert tk.rows[0].n == 150

    def test_failed_estimate_names_its_cell(self):
        with pytest.raises(ConditioningError, match=r"^N=200, M=31, eps=0\.1: 200 local systems") as err:
            frame_error_sweep([200, 400], 31, [0.1])
        assert len(err.value.node_indices) == 200


class TestTableOutput:
    def test_csv_round_trip(self, tmp_path):
        table = ConvergenceTable(power_law_rows(11, 2.0, (100, 400, 1600)))
        path = tmp_path / "table.csv"
        save_table_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,m,eps,max_error,max_cond,failures"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], [100, 400, 1600])
        assert np.array_equal(data[:, 3], [row.max_error for row in table.rows])

    def test_csv_footer_lists_orders(self, tmp_path):
        table = ConvergenceTable(power_law_rows(11, 2.0, (100, 400, 1600)))
        path = tmp_path / "table.csv"
        save_table_csv(table, path, fit_order(table.rows))
        assert path.read_text().endswith(f"\n# mu[M=11] = {fit_order(table.rows)[11]:.6g}\n")

    def test_report_dict(self):
        table = ConvergenceTable(power_law_rows(11, 2.0, (100, 400, 1600)))
        report = table_report(table, fit_order(table.rows))
        assert report["columns"] == ["n", "m", "eps", "max_error", "max_cond", "failures"]
        assert len(report["rows"]) == 3
        assert report["orders"]["11"] == pytest.approx(2.0, abs=1e-10)

    def test_report_without_orders(self):
        table = ConvergenceTable(power_law_rows(11, 2.0, (100, 400, 1600)))
        assert "orders" not in table_report(table)
