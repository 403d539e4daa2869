"""End-to-end runs of the command-line interface.

Each test drives ``main(argv)`` in-process and checks the artifacts on
disk; one smoke test goes through the installed module entry point.
"""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

from rbfsurf import Kernel, KernelFamily, cli
from rbfsurf.cli import _parse_grid, _parse_ints, main
from rbfsurf.experiments import fit_order, frame_error_sweep
from rbfsurf.lbo import SparseOperator, assemble_operator
from rbfsurf.nodesets import load_nodes, schwarz_p, unit_sphere
from rbfsurf.surface_geom import analytic_frames, load_frames


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def sphere_file(tmp_path, capsys):
    path = tmp_path / "nodes.txt"
    code, _, _ = run_cli(capsys, "nodes", "gen", "--n", "200", "--out", str(path))
    assert code == 0
    return path


class TestParsers:
    def test_grid_literal(self):
        assert np.array_equal(_parse_grid("1,2.5,4"), [1.0, 2.5, 4.0])

    def test_grid_range(self):
        assert np.allclose(_parse_grid("1:3:5"), [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_ints(self):
        assert _parse_ints("11,15,31") == [11, 15, 31]


class TestNodes:
    def test_gen_writes_unit_vectors(self, tmp_path, capsys):
        path = tmp_path / "n.txt"
        code, out, _ = run_cli(capsys, "nodes", "gen", "--n", "150", "--out", str(path))
        assert code == 0
        assert "wrote 150 nodes" in out
        assert "done in" in out
        nodes = load_nodes(path)
        assert len(nodes) == 150
        assert np.abs(np.linalg.norm(nodes.points, axis=1) - 1).max() < 1e-12

    def test_gen_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "nodes", "gen", "--n", "64", "--method", "repulsion",
                "--seed", "7", "--out", str(a))
        run_cli(capsys, "nodes", "gen", "--n", "64", "--method", "repulsion",
                "--seed", "7", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_gen_rejects_other_surfaces(self, tmp_path, capsys):
        # generation is spherical: there is no --surface to choose
        with pytest.raises(SystemExit) as exc:
            main(["nodes", "gen", "--surface", "schwarz-p", "--n", "64",
                  "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    def test_project_with_drop(self, sphere_file, tmp_path, capsys):
        out_path = tmp_path / "proj.txt"
        code, out, _ = run_cli(capsys, "nodes", "project", "--surface", "schwarz-p",
                               "--in", str(sphere_file), "--out", str(out_path),
                               "--drop-misses")
        assert code == 0
        projected = load_nodes(out_path)
        assert 0 < len(projected) <= 200
        surface = schwarz_p()
        assert np.abs(surface.F(projected.points)).max() < 1e-9

    def test_project_fails_loudly_without_drop(self, sphere_file, tmp_path, capsys):
        # the polar rays never cross the level set, so strict mode must fail
        code, _, err = run_cli(capsys, "nodes", "project", "--surface", "schwarz-p",
                               "--in", str(sphere_file), "--out", str(tmp_path / "p.txt"))
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("command", [["lbo", "build"], ["simulate", "turing"],
                                     ["simulate", "schaeffer"]])
def test_frames_help_lists_every_source(capsys, command):
    with pytest.raises(SystemExit):
        main(command + ["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "frame CSV, analytic:sphere / analytic:schwarz-p, or estimate" in text


class TestGeomAndOperator:
    def test_estimate_frames_round_trip(self, sphere_file, tmp_path, capsys):
        frames_path = tmp_path / "frames.csv"
        code, out, _ = run_cli(capsys, "geom", "estimate", "--nodes", str(sphere_file),
                               "--stencil", "15", "--out", str(frames_path))
        assert code == 0
        points, frames = load_frames(frames_path)
        assert len(points) == 200
        assert np.abs(np.linalg.norm(frames.normals, axis=1) - 1).max() < 1e-9

    def test_build_with_analytic_frames(self, sphere_file, tmp_path, capsys):
        op_path = tmp_path / "op.txt"
        code, out, _ = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--stencil", "15",
                               "--out", str(op_path))
        assert code == 0
        assert "200x200" in out
        op = SparseOperator.load(op_path)
        assert op.n == 200
        assert np.all(np.diff(op.matrix.indptr) == 15)

    @pytest.mark.parametrize("family", list(KernelFamily), ids=lambda f: f.value)
    def test_kernel_option_builds_the_named_family(self, sphere_file, tmp_path, capsys, family):
        op_path = tmp_path / "op.txt"
        code, _, _ = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                             "--frames", "analytic:sphere", "--stencil", "15",
                             "--kernel", family.value, "--eps", "3", "--out", str(op_path))
        assert code == 0
        nodes = load_nodes(sphere_file)
        expected = assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 15,
                                     Kernel(family, 3.0))
        assert np.array_equal(SparseOperator.load(op_path).matrix.toarray(),
                              expected.matrix.toarray())

    def test_unknown_kernel_is_a_usage_error(self, sphere_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lbo", "build", "--nodes", str(sphere_file), "--frames", "analytic:sphere",
                  "--stencil", "15", "--kernel", "cubic", "--out", str(tmp_path / "op.txt")])
        assert exit_info.value.code == 2
        assert "argument --kernel: invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "op.txt").exists()

    @pytest.mark.parametrize("eps, message", [("-1", "positive, got -1.0"),
                                              ("inf", "finite, got inf")])
    def test_bad_eps_exits_2(self, sphere_file, tmp_path, capsys, eps, message):
        code, _, err = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--stencil", "15",
                               "--eps", eps, "--out", str(tmp_path / "op.txt"))
        assert code == 2
        assert err == f"error: shape parameter must be {message}\n"
        assert not (tmp_path / "op.txt").exists()

    def test_build_with_frame_file(self, sphere_file, tmp_path, capsys):
        frames_path = tmp_path / "frames.csv"
        run_cli(capsys, "geom", "estimate", "--nodes", str(sphere_file),
                "--stencil", "15", "--out", str(frames_path))
        op_path = tmp_path / "op.txt"
        code, _, _ = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                             "--frames", str(frames_path), "--stencil", "15",
                             "--out", str(op_path))
        assert code == 0

    def test_build_rejects_mismatched_frames(self, sphere_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        run_cli(capsys, "nodes", "gen", "--n", "64", "--out", str(other))
        frames_path = tmp_path / "frames.csv"
        run_cli(capsys, "geom", "estimate", "--nodes", str(other),
                "--stencil", "15", "--out", str(frames_path))
        code, _, err = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                               "--frames", str(frames_path), "--stencil", "15",
                               "--out", str(tmp_path / "op.txt"))
        assert code == 2
        assert "error:" in err

    def test_build_rejects_nonfinite_frames(self, sphere_file, tmp_path, capsys):
        frames_path = tmp_path / "frames.csv"
        run_cli(capsys, "geom", "estimate", "--nodes", str(sphere_file),
                "--stencil", "15", "--out", str(frames_path))
        lines = frames_path.read_text().splitlines()
        fields = lines[8].split(",")  # node 7, after the header
        fields[3] = "nan"
        lines[8] = ",".join(fields)
        frames_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                               "--frames", str(frames_path), "--stencil", "15",
                               "--out", str(tmp_path / "op.txt"))
        assert code == 2
        assert "node 7" in err

    def test_build_rejects_scaled_normal(self, sphere_file, tmp_path, capsys):
        frames_path = tmp_path / "frames.csv"
        run_cli(capsys, "geom", "estimate", "--nodes", str(sphere_file),
                "--stencil", "15", "--out", str(frames_path))
        lines = frames_path.read_text().splitlines()
        fields = lines[8].split(",")  # node 7, after the header
        fields[3:6] = [repr(2.0 * float(x)) for x in fields[3:6]]
        lines[8] = ",".join(fields)
        frames_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                               "--frames", str(frames_path), "--stencil", "15",
                               "--out", str(tmp_path / "op.txt"))
        assert code == 2
        assert "error: normal of node 7 has length 2" in err
        assert not (tmp_path / "op.txt").exists()

    @pytest.mark.parametrize("other_nodes, message", [
        (lambda points: 1.001 * points, "frame file positions do not match the node file"),
        (lambda points: points[:-1], "frame file covers 200 nodes but node set has 199"),
    ], ids=["moved", "fewer"])
    def test_build_rejects_frames_of_other_nodes(self, sphere_file, tmp_path, capsys,
                                                 other_nodes, message):
        frames_path, nodes_path = tmp_path / "frames.csv", tmp_path / "other.txt"
        run_cli(capsys, "geom", "estimate", "--nodes", str(sphere_file),
                "--stencil", "15", "--out", str(frames_path))
        np.savetxt(nodes_path, other_nodes(load_nodes(sphere_file).points), fmt="%.17g")
        code, out, err = run_cli(capsys, "lbo", "build", "--nodes", str(nodes_path),
                                 "--frames", str(frames_path), "--stencil", "15",
                                 "--out", str(tmp_path / "op.txt"))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "op.txt").exists()

    def test_spectrum_report(self, sphere_file, tmp_path, capsys):
        op_path = tmp_path / "op.txt"
        run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file),
                "--frames", "analytic:sphere", "--stencil", "15", "--out", str(op_path))
        spec_path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--operator", str(op_path),
                               "--kmax", "2", "--out", str(spec_path))
        assert code == 0
        assert "stable" in out
        assert "k=2 target=-6 matched=5 expected=5" in out
        text = spec_path.read_text()
        assert text.startswith("re,im")
        # radius hypot(2 * 3 + 0.5 + 0.5, 0.5): the far corner of the k = 2 cluster box
        assert " of 200 eigenvalues, every one within 7.01783 of 0.5," in text

    def test_spectrum_above_old_dense_cap(self, tmp_path, capsys):
        # upper bidiagonal, so its eigenvalues are its diagonal 0, -1, ..., -5000;
        # the last row stores a zero so that every row holds M = 2 entries
        n = 5001
        rows = np.repeat(np.arange(n), 2)
        cols = np.column_stack([np.arange(n), (np.arange(n) + 1) % n]).ravel()
        vals = np.column_stack([-np.arange(n, dtype=float),
                                np.r_[np.full(n - 1, 0.5), 0.0]]).ravel()
        op_path, spec_path = tmp_path / "op.txt", tmp_path / "spec.csv"
        SparseOperator(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))).save(op_path)
        code, out, _ = run_cli(capsys, "spectrum", "--operator", str(op_path),
                               "--kmax", "2", "--out", str(spec_path))
        assert code == 0
        assert "(stable)" in out
        lines = spec_path.read_text().splitlines()
        eigs = np.array([complex(*map(float, ln.split(",")))
                         for ln in lines[1:] if not ln.startswith("#")])
        # the disc for kmax = 2 at tol 0.5 holds 0, -1, ..., -6, the rest of the
        # six rightmost lie in it too, and the largest magnitude comes last
        assert np.allclose(eigs[:7], -np.arange(7.0), rtol=0, atol=1e-9)
        assert len(eigs) == 8 and eigs[-1] == pytest.approx(-5000.0, rel=1e-6)
        assert any(ln.startswith(f"# partial spectrum: 8 of {n} eigenvalues") for ln in lines)

    @pytest.mark.parametrize("option, value, message", [
        ("--tol", "-1", "cluster tolerance must be positive, got -1.0"),
        ("--tol", "inf", "cluster tolerance must be finite and positive, got inf"),
        ("--kmax", "-3", "k_max must be nonnegative, got -3"),
    ])
    def test_spectrum_options_checked_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                       option, value, message):
        op_path = tmp_path / "op.txt"
        SparseOperator(sparse.diags(-np.arange(1.0, 7.0)).tocsr()).save(op_path)
        monkeypatch.setattr(cli, "eigenvalues", lambda *a, **k: pytest.fail("solve started"))
        code, _, err = run_cli(capsys, "spectrum", "--operator", str(op_path), option, value,
                               "--out", str(tmp_path / "spec.csv"))
        assert code == 2
        assert message in err
        assert not (tmp_path / "spec.csv").exists()

    def test_singular_shift_exits_2_writing_nothing(self, tmp_path, capsys):
        op_path = tmp_path / "op.txt"
        SparseOperator(sparse.diags(np.r_[0.5, -np.arange(60.0, 160.0)]).tocsr()).save(op_path)
        code, out, err = run_cli(capsys, "spectrum", "--operator", str(op_path),
                                 "--out", str(tmp_path / "spec.csv"))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: the shift 0.5 is an eigenvalue of the N = 101 "
                                    "operator: L - 0.5 I is exactly singular (Factor is "
                                    "exactly singular)"]
        assert not (tmp_path / "spec.csv").exists()


class TestSimulate:
    def test_turing_snapshots(self, sphere_file, tmp_path, capsys):
        out_dir = tmp_path / "turing"
        code, out, _ = run_cli(capsys, "simulate", "turing",
                               "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--preset", "spots",
                               "--t-end", "2", "--snapshot-every", "1",
                               "--stencil", "15", "--out", str(out_dir))
        assert code == 0
        index = (out_dir / "times.csv").read_text().splitlines()
        assert index[0] == "snapshot,time,file"
        assert len(index) == 4  # states at t = 0, 1, 2
        header = (out_dir / "snapshot_0000.csv").read_text().splitlines()[0]
        assert header == "x,y,z,u,v"

    def test_schaeffer_probe_and_vtk(self, sphere_file, tmp_path, capsys):
        out_dir = tmp_path / "wave"
        code, out, _ = run_cli(capsys, "simulate", "schaeffer",
                               "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--t-end", "2",
                               "--snapshot-every", "2", "--stencil", "15",
                               "--probe", "3", "--vtk", "--out", str(out_dir))
        assert code == 0
        probe = (out_dir / "probe_3.csv").read_text().splitlines()
        assert probe[0] == "t,v,h"
        assert len(probe) > 2
        header = (out_dir / "snapshot_0000.csv").read_text().splitlines()[0]
        assert header == "x,y,z,v,h"
        assert (out_dir / "snapshot_0000.vtk").exists()


@pytest.mark.parametrize("model", [["turing", "--preset", "stripes"], ["schaeffer"]],
                         ids=["turing", "schaeffer"])
@pytest.mark.parametrize("t_end, message", [("0", "after the start time 0.0"),
                                            ("-1", "after the start time 0.0"),
                                            ("inf", "finite")])
def test_simulate_needs_positive_span(sphere_file, tmp_path, capsys, model, t_end, message):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", *model, "--nodes", str(sphere_file),
                           "--frames", "analytic:sphere", "--t-end", t_end,
                           "--stencil", "15", "--out", str(out_dir))
    assert code == 2
    assert f"error: t_end must be {message}, got {float(t_end)}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("model", [["turing", "--preset", "stripes"], ["schaeffer"]],
                         ids=["turing", "schaeffer"])
@pytest.mark.parametrize("option, value, message", [
    ("--snapshot-every", "0", "snapshot_every must be positive"),
    ("--snapshot-every", "-5", "snapshot_every must be positive"),
    ("--t-end", "inf", "t_end must be finite, got inf"),
])
def test_simulate_options_checked_before_the_frame_fit(sphere_file, tmp_path, capsys,
                                                       monkeypatch, model, option, value, message):
    monkeypatch.setattr(cli, "estimate_frames", lambda *a, **k: pytest.fail("frames fitted"))
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "simulate", *model, "--nodes", str(sphere_file),
                             "--frames", "estimate", option, value, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("option, message", [("--t-stim", "duration"), ("--delta", "width")])
def test_stimulus_checked_before_the_nodes_are_read(tmp_path, capsys, option, message):
    out_dir = tmp_path / "wave"
    code, _, err = run_cli(capsys, "simulate", "schaeffer", "--nodes", str(tmp_path / "none.txt"),
                           "--frames", "estimate", option, "0", "--out", str(out_dir))
    assert code == 2
    assert err.splitlines() == [f"error: stimulus {message} must be positive"]
    assert not out_dir.exists()


@pytest.mark.parametrize("option, message", [("--t-stim", "duration"), ("--delta", "width")])
def test_infinite_stimulus_rejected_before_the_nodes_are_read(tmp_path, capsys, option,
                                                              message):
    out_dir = tmp_path / "wave"
    code, out, err = run_cli(capsys, "simulate", "schaeffer", "--nodes",
                             str(tmp_path / "none.txt"), "--frames", "estimate", option, "inf",
                             "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: stimulus {message} must be finite, got inf"]
    assert not out_dir.exists()


@pytest.mark.parametrize("option, value", [("--probe", "999"), ("--probe", "-1"),
                                           ("--stim-node", "300")])
def test_node_ids_checked_before_the_frame_fit(sphere_file, tmp_path, capsys, monkeypatch,
                                               option, value):
    monkeypatch.setattr(cli, "estimate_frames", lambda *a, **k: pytest.fail("frames fitted"))
    out_dir = tmp_path / "wave"
    code, out, err = run_cli(capsys, "simulate", "schaeffer", "--nodes", str(sphere_file),
                             "--frames", "estimate", option, value, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: node id {value} out of range [0, 200)"]
    assert not out_dir.exists()


class TestNodeIds:
    """Node ids from the command line must lie in [0, N); nothing is written otherwise."""

    @pytest.mark.parametrize("probe", ["500", "-1"])
    def test_probe(self, sphere_file, tmp_path, capsys, probe):
        out_dir = tmp_path / "wave"
        code, _, err = run_cli(capsys, "simulate", "schaeffer", "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--t-end", "1",
                               "--stencil", "15", "--probe", probe, "--out", str(out_dir))
        assert code == 2
        assert f"error: node id {probe} out of range [0, 200)" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("stim_node", ["999", "-1"])
    def test_stim_node(self, sphere_file, tmp_path, capsys, stim_node):
        out_dir = tmp_path / "wave"
        code, _, err = run_cli(capsys, "simulate", "schaeffer", "--nodes", str(sphere_file),
                               "--frames", "analytic:sphere", "--t-end", "1",
                               "--stencil", "15", "--stim-node", stim_node,
                               "--out", str(out_dir))
        assert code == 2
        assert f"error: node id {stim_node} out of range [0, 200)" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("node", ["400", "-1"])
    def test_eps_sweep_node(self, tmp_path, capsys, node):
        csv_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "bench", "eps-sweep", "--n", "150", "--stencil", "11",
                               "--eps-grid", "2", "--node", node, "--out", str(csv_path))
        assert code == 2
        assert f"error: node id {node} out of range [0, 150)" in err
        assert not csv_path.exists()


class TestBench:
    def test_eps_sweep_json_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "bench", "eps-sweep", "--n", "150",
                               "--stencil", "11", "--eps-grid", "2,4",
                               "--out", str(csv_path), "--json")
        assert code == 0
        report = json.loads(out[: out.rindex("}") + 1])
        assert len(report["rows"]) == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,m,eps,max_error,max_cond,failures"
        assert len(lines) == 3

    def test_eps_sweep_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "eps-sweep", "--n", "150",
                               "--stencil", "11", "--eps-grid", "2:4:3")
        assert code == 0
        assert out.count("max_error") == 3

    def test_lbo_convergence_orders(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "lbo-convergence",
                               "--n", "100,200,400", "--stencil", "11", "--json")
        assert code == 0
        report = json.loads(out[: out.rindex("}") + 1])
        assert "11" in report["orders"]
        assert len(report["rows"]) == 3

    def test_lbo_convergence_csv_footer(self, tmp_path, capsys):
        csv_path = tmp_path / "conv.csv"
        code, _, _ = run_cli(capsys, "bench", "lbo-convergence",
                             "--n", "100,200,400", "--stencil", "11",
                             "--out", str(csv_path))
        assert code == 0
        text = csv_path.read_text()
        assert "# mu[M=11] =" in text

    def test_lbo_convergence_names_the_failed_cell(self, capsys):
        code, _, err = run_cli(capsys, "bench", "lbo-convergence", "--n", "200,400,800",
                               "--stencil", "31", "--eps", "0.1", "--estimated-frames")
        assert code == 2
        assert "error: N=200, M=31, eps=0.1: " in err

    def test_frame_convergence_json(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "frame-convergence",
                               "--n", "100,200,400", "--stencil", "11", "--json")
        assert code == 0
        report = json.loads(out[: out.rindex("}") + 1])
        assert "11" in report["orders_normal"]
        assert "11" in report["orders_kappa"]

    def test_frame_convergence_csv_and_text(self, tmp_path, capsys):
        csv_path = tmp_path / "frames.csv"
        code, out, _ = run_cli(capsys, "bench", "frame-convergence", "--n", "100,200,400",
                               "--stencil", "11,15", "--out", str(csv_path))
        assert code == 0
        tn, tk = frame_error_sweep([100, 200, 400], [11, 15], [2.0])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,m,eps,e_normal,e_kappa"
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert data.tolist() == [[a.n, a.m, a.eps, a.max_error, b.max_error]
                                 for a, b in zip(tn.rows, tk.rows)]
        mu_n, mu_k = fit_order(tn.rows), fit_order(tk.rows)
        assert out.splitlines()[:2] == [
            f"M={m}: mu_normal={mu_n[m]:.3f} mu_kappa={mu_k[m]:.3f}" for m in (11, 15)]
        assert out.splitlines()[2].startswith("done in ")


class TestUsageErrors:
    """List options are parsed by argparse: bad input exits 2 naming the option."""

    @pytest.mark.parametrize("argv, option", [
        (["eps-sweep", "--eps-grid", "1:8"], "--eps-grid"),
        (["eps-sweep", "--eps-grid", "1:8:0"], "--eps-grid"),
        (["eps-sweep", "--eps-grid", ""], "--eps-grid"),
        (["lbo-convergence", "--n", "200,x"], "--n"),
    ], ids=["range-without-count", "range-count-zero", "empty-grid", "non-integer-count"])
    def test_bad_list(self, tmp_path, capsys, argv, option):
        csv_path = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv, "--out", str(csv_path)])
        assert exit_info.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err
        assert not csv_path.exists()


class TestFileErrors:
    """A missing or unwritable path, or a malformed file, exits 2 with one error line."""

    def test_missing_node_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "lbo", "build", "--nodes", str(tmp_path / "nope.txt"),
                               "--frames", "analytic:sphere", "--stencil", "11",
                               "--out", str(tmp_path / "op.txt"))
        assert code == 2
        assert err.startswith("error: [Errno 2] ")

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "nodes", "gen", "--n", "100",
                               "--out", str(tmp_path / "nonexistent" / "x.txt"))
        assert code == 2
        assert err.startswith("error: [Errno 2] ")

    def test_malformed_operator_names_the_line(self, sphere_file, tmp_path, capsys):
        op_path = tmp_path / "op.txt"
        run_cli(capsys, "lbo", "build", "--nodes", str(sphere_file), "--frames",
                "analytic:sphere", "--stencil", "11", "--out", str(op_path))
        lines = op_path.read_text().splitlines()
        lines[4] = " ".join(lines[4].split()[:2])
        op_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "spectrum", "--operator", str(op_path),
                               "--out", str(tmp_path / "spectrum.csv"))
        assert code == 2
        assert err.startswith("error: line 5: expected 3 fields, got 2")


def test_module_entry_point(tmp_path):
    path = tmp_path / "n.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "rbfsurf", "nodes", "gen", "--n", "64",
         "--out", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert path.exists()


_KERNEL = (["--kernel"], "gaussian", ["gaussian", "iq", "imq"], False, None, "_StoreAction",
           "radial kernel family")
_EPS = (["--eps"], 2.0, None, False, "float", "_StoreAction", "shape parameter")
_OUT = (["--out"], None, None, True, None, "_StoreAction", None)
_NODES = (["--nodes"], None, None, True, None, "_StoreAction", None)
_FRAMES = (["--frames"], None, None, True, None, "_StoreAction",
           "frame CSV, analytic:sphere / analytic:schwarz-p, or estimate "
           "(fit from the nodes with --stencil and the kernel)")
_STENCIL_REQUIRED = (["--stencil"], None, None, True, "int", "_StoreAction", None)
_SIMULATION = {
    "snapshot_every": (["--snapshot-every"], None, None, False, "float", "_StoreAction", None),
    "stencil": (["--stencil"], 31, None, False, "int", "_StoreAction", None),
    "vtk": (["--vtk"], False, None, False, None, "_StoreTrueAction",
            "also write legacy VTK snapshots"),
}
_SWEEP = {
    "seed": (["--seed"], 0, None, False, "int", "_StoreAction", None),
    "method": (["--method"], "fibonacci", ["fibonacci", "repulsion"], False, None,
               "_StoreAction", None),
    "out": (["--out"], None, None, False, None, "_StoreAction", None),
    "json": (["--json"], False, None, False, None, "_StoreTrueAction", None),
}
_LADDER = {
    "n": (["--n"], "500,1000,2000,4000", None, False, "_parse_ints", "_StoreAction",
          "comma-separated node counts"),
    "stencil": (["--stencil"], "11,15,21,31", None, False, "_parse_ints", "_StoreAction",
                "comma-separated stencil sizes"),
}

# per subcommand and dest: option strings, default, choices, required, type,
# action class and help of every option but -h
OPTION_TABLE = {
    "nodes gen": {
        "n": (["--n"], None, None, True, "int", "_StoreAction", None),
        "method": _SWEEP["method"],
        "seed": _SWEEP["seed"],
        "out": _OUT,
    },
    "nodes project": {
        "surface": (["--surface"], None, None, True, None, "_StoreAction", None),
        "in": (["--in"], None, None, True, None, "_StoreAction", None),
        "out": _OUT,
        "drop_misses": (["--drop-misses"], False, None, False, None, "_StoreTrueAction",
                        "drop nodes whose ray misses the surface instead of failing"),
    },
    "geom estimate": {
        "nodes": _NODES, "stencil": _STENCIL_REQUIRED, "kernel": _KERNEL, "eps": _EPS,
        "out": _OUT,
    },
    "lbo build": {
        "nodes": _NODES, "frames": _FRAMES, "stencil": _STENCIL_REQUIRED, "kernel": _KERNEL,
        "eps": _EPS, "out": _OUT,
    },
    "spectrum": {
        "operator": (["--operator"], None, None, True, None, "_StoreAction", None),
        "kmax": (["--kmax"], 4, None, False, "int", "_StoreAction", None),
        "tol": (["--tol"], 0.5, None, False, "float", "_StoreAction", None),
        "out": _OUT,
    },
    "simulate turing": {
        "nodes": _NODES, "frames": _FRAMES,
        "preset": (["--preset"], None, ["spots", "stripes"], True, None, "_StoreAction", None),
        "seed": _SWEEP["seed"],
        "t_end": (["--t-end"], 2000.0, None, False, "float", "_StoreAction", None),
        **_SIMULATION, "kernel": _KERNEL, "eps": _EPS, "out": _OUT,
    },
    "simulate schaeffer": {
        "nodes": _NODES, "frames": _FRAMES,
        "stim_node": (["--stim-node"], 0, None, False, "int", "_StoreAction", None),
        "t_stim": (["--t-stim"], 5.0, None, False, "float", "_StoreAction", None),
        "delta": (["--delta"], None, None, False, "float", "_StoreAction",
                  "stimulus width (default 0.15 x geometry diameter)"),
        "probe": (["--probe"], 0, None, False, "int", "_StoreAction", None),
        "t_end": (["--t-end"], 600.0, None, False, "float", "_StoreAction", None),
        **_SIMULATION, "kernel": _KERNEL, "eps": _EPS, "out": _OUT,
    },
    "bench lbo-convergence": {
        **_LADDER, "kernel": _KERNEL, "eps": _EPS,
        "estimated_frames": (["--estimated-frames"], False, None, False, None,
                             "_StoreTrueAction", "use estimated frames instead of analytic ones"),
        **_SWEEP,
    },
    "bench frame-convergence": {**_LADDER, "kernel": _KERNEL, "eps": _EPS, **_SWEEP},
    "bench eps-sweep": {
        "n": (["--n"], 1000, None, False, "int", "_StoreAction", None),
        "stencil": (["--stencil"], 16, None, False, "int", "_StoreAction", None),
        "eps_grid": (["--eps-grid"], "1:8:29", None, False, "_parse_grid", "_StoreAction",
                     "comma list or start:stop:count range"),
        "kernel": _KERNEL,
        "estimated_frames": (["--estimated-frames"], False, None, False, None,
                             "_StoreTrueAction", None),
        "node": (["--node"], None, None, False, "int", "_StoreAction",
                 "report a single node's error instead of the max"),
        **_SWEEP,
    },
}

COMMAND_HELP = {
    "nodes": "generate or project node sets",
    "nodes gen": "generate quasi-uniform sphere nodes",
    "nodes project": "radially project nodes onto a level set",
    "geom": "estimate surface frames",
    "geom estimate": "normals and curvature from the point cloud",
    "lbo": "assemble the surface Laplacian",
    "lbo build": "build and save the sparse operator",
    "spectrum": "partial sparse spectrum (ARPACK) and stability report",
    "simulate": "time-integrate a reaction-diffusion model",
    "simulate turing": "activator-inhibitor patterns",
    "simulate schaeffer": "two-variable cardiac excitation",
    "bench": "accuracy sweeps on the unit sphere",
    "bench lbo-convergence": "operator error vs node count",
    "bench frame-convergence": "frame error vs node count",
    "bench eps-sweep": "operator error vs shape parameter",
}


def _walk(parser, path, options, helps):
    """Fill ``options`` with the option table of every leaf command under
    ``parser`` and ``helps`` with the help string of every command."""
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    sub = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    if not sub:
        options[path] = {
            a.dest: (a.option_strings, a.default, a.choices, a.required,
                     getattr(a.type, "__name__", a.type), type(a).__name__, a.help)
            for a in actions}
        return
    for choice in sub[0]._choices_actions:
        name = f"{path} {choice.dest}".strip()
        helps[name] = choice.help
        _walk(sub[0].choices[choice.dest], name, options, helps)


def test_option_table_is_pinned():
    """Every option of every command keeps its name, default, choices, type,
    action and help; the order in which a command lists them is free."""
    options, helps = {}, {}
    _walk(cli.build_parser(), "", options, helps)
    assert helps == COMMAND_HELP
    assert options.keys() == OPTION_TABLE.keys()
    for command, table in OPTION_TABLE.items():
        assert options[command] == table, command
