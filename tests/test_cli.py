"""End-to-end runs of the command-line interface.

Each test drives ``main(argv)`` in-process and checks the artifacts on
disk; one smoke test goes through the installed module entry point.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

from rbfsurf import cli
from rbfsurf.cli import _parse_grid, _parse_ints, main
from rbfsurf.lbo import SparseOperator
from rbfsurf.nodesets import load_nodes, schwarz_p
from rbfsurf.surface_geom import load_frames


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
        assert op.stencil_size == 15

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
        SparseOperator(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)), 2).save(op_path)
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
        ("--kmax", "-3", "k_max must be nonnegative, got -3"),
    ])
    def test_spectrum_options_checked_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                       option, value, message):
        op_path = tmp_path / "op.txt"
        SparseOperator(sparse.diags(-np.arange(1.0, 7.0)).tocsr(), 1).save(op_path)
        monkeypatch.setattr(cli, "eigenvalues", lambda *a, **k: pytest.fail("solve started"))
        code, _, err = run_cli(capsys, "spectrum", "--operator", str(op_path), option, value,
                               "--out", str(tmp_path / "spec.csv"))
        assert code == 2
        assert message in err
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

    def test_frame_convergence_json(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "frame-convergence",
                               "--n", "100,200,400", "--stencil", "11", "--json")
        assert code == 0
        report = json.loads(out[: out.rindex("}") + 1])
        assert "11" in report["orders_normal"]
        assert "11" in report["orders_kappa"]


def test_module_entry_point(tmp_path):
    path = tmp_path / "n.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "rbfsurf", "nodes", "gen", "--n", "64",
         "--out", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert path.exists()
