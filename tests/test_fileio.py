"""The node, frame and operator text formats: one reader, one error, byte-stable writers.

The writer test keeps the per-line f-string writers the package used before
it wrote through ``np.savetxt`` as the byte oracle.
"""

import numpy as np
import pytest

from rbfsurf import FileFormatError, RbfSurfError
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import SparseOperator, assemble_operator
from rbfsurf.nodesets import NodeSet, gen_sphere_nodes, load_nodes, save_nodes, unit_sphere
from rbfsurf.pde import write_vtk_pointcloud
from rbfsurf.spectrum import eigenvalues, save_spectrum_csv, stability_report
from rbfsurf.surface_geom import analytic_frames, load_frames, save_frames

from conftest import DATA_DIR

LOADERS = {"nodes": load_nodes, "frames": load_frames, "operator": SparseOperator.load}
HEADER = "x,y,z,nx,ny,nz,kappa\n"
OPERATOR_ROWS = "0 0 1.0\n0 1 -1.0\n1 0 1.0\n1 1 -1.0\n"


@pytest.mark.parametrize("kind, text, line_no", [
    ("operator", "2 2\n0 0 1.0\n0 1\n1 0 1.0\n1 1 -1.0\n", 3),
    ("operator", "2 2\n0 0 1.0\n0 one -1.0\n1 0 1.0\n1 1 -1.0\n", 3),
    ("operator", "2 2\n0 0 1.0\n0 1.5 -1.0\n1 0 1.0\n1 1 -1.0\n", 3),
    ("operator", "2 2 2\n" + OPERATOR_ROWS, 1),
    ("operator", "# comment\n\n2 2\n0 0 1.0\n0 1 -1.0 7\n1 0 1.0\n1 1 -1.0\n", 5),
    ("frames", HEADER + "0,0,1,0,0\n", 2),
    ("frames", HEADER + "0,0,1,0,0,1,2\n1,0,0,1,0,abc,2\n", 3),
    ("frames", "0,0,1,0,0,1,2\n1,0,0,1,0,0,2\n", 1),
    ("nodes", "# label\n\n0 0 1\n0 0 x\n1 0 0\n0 1 0\n", 4),
], ids=["operator-two-fields", "operator-non-numeric", "operator-fractional-index",
        "operator-three-field-header", "operator-after-comments", "frame-five-fields",
        "frame-non-numeric", "frame-no-header", "nodes-after-comments"])
def test_malformed_line_is_named(tmp_path, kind, text, line_no):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError) as err:
        LOADERS[kind](path)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")
    assert isinstance(err.value, ValueError) and isinstance(err.value, RbfSurfError)


def test_comments_and_blanks_skipped_in_every_format(tmp_path):
    nodes = gen_sphere_nodes(20)
    frames = analytic_frames(unit_sphere(), nodes.points)
    save_frames(nodes, frames, tmp_path / "frames.csv")
    (tmp_path / "op.txt").write_text("# operator\n\n2 2\n" + OPERATOR_ROWS.replace("\n", "\n\n"))
    text = (tmp_path / "frames.csv").read_text()
    (tmp_path / "frames.csv").write_text("# frames\n\n" + text.replace("\n", "\n# row\n", 3))
    points, back = load_frames(tmp_path / "frames.csv")
    assert np.array_equal(points, nodes.points)
    assert np.array_equal(back.normals, frames.normals)
    op = SparseOperator.load(tmp_path / "op.txt")
    assert np.array_equal(op.matrix.toarray(), [[1.0, -1.0], [1.0, -1.0]])


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.txt")), ids=lambda p: p.name)
def test_shipped_node_files_load_exactly(path):
    oracle = [[float(tok) for tok in line.split()] for line in path.read_text().splitlines()
              if line.strip() and not line.strip().startswith("#")]
    assert np.array_equal(load_nodes(path).points, np.array(oracle))


def old_save_nodes(nodes, path):
    header = f"# {nodes.label}\n" if nodes.label else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for p in nodes.points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def old_save_operator(op, path):
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{op.n} {np.diff(op.matrix.indptr)[0]}\n")
        for r, c, w in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {w:.17g}\n")


def old_write_vtk_pointcloud(path, points, scalars):
    n = len(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("rbfsurf point cloud\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        for p in points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        fh.write(f"VERTICES {n} {2 * n}\n")
        for i in range(n):
            fh.write(f"1 {i}\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, values in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for val in np.asarray(values, dtype=float):
                fh.write(f"{val:.17g}\n")


def old_eigenvalue_rows(report):
    return "re,im\n" + "".join(f"{lam.real:.17g},{lam.imag:.17g}\n" for lam in report.eigenvalues)


def test_writers_match_per_line_oracle(tmp_path):
    nodes = gen_sphere_nodes(200)
    for label in (nodes.label, None):
        labelled = NodeSet(nodes.points, label=label)
        save_nodes(labelled, tmp_path / "new.txt")
        old_save_nodes(labelled, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    op = assemble_operator(nodes, analytic_frames(unit_sphere(), nodes.points), 11,
                           Kernel(KernelFamily.GAUSSIAN, 2.0))
    op.save(tmp_path / "new_op.txt")
    old_save_operator(op, tmp_path / "old_op.txt")
    assert (tmp_path / "new_op.txt").read_bytes() == (tmp_path / "old_op.txt").read_bytes()

    scalars = {"tiny": np.random.default_rng(0).normal(size=200) * 1e-300,
               "negative": -np.linspace(0.5, 3.0, 200)}
    write_vtk_pointcloud(tmp_path / "new.vtk", nodes.points, scalars)
    old_write_vtk_pointcloud(tmp_path / "old.vtk", nodes.points, scalars)
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()

    report = stability_report(eigenvalues(op, radius=10.0), k_max=2, tol=0.5)
    save_spectrum_csv(report, tmp_path / "spectrum.csv", op.n, 10.0)
    assert (tmp_path / "spectrum.csv").read_text().startswith(old_eigenvalue_rows(report))
