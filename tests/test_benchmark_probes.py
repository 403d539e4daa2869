"""The benchmark's per-layer probes run against the package.

``test_benchmark_contract.py`` only binds the benchmark's calls to their
signatures; a kept name that binds but fails when called would show only in
a benchmark run.  Here ``perfbench/probes.py`` runs on one small operator.
The directory is put on ``sys.path`` for reading only: no bytecode is written
there.
"""

import importlib
import math
import sys
from pathlib import Path

from conftest import repulsion_nodes
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.surface_geom import estimate_frames

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probe_layers_run_on_estimated_frames(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        probes = importlib.import_module("probes")
        workloads = importlib.import_module("workloads")
        kernel = Kernel(KernelFamily.GAUSSIAN, 2.0)
        nodes = repulsion_nodes(500)
        frames = estimate_frames(nodes, workloads.M, kernel)
        op = assemble_operator(nodes, frames, workloads.M, kernel)
        built = [workloads.Built(nodes, frames, op, estimated=True)]
        metrics, _ = probes.probe_layers(built, kernel, None)
    finally:
        for name in ("probes", "workloads"):
            sys.modules.pop(name, None)
    for name in ("surface_geom.fit_s", "lbo.weights_s", "linalg.cond_max"):
        assert math.isfinite(metrics[name]) and metrics[name] > 0, (name, metrics[name])
