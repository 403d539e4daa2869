"""Grow Turing patterns on the Schwarz primitive minimal surface.

Pipeline: the shipped seed-0 repulsion nodes on the unit sphere
(tests/data/sphere_repulsion_1800.txt, the set the acceptance suite runs
the same patterns on), radial projection onto the
implicit surface cos(2 pi x) + cos(2 pi y) + cos(2 pi z) = 0 (rays along
the coordinate axes miss it, so a few percent of the nodes are dropped),
exact frames from the implicit form, operator assembly, then the
activator-inhibitor system integrated from a small random perturbation
until the pattern freezes.  Writes VTK point clouds you can drop into
ParaView, one per preset.

Note the shape parameter: the projected set is denser than the sphere
sets, and too flat a kernel here produces an operator with growing modes.
eps=6 is the smallest integer that keeps the spectrum in the left half
plane at this density, on this node set.  It does not on every set: the
open ends of the projected surface are ragged, and for 3 of the 10 seeds
of gen_sphere_nodes(1800, method="repulsion") the eps=6 operator has a
growing mode (+257 at seed 0) at the tube openings.
"""

import os
import time
from pathlib import Path

import numpy as np

from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.nodesets import load_nodes, project_radial, schwarz_p
from rbfsurf.pde import run_turing, write_vtk_pointcloud
from rbfsurf.surface_geom import analytic_frames

outdir = "turing_out"
os.makedirs(outdir, exist_ok=True)

sphere = load_nodes(Path(__file__).parents[1] / "tests" / "data" / "sphere_repulsion_1800.txt")
surface = schwarz_p()
nodes = project_radial(sphere, surface, drop_misses=True)
print(f"{len(nodes)} nodes landed on the surface")

frames = analytic_frames(surface, nodes.points)
op = assemble_operator(nodes, frames, 31, Kernel(KernelFamily.GAUSSIAN, 6.0))

for preset in ("spots", "stripes"):
    t0 = time.perf_counter()
    run = run_turing(nodes, frames, preset=preset, seed=0, t_end=4000.0,
                     op=op, steady_tol=1e-3, steady_window=10.0)
    u = run.final.fields[0]
    print(f"{preset}: steady at t={run.steady_time:.0f} "
          f"({time.perf_counter() - t0:.0f} s wall), "
          f"u in [{u.min():.2f}, {u.max():.2f}], std {u.std():.2f}")
    path = os.path.join(outdir, f"{preset}.vtk")
    write_vtk_pointcloud(path, nodes.points, {"u": u})
    print(f"  wrote {path}")
