"""Build a surface-Laplacian operator on a sphere point cloud and measure it.

Walks the basic pipeline end to end: generate nodes, attach exact
normals/curvature, assemble the sparse differentiation matrix, and apply
it to a field whose surface Laplacian is known in closed form.  Then
sweeps the shape parameter to show the accuracy/conditioning trade-off:
flatter kernels are more accurate until the local systems degenerate.
"""

import numpy as np

from rbfsurf.experiments import lbo_error_sweep, reference_field, reference_lbo
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.nodesets import gen_sphere_nodes, unit_sphere
from rbfsurf.surface_geom import analytic_frames

N, M = 1000, 16

nodes = gen_sphere_nodes(N)
frames = analytic_frames(unit_sphere(), nodes.points)

op = assemble_operator(nodes, frames, M, Kernel(KernelFamily.GAUSSIAN, 2.0))
approx = op.apply(reference_field(nodes.points))
exact = reference_lbo(nodes.points)
print(f"N={N}, M={M}, eps=2: max nodal error {np.abs(approx - exact).max():.3e}")

print("\nshape-parameter sweep (same nodes, analytic frames):")
print(f"{'eps':>8} {'max error':>12} {'max cond':>12}")
table = lbo_error_sweep(unit_sphere(), N, M, np.geomspace(0.25, 8.0, 9))
for row in table.rows:
    print(f"{row.eps:8.3f} {row.max_error:12.3e} {row.max_cond:12.3e}")
print("\nthe error keeps improving as eps shrinks until conditioning bites;")
print("past that point the weights are noise even though the solve succeeds")
