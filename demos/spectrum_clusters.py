"""Check the eigenvalue structure of the sphere operator.

The surface Laplacian on the unit sphere has eigenvalues -k(k+1) with
multiplicity 2k+1.  A well-behaved discretization reproduces the first
clusters and keeps every eigenvalue in the left half plane, which is what
makes explicit time stepping on the operator safe.  The sparse solver
returns a partial spectrum: every eigenvalue within the default disc
(radius 50 around 0.5, which holds the clusters k <= 6), the rightmost ones
and the largest in magnitude.  Writes it plus the cluster table to
spectrum.csv for plotting.
"""

from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.nodesets import gen_sphere_nodes, unit_sphere
from rbfsurf.spectrum import DISC_RADIUS, eigenvalues, save_spectrum_csv, stability_report
from rbfsurf.surface_geom import analytic_frames

nodes = gen_sphere_nodes(1000)
frames = analytic_frames(unit_sphere(), nodes.points)
op = assemble_operator(nodes, frames, 31, Kernel(KernelFamily.GAUSSIAN, 2.0))

eigs = eigenvalues(op)
report = stability_report(eigs, k_max=6, tol=0.5, real_part_tol=1e-6)

print(f"{len(eigs)} of {op.n} eigenvalues")
print(f"max real part {report.max_real_part:.3e}  (unstable: {report.unstable})")
print(f"{'k':>3} {'target':>8} {'found':>6} {'expected':>9}")
for row in report.cluster_table:
    mark = "" if row.matched == row.expected else "   <-- smeared"
    print(f"{row.k:3d} {row.target:8.1f} {row.matched:6d} {row.expected:9d}{mark}")

save_spectrum_csv(report, "spectrum.csv", op.n, DISC_RADIUS)
print("wrote spectrum.csv")
