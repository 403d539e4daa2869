"""The three benchmark workloads, driven through the public rbfsurf API.

The seed picks a random rotation of each workload's input node set.  A
rotation keeps every distance, so local conditioning and the amount of
work stay the same while every coordinate changes.  Each iteration runs
``setup`` (point cloud to assembled operator) and ``solve`` (everything
after), and ``solve`` ends by checking the outputs against the acceptance
suite's thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.spatial.transform import Rotation

from rbfsurf import (
    Kernel,
    KernelFamily,
    NodeSet,
    SchaefferModel,
    TuringModel,
    analytic_frames,
    assemble_operator,
    eigenvalues,
    estimate_frames,
    fit_order,
    gen_sphere_nodes,
    lbo_error_sweep,
    load_nodes,
    project_radial,
    reference_field,
    reference_lbo,
    run_schaeffer,
    run_turing,
    schwarz_p,
    stability_report,
    unit_sphere,
)

M = 31
GAUSS2 = Kernel(KernelFamily.GAUSSIAN, 2.0)
# the projected Schwarz set is about twice as dense as the sphere sets;
# eps=6 is the sharpness the acceptance suite uses there
GAUSS6 = Kernel(KernelFamily.GAUSSIAN, 6.0)


@dataclass
class Built:
    """One assembled operator and what it was built from."""

    nodes: NodeSet
    frames: object
    op: object
    estimated: bool


@dataclass
class Outcome:
    """What a solve produced.

    ``lbo_err`` is the end-to-end accuracy figure; ``checks`` pairs each
    check's verdict with its description; ``layer`` holds the
    per-layer figures read off the outputs; ``reaction`` is the model,
    time and state used to time one reaction evaluation.
    """

    lbo_err: float
    checks: list
    layer: dict = field(default_factory=dict)
    reaction: tuple = None


def _rotation(seed):
    """The seed's random rotation as a 3 x 3 matrix (applied as ``points @ R.T``)."""
    return Rotation.random(rng=np.random.default_rng(seed)).as_matrix()


def _cube_rotation(seed):
    """The seed's pick among the 24 rotations of the cube.

    They map the Schwarz P surface onto itself, so the projected node set is
    an exactly rotated copy of the unrotated one.  A generic rotation would
    project to a different node set instead.
    """
    signed_permutations = (np.diag(signs)[:, perm]
                           for perm in itertools.permutations(range(3))
                           for signs in itertools.product((1.0, -1.0), repeat=3))
    rotations = [r for r in signed_permutations if np.linalg.det(r) > 0]
    return rotations[np.random.default_rng(seed).integers(len(rotations))]


def _sphere_lbo_err(op, points, rotation):
    """Max nodal error of ``op.apply`` on the reference field.

    The field is evaluated in the unrotated frame.  The surface Laplacian
    commutes with rotations of the sphere, so the figure does not depend on
    the seed's rotation beyond roundoff.
    """
    base = points @ rotation
    return float(np.abs(op.apply(reference_field(base)) - reference_lbo(base)).max())


class SphereSweep:
    """Accuracy sweep over the repulsion sphere sets N = 1000, 2000, 4000."""

    name = "sphere-sweep"
    ladder = (1000, 2000, 4000)
    kernel = GAUSS2

    def __init__(self, data_dir, seed):
        self.rotation = _rotation(seed)
        self.points = [load_nodes(data_dir / f"sphere_repulsion_{n}.txt").points @ self.rotation.T
                       for n in self.ladder]

    def setup(self, tr):
        built = []
        for points in self.points:
            with tr.span("nodesets.nodeset"):
                nodes = NodeSet(points)
            with tr.span("surface_geom.frames"):
                frames = estimate_frames(nodes, M, self.kernel)
            with tr.span("lbo.assemble"):
                op = assemble_operator(nodes, frames, M, self.kernel)
            built.append(Built(nodes, frames, op, estimated=True))
        return built

    def solve(self, tr, built):
        errors, rows = [], []
        for b in built:
            with tr.span("lbo.ref_err"):
                errors.append(_sphere_lbo_err(b.op, b.nodes.points, self.rotation))
            with tr.span("experiments.sweep"):
                # the sweep's reference field is fixed in space, so it runs on
                # the nodes rotated back: the fitted order then matches the
                # acceptance suite's orientation and does not depend on the seed
                unrotated = NodeSet(b.nodes.points @ self.rotation)
                rows += lbo_error_sweep(unit_sphere(), len(b.nodes), M, [self.kernel.epsilon],
                                        nodes=unrotated).rows
        with tr.span("experiments.fit_order"):
            order = fit_order(rows)[M]
        # on the unit sphere the exact outward normal is the position itself
        # and the exact curvature div(n) is 2
        normal_err = [float(np.abs(b.frames.normals - b.nodes.points).max()) for b in built]
        kappa_err = [float(np.abs(b.frames.curvatures - 2.0).max()) for b in built]
        failures = sum(row.failures for row in rows)
        checks = [
            (normal_err[0] <= 1e-2, f"E_n = {normal_err[0]:.2e} at N=1000 (tol 1e-02)"),
            (kappa_err[0] <= 1e-1, f"E_kappa = {kappa_err[0]:.2e} at N=1000 (tol 1e-01)"),
            (abs(order - 5.4) <= 0.8, f"lbo order {order:.2f} within 0.8 of 5.4"),
            (max(errors) <= 1e-2, f"operator errors {max(errors):.2e} (tol 1e-02)"),
            (failures == 0, f"{failures} sweep solves failed"),
        ]
        layer = {"surface_geom.normal_err": normal_err[-1],
                 "surface_geom.kappa_err": kappa_err[-1],
                 "experiments.lbo_order": order,
                 "linalg.singular": failures}
        return Outcome(errors[-1], checks, layer)


class TuringSchwarz:
    """Stripes on the repulsion set projected onto the Schwarz P surface."""

    name = "turing-schwarz"
    kernel = GAUSS6

    def __init__(self, data_dir, seed):
        self.points = load_nodes(data_dir / "sphere_repulsion_1800.txt").points @ _cube_rotation(seed).T

    def setup(self, tr):
        surface = schwarz_p()
        with tr.span("nodesets.nodeset"):
            sphere = NodeSet(self.points)
        with tr.span("nodesets.project"):
            nodes = project_radial(sphere, surface, drop_misses=True)
        with tr.span("surface_geom.analytic"):
            frames = analytic_frames(surface, nodes.points)
        with tr.span("lbo.assemble"):
            op = assemble_operator(nodes, frames, M, self.kernel)
        return [Built(nodes, frames, op, estimated=False)]

    def solve(self, tr, built):
        b, = built
        with tr.span("lbo.ref_err"):
            # the surface Laplacian of the coordinate functions is -kappa n
            # on any surface, with kappa = div(n)
            lap = b.op.apply(b.nodes.points.T)
            err = float(np.abs(lap + b.frames.curvatures * b.frames.normals.T).max())
        with tr.span("pde.integrate"):
            # the initial perturbation keeps the acceptance suite's seed: the
            # steady time depends on it (296-853 over seeds 1-3) and some
            # perturbations diverge (seed 4)
            run = run_turing(b.nodes, b.frames, preset="stripes", seed=0, t_end=4000.0,
                             op=tr.operator(b.op), steady_tol=1e-3, steady_window=10.0)
        u = run.final.fields[0]
        skew, kurt, std = stats.skew(u), stats.kurtosis(u), u.std()
        checks = [
            (1500 <= len(b.nodes) <= 1800, f"{len(b.nodes)} projected nodes"),
            (run.steady_time is not None, f"steady state at t={run.steady_time}"),
            (run.final_rate_inf < 1e-3, f"final max|du/dt| = {run.final_rate_inf:.1e} (tol 1e-03)"),
            (abs(skew) < 0.5, f"stripes skew {skew:.2f} (|skew| < 0.5)"),
            (kurt < -0.5, f"stripes kurtosis {kurt:.2f} (< -0.5)"),
            (0.05 < std < 0.5, f"stripes std {std:.3f} in (0.05, 0.5)"),
        ]
        reaction = (TuringModel(run.params), run.final.time, run.final.fields)
        return Outcome(err, checks, reaction=reaction)


class MembraneSphere:
    """Membrane wave and spectrum on the Fibonacci N = 1000 sphere."""

    name = "membrane-sphere"
    kernel = GAUSS2

    def __init__(self, data_dir, seed):
        self.rotation = _rotation(seed)
        self.points = gen_sphere_nodes(1000).points @ self.rotation.T

    def setup(self, tr):
        with tr.span("nodesets.nodeset"):
            nodes = NodeSet(self.points)
        with tr.span("surface_geom.analytic"):
            frames = analytic_frames(unit_sphere(), nodes.points)
        with tr.span("lbo.assemble"):
            op = assemble_operator(nodes, frames, M, self.kernel)
        return [Built(nodes, frames, op, estimated=False)]

    def solve(self, tr, built):
        b, = built
        with tr.span("lbo.ref_err"):
            err = _sphere_lbo_err(b.op, b.nodes.points, self.rotation)
        with tr.span("spectrum.eig"):
            report = stability_report(eigenvalues(b.op), k_max=4, tol=0.5, real_part_tol=1e-6)
        far = int(np.argmax(np.linalg.norm(b.nodes.points - b.nodes.points[0], axis=1)))
        with tr.span("pde.integrate"):
            run = run_schaeffer(b.nodes, b.frames, t_end=600.0, probe=[0, far], stim_node=0,
                                op=tr.operator(b.op))
        counts = [row.matched for row in report.cluster_table]
        v_stim = run.probe_v[:, 0]
        t_stim, t_far = run.activation_time(0, 0.5), run.activation_time(1, 0.5)
        gate = np.concatenate([run.probe_h.ravel(), run.final.fields[1]])
        checks = [
            (report.max_real_part <= 1e-6, f"max Re = {report.max_real_part:.2e} (tol 1e-06)"),
            (counts == [1, 3, 5, 7, 9], f"cluster multiplicities {counts}"),
            (v_stim.max() > 0.9, f"upstroke peak v = {v_stim.max():.2f} (> 0.9)"),
            (v_stim[-1] < 0.05, f"v = {v_stim[-1]:.1e} at 600 ms (< 0.05)"),
            (gate.min() >= -1e-9 and gate.max() <= 1 + 1e-9,
             f"gate range {gate.min():.3f}..{gate.max():.3f} within [0, 1]"),
            (t_stim is not None and t_far is not None and 0 < t_stim < t_far,
             f"activation {t_stim} ms at the stimulus, {t_far} ms at the antipode"),
        ]
        # the probe series has one row per accepted step after the initial state
        layer = {"pde.steps_accepted": len(run.probe_t) - 1}
        model = SchaefferModel(run.params, points=b.nodes.points, stimulus=run.stimulus)
        return Outcome(err, checks, layer, reaction=(model, run.final.time, run.final.fields))


WORKLOADS = {w.name: w for w in (SphereSweep, TuringSchwarz, MembraneSphere)}
