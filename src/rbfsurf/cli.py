"""Command-line front end: node generation, frame estimation, operator
assembly, spectra, simulations, and benchmark sweeps."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import experiments, nodesets, pde
from .errors import RbfSurfError
from .kernels import Kernel, KernelFamily
from .lbo import SparseOperator, assemble_operator
from .nodesets import (
    gen_sphere_nodes,
    load_nodes,
    project_radial,
    save_nodes,
    surface_by_name,
    unit_sphere,
)
from .spectrum import (SHIFT, check_cluster_options, eigenvalues, save_spectrum_csv,
                       stability_report)
from .surface_geom import analytic_frames, estimate_frames, load_frames, save_frames


def _parse_grid(text):
    """Argparse type of a float grid of at least one value: 'a,b,c' literal
    values or 'start:stop:count' for linspace."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            grid = np.linspace(float(start), float(stop), int(count))
        else:
            grid = np.array([float(tok) for tok in text.split(",") if tok])
    except ValueError:
        grid = []
    if not len(grid):
        raise argparse.ArgumentTypeError(
            f"expected a comma list or start:stop:count with count >= 1, got {text!r}")
    return grid


def _parse_ints(text):
    """Argparse type of a comma list of at least one integer."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _inputs(args, node_ids=()):
    """Nodes, kernel and frames of a pipeline command. The frames come from
    --frames: a frame CSV path, 'analytic:<surface>' or 'estimate'; ``node_ids``
    are checked against the nodes before any frame is read or fitted."""
    nodes = load_nodes(args.nodes)
    nodesets.check_node_ids(nodes, node_ids)
    kernel = Kernel(KernelFamily(args.kernel), args.eps)
    if args.frames.startswith("analytic:"):
        surface = surface_by_name(args.frames.split(":", 1)[1])
        return nodes, kernel, analytic_frames(surface, nodes.points)
    if args.frames == "estimate":
        return nodes, kernel, estimate_frames(nodes, args.stencil, kernel)
    points, frames = load_frames(args.frames)
    if len(points) != len(nodes):
        raise RbfSurfError(
            f"frame file covers {len(points)} nodes but node set has {len(nodes)}")
    if np.abs(points - nodes.points).max() > 1e-8:
        raise RbfSurfError("frame file positions do not match the node file")
    return nodes, kernel, frames


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_nodes_gen(args):
    nodes = gen_sphere_nodes(args.n, method=args.method, seed=args.seed)
    save_nodes(nodes, args.out)
    print(f"wrote {len(nodes)} nodes to {args.out}")


def _cmd_nodes_project(args):
    nodes = load_nodes(getattr(args, "in"))
    surface = surface_by_name(args.surface)
    projected = project_radial(nodes, surface, drop_misses=args.drop_misses)
    save_nodes(projected, args.out)
    print(f"wrote {len(projected)} projected nodes to {args.out}")


def _cmd_geom_estimate(args):
    nodes, _, frames = _inputs(args)  # the parser fixes --frames to 'estimate'
    save_frames(nodes, frames, args.out)
    print(f"wrote frames for {len(nodes)} nodes to {args.out}")


def _cmd_lbo_build(args):
    nodes, kernel, frames = _inputs(args)
    op = assemble_operator(nodes, frames, args.stencil, kernel)
    op.save(args.out)
    print(f"wrote {op.n}x{op.n} operator (M={args.stencil}) to {args.out}")


def _cmd_spectrum(args):
    check_cluster_options(args.kmax, args.tol)  # before the load and the ARPACK solve
    op = SparseOperator.load(args.operator)
    # the disc reaches the far corner of the last cluster's box (real part within
    # tol of -kmax(kmax+1), imaginary part within tol), so every cluster is complete
    radius = float(np.hypot(args.kmax * (args.kmax + 1) + args.tol + SHIFT, args.tol))
    report = stability_report(eigenvalues(op, radius=radius), k_max=args.kmax, tol=args.tol)
    save_spectrum_csv(report, args.out, op.n, radius)
    print(f"max real part {report.max_real_part:.3e} "
          f"({'unstable' if report.unstable else 'stable'})")
    for row in report.cluster_table:
        print(f"k={row.k} target={row.target:g} matched={row.matched} expected={row.expected}")


def _cmd_simulate_turing(args):
    pde._check_span(args.t_end, args.snapshot_every)  # integrate's span rule, before any frame fit
    nodes, kernel, frames = _inputs(args)
    op = assemble_operator(nodes, frames, args.stencil, kernel)
    run = pde.run_turing(nodes, frames, preset=args.preset, seed=args.seed, t_end=args.t_end,
                         op=op, snapshot_every=args.snapshot_every)
    pde.save_snapshots(nodes, run.states, args.out, field_names=("u", "v"), vtk=args.vtk)
    steady = f"steady at t={run.steady_time:g}" if run.steady_time else "not steady"
    print(f"{len(run.states)} snapshots to {args.out}; {steady}; "
          f"final max|du/dt|={run.final_rate_inf:.3e}")


def _cmd_simulate_schaeffer(args):
    # integrate's span rule, then run_schaeffer's stimulus check on stand-ins, before _inputs
    pde._check_span(args.t_end, args.snapshot_every)
    pde.StimulusSpec(args.t_stim, np.zeros(3), 1.0 if args.delta is None else args.delta)
    nodes, kernel, frames = _inputs(args, [args.probe, args.stim_node])
    op = assemble_operator(nodes, frames, args.stencil, kernel)
    run = pde.run_schaeffer(nodes, frames, t_end=args.t_end, probe=args.probe, op=op,
                            stim_node=args.stim_node, t_stim=args.t_stim, delta=args.delta,
                            snapshot_every=args.snapshot_every)
    pde.save_snapshots(nodes, run.states, args.out, field_names=("v", "h"), vtk=args.vtk)
    probe_path = f"{args.out}/probe_{args.probe}.csv"
    pde.save_probe_csv(probe_path, run)
    print(f"{len(run.states)} snapshots to {args.out}; probe series to {probe_path}")


def _emit_table(table, orders, args):
    if args.out:
        experiments.save_table_csv(table, args.out, orders)
    if args.json:
        print(json.dumps(experiments.table_report(table, orders), indent=2))
    elif orders:
        for m, mu in sorted(orders.items()):
            print(f"M={m}: mu={mu:.3f}")


def _cmd_bench_lbo_convergence(args):
    table = experiments.lbo_error_sweep(
        unit_sphere(), args.n, args.stencil, [args.eps],
        use_analytic_frames=not args.estimated_frames,
        family=KernelFamily(args.kernel), seed=args.seed, method=args.method)
    _emit_table(table, experiments.fit_order(table.rows), args)


def _cmd_bench_frame_convergence(args):
    normal_table, curvature_table = experiments.frame_error_sweep(
        args.n, args.stencil, [args.eps],
        family=KernelFamily(args.kernel), seed=args.seed, method=args.method)
    normal_orders = experiments.fit_order(normal_table.rows)
    curvature_orders = experiments.fit_order(curvature_table.rows)
    rows = [[a.n, a.m, a.eps, a.max_error, b.max_error]
            for a, b in zip(normal_table.rows, curvature_table.rows)]
    if args.out:
        np.savetxt(args.out, np.array(rows), fmt=["%d", "%d", "%.17g", "%.17g", "%.17g"],
                   delimiter=",", header="n,m,eps,e_normal,e_kappa", comments="")
    if args.json:
        print(json.dumps({
            "columns": ["n", "m", "eps", "e_normal", "e_kappa"],
            "rows": rows,
            "orders_normal": {str(m): mu for m, mu in normal_orders.items()},
            "orders_kappa": {str(m): mu for m, mu in curvature_orders.items()},
        }, indent=2))
    else:
        for m in sorted(normal_orders):
            print(f"M={m}: mu_normal={normal_orders[m]:.3f} mu_kappa={curvature_orders[m]:.3f}")


def _cmd_bench_eps_sweep(args):
    table = experiments.lbo_error_sweep(
        unit_sphere(), args.n, args.stencil, args.eps_grid,
        use_analytic_frames=not args.estimated_frames,
        family=KernelFamily(args.kernel),
        node=args.node, seed=args.seed, method=args.method)
    _emit_table(table, None, args)
    if not args.json:
        for row in table.rows:
            print(f"eps={row.eps:g} max_error={row.max_error:.3e} cond={row.max_cond:.3e}")


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser():
    # each option group shared by several commands is declared once, in a
    # parent parser that the commands list
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--kernel", choices=[family.value for family in KernelFamily],
                        default="gaussian", help="radial kernel family")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, default=2.0, help="shape parameter")
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--nodes", required=True)
    inputs.add_argument("--frames", required=True,
                        help="frame CSV, analytic:sphere / analytic:schwarz-p, or estimate "
                             "(fit from the nodes with --stencil and the kernel)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    simulation = argparse.ArgumentParser(add_help=False)
    simulation.add_argument("--snapshot-every", type=float, default=None)
    simulation.add_argument("--stencil", type=int, default=31)
    simulation.add_argument("--vtk", action="store_true", help="also write legacy VTK snapshots")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--json", action="store_true")
    ladder = argparse.ArgumentParser(add_help=False)
    ladder.add_argument("--n", type=_parse_ints, default="500,1000,2000,4000",
                        help="comma-separated node counts")
    ladder.add_argument("--stencil", type=_parse_ints, default="11,15,21,31",
                        help="comma-separated stencil sizes")

    parser = argparse.ArgumentParser(
        prog="rbfsurf",
        description="surface differential operators and reaction-diffusion "
                    "solvers on point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    nodes = sub.add_parser("nodes", help="generate or project node sets")
    nodes_sub = nodes.add_subparsers(dest="subcommand", required=True)
    gen = nodes_sub.add_parser("gen", parents=[out], help="generate quasi-uniform sphere nodes")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_nodes_gen)
    proj = nodes_sub.add_parser("project", parents=[out],
                                help="radially project nodes onto a level set")
    proj.add_argument("--surface", required=True)
    proj.add_argument("--in", required=True)
    proj.add_argument("--drop-misses", action="store_true",
                      help="drop nodes whose ray misses the surface instead of failing")
    proj.set_defaults(func=_cmd_nodes_project)

    geom = sub.add_parser("geom", help="estimate surface frames")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)
    est = geom_sub.add_parser("estimate", parents=[kernel, eps, out],
                              help="normals and curvature from the point cloud")
    est.add_argument("--nodes", required=True)
    est.add_argument("--stencil", type=int, required=True)
    est.set_defaults(func=_cmd_geom_estimate, frames="estimate")

    lbo = sub.add_parser("lbo", help="assemble the surface Laplacian")
    lbo_sub = lbo.add_subparsers(dest="subcommand", required=True)
    build = lbo_sub.add_parser("build", parents=[inputs, kernel, eps, out],
                               help="build and save the sparse operator")
    build.add_argument("--stencil", type=int, required=True)
    build.set_defaults(func=_cmd_lbo_build)

    spec = sub.add_parser("spectrum", parents=[out],
                          help="partial sparse spectrum (ARPACK) and stability report")
    spec.add_argument("--operator", required=True)
    spec.add_argument("--kmax", type=int, default=4)
    spec.add_argument("--tol", type=float, default=0.5)
    spec.set_defaults(func=_cmd_spectrum)

    sim = sub.add_parser("simulate", help="time-integrate a reaction-diffusion model")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    simulate = [inputs, simulation, kernel, eps, out]
    tur = sim_sub.add_parser("turing", parents=simulate, help="activator-inhibitor patterns")
    tur.add_argument("--preset", choices=list(pde.TURING_PRESETS), required=True)
    tur.add_argument("--seed", type=int, default=0)
    tur.add_argument("--t-end", type=float, default=2000.0)
    tur.set_defaults(func=_cmd_simulate_turing)
    sch = sim_sub.add_parser("schaeffer", parents=simulate, help="two-variable cardiac excitation")
    sch.add_argument("--stim-node", type=int, default=0)
    sch.add_argument("--t-stim", type=float, default=5.0)
    sch.add_argument("--delta", type=float, default=None,
                     help="stimulus width (default 0.15 x geometry diameter)")
    sch.add_argument("--probe", type=int, default=0)
    sch.add_argument("--t-end", type=float, default=600.0)
    sch.set_defaults(func=_cmd_simulate_schaeffer)

    bench = sub.add_parser("bench", help="accuracy sweeps on the unit sphere")
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)
    conv = bench_sub.add_parser("lbo-convergence", parents=[ladder, kernel, eps, sweep],
                                help="operator error vs node count")
    conv.add_argument("--estimated-frames", action="store_true",
                      help="use estimated frames instead of analytic ones")
    conv.set_defaults(func=_cmd_bench_lbo_convergence)
    fconv = bench_sub.add_parser("frame-convergence", parents=[ladder, kernel, eps, sweep],
                                 help="frame error vs node count")
    fconv.set_defaults(func=_cmd_bench_frame_convergence)
    esweep = bench_sub.add_parser("eps-sweep", parents=[kernel, sweep],
                                  help="operator error vs shape parameter")
    esweep.add_argument("--n", type=int, default=1000)
    esweep.add_argument("--stencil", type=int, default=16)
    esweep.add_argument("--eps-grid", type=_parse_grid, default="1:8:29",
                        help="comma list or start:stop:count range")
    esweep.add_argument("--estimated-frames", action="store_true")
    esweep.add_argument("--node", type=int, default=None,
                        help="report a single node's error instead of the max")
    esweep.set_defaults(func=_cmd_bench_eps_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.func(args)
    except (RbfSurfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"done in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
