"""Command-line front end: node generation, frame estimation, operator
assembly, spectra, simulations, and benchmark sweeps."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import experiments, pde
from .errors import RbfSurfError
from .kernels import Kernel, KernelFamily
from .lbo import SparseOperator, assemble_operator
from .nodesets import (
    NodeSet,
    check_node_ids,
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
    """Float grid: 'a,b,c' literal values or 'start:stop:count' for linspace."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range grids use start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return np.linspace(start, stop, count)
    return np.array([float(tok) for tok in text.split(",") if tok])


def _parse_ints(text):
    return [int(tok) for tok in text.split(",") if tok]


def _kernel_from_args(args):
    return Kernel.from_name(args.kernel, args.eps)


def _add_kernel_options(parser, eps=True):
    parser.add_argument("--kernel", choices=[family.value for family in KernelFamily],
                        default="gaussian", help="radial kernel family")
    if eps:
        parser.add_argument("--eps", type=float, default=2.0, help="shape parameter")


def _frames_for(nodes, spec_text, m, kernel):
    """Frame source: 'analytic:<surface>' or a frame CSV path."""
    if spec_text.startswith("analytic:"):
        surface = surface_by_name(spec_text.split(":", 1)[1])
        return analytic_frames(surface, nodes.points)
    if spec_text == "estimate":
        return estimate_frames(nodes, m, kernel)
    points, frames = load_frames(spec_text)
    if len(points) != len(nodes):
        raise RbfSurfError(
            f"frame file covers {len(points)} nodes but node set has {len(nodes)}")
    if np.abs(points - nodes.points).max() > 1e-8:
        raise RbfSurfError("frame file positions do not match the node file")
    return frames


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
    nodes = load_nodes(args.nodes)
    frames = estimate_frames(nodes, args.stencil, _kernel_from_args(args))
    save_frames(nodes, frames, args.out)
    print(f"wrote frames for {len(nodes)} nodes to {args.out}")


def _cmd_lbo_build(args):
    nodes = load_nodes(args.nodes)
    kernel = _kernel_from_args(args)
    frames = _frames_for(nodes, args.frames, args.stencil, kernel)
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
    nodes = load_nodes(args.nodes)
    kernel = _kernel_from_args(args)
    frames = _frames_for(nodes, args.frames, args.stencil, kernel)
    run = pde.run_turing(nodes, frames, preset=args.preset, seed=args.seed,
                         t_end=args.t_end, m=args.stencil, kernel=kernel,
                         snapshot_every=args.snapshot_every)
    pde.save_snapshots(nodes, run.states, args.out, field_names=("u", "v"), vtk=args.vtk)
    steady = f"steady at t={run.steady_time:g}" if run.steady_time else "not steady"
    print(f"{len(run.states)} snapshots to {args.out}; {steady}; "
          f"final max|du/dt|={run.final_rate_inf:.3e}")


def _cmd_simulate_schaeffer(args):
    nodes = load_nodes(args.nodes)
    kernel = _kernel_from_args(args)
    frames = _frames_for(nodes, args.frames, args.stencil, kernel)
    delta = args.delta if args.delta is not None else 0.15 * pde.estimate_diameter(nodes.points)
    stim = pde.StimulusSpec(t_stim=args.t_stim,
                            center=nodes.points[check_node_ids(nodes, args.stim_node)],
                            delta=delta)
    run = pde.run_schaeffer(nodes, frames, stim=stim, t_end=args.t_end,
                            probe=args.probe, stim_node=args.stim_node,
                            m=args.stencil, kernel=kernel,
                            snapshot_every=args.snapshot_every)
    pde.save_snapshots(nodes, run.states, args.out, field_names=("v", "h"), vtk=args.vtk)
    probe_path = f"{args.out}/probe_{args.probe}.csv"
    pde.save_probe_csv(probe_path, run)
    print(f"{len(run.states)} snapshots to {args.out}; probe series to {probe_path}")


def _emit_table(table, orders, args):
    if args.out:
        experiments.save_table_csv(table, args.out)
        if orders:
            with open(args.out, "a", encoding="utf-8") as fh:
                for m, mu in sorted(orders.items()):
                    fh.write(f"# mu[M={m}] = {mu:.6g}\n")
    if args.json:
        print(json.dumps(experiments.table_report(table, orders), indent=2))
    elif orders:
        for m, mu in sorted(orders.items()):
            print(f"M={m}: mu={mu:.3f}")


def _cmd_bench_lbo_convergence(args):
    table = experiments.lbo_error_sweep(
        unit_sphere(), _parse_ints(args.n), _parse_ints(args.stencil),
        [args.eps], use_analytic_frames=not args.estimated_frames,
        family=KernelFamily(args.kernel), seed=args.seed, method=args.method)
    _emit_table(table, table.orders(), args)


def _cmd_bench_frame_convergence(args):
    normal_table, curvature_table = experiments.frame_error_sweep(
        _parse_ints(args.n), _parse_ints(args.stencil), [args.eps],
        family=KernelFamily(args.kernel), seed=args.seed, method=args.method)
    normal_orders = normal_table.orders()
    curvature_orders = curvature_table.orders()
    rows = [[a.n, a.m, a.eps, a.max_error, b.max_error]
            for a, b in zip(normal_table, curvature_table)]
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
        unit_sphere(), args.n, args.stencil, _parse_grid(args.eps_grid),
        use_analytic_frames=not args.estimated_frames,
        family=KernelFamily(args.kernel),
        node=args.node, seed=args.seed, method=args.method)
    _emit_table(table, None, args)
    if not args.json:
        for row in table:
            print(f"eps={row.eps:g} max_error={row.max_error:.3e} cond={row.max_cond:.3e}")


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbfsurf",
        description="surface differential operators and reaction-diffusion "
                    "solvers on point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    nodes = sub.add_parser("nodes", help="generate or project node sets")
    nodes_sub = nodes.add_subparsers(dest="subcommand", required=True)
    gen = nodes_sub.add_parser("gen", help="generate quasi-uniform sphere nodes")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_nodes_gen)
    proj = nodes_sub.add_parser("project", help="radially project nodes onto a level set")
    proj.add_argument("--surface", required=True)
    proj.add_argument("--in", required=True)
    proj.add_argument("--out", required=True)
    proj.add_argument("--drop-misses", action="store_true",
                      help="drop nodes whose ray misses the surface instead of failing")
    proj.set_defaults(func=_cmd_nodes_project)

    geom = sub.add_parser("geom", help="estimate surface frames")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)
    est = geom_sub.add_parser("estimate", help="normals and curvature from the point cloud")
    est.add_argument("--nodes", required=True)
    est.add_argument("--stencil", type=int, required=True)
    _add_kernel_options(est)
    est.add_argument("--out", required=True)
    est.set_defaults(func=_cmd_geom_estimate)

    lbo = sub.add_parser("lbo", help="assemble the surface Laplacian")
    lbo_sub = lbo.add_subparsers(dest="subcommand", required=True)
    build = lbo_sub.add_parser("build", help="build and save the sparse operator")
    build.add_argument("--nodes", required=True)
    build.add_argument("--frames", required=True,
                       help="frame CSV, or analytic:sphere / analytic:schwarz-p")
    build.add_argument("--stencil", type=int, required=True)
    _add_kernel_options(build)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_lbo_build)

    spec = sub.add_parser("spectrum", help="partial sparse spectrum (ARPACK) and stability report")
    spec.add_argument("--operator", required=True)
    spec.add_argument("--kmax", type=int, default=4)
    spec.add_argument("--tol", type=float, default=0.5)
    spec.add_argument("--out", required=True)
    spec.set_defaults(func=_cmd_spectrum)

    sim = sub.add_parser("simulate", help="time-integrate a reaction-diffusion model")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    tur = sim_sub.add_parser("turing", help="activator-inhibitor patterns")
    tur.add_argument("--nodes", required=True)
    tur.add_argument("--frames", required=True)
    tur.add_argument("--preset", choices=["spots", "stripes"], required=True)
    tur.add_argument("--seed", type=int, default=0)
    tur.add_argument("--t-end", type=float, default=2000.0)
    tur.add_argument("--snapshot-every", type=float, default=None)
    tur.add_argument("--stencil", type=int, default=31)
    _add_kernel_options(tur)
    tur.add_argument("--vtk", action="store_true", help="also write legacy VTK snapshots")
    tur.add_argument("--out", required=True)
    tur.set_defaults(func=_cmd_simulate_turing)
    sch = sim_sub.add_parser("schaeffer", help="two-variable cardiac excitation")
    sch.add_argument("--nodes", required=True)
    sch.add_argument("--frames", required=True)
    sch.add_argument("--stim-node", type=int, default=0)
    sch.add_argument("--t-stim", type=float, default=5.0)
    sch.add_argument("--delta", type=float, default=None,
                     help="stimulus width (default 0.15 x geometry diameter)")
    sch.add_argument("--probe", type=int, default=0)
    sch.add_argument("--t-end", type=float, default=600.0)
    sch.add_argument("--snapshot-every", type=float, default=None)
    sch.add_argument("--stencil", type=int, default=31)
    _add_kernel_options(sch)
    sch.add_argument("--vtk", action="store_true", help="also write legacy VTK snapshots")
    sch.add_argument("--out", required=True)
    sch.set_defaults(func=_cmd_simulate_schaeffer)

    bench = sub.add_parser("bench", help="accuracy sweeps on the unit sphere")
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)
    conv = bench_sub.add_parser("lbo-convergence", help="operator error vs node count")
    conv.add_argument("--n", default="500,1000,2000,4000",
                      help="comma-separated node counts")
    conv.add_argument("--stencil", default="11,15,21,31",
                      help="comma-separated stencil sizes")
    _add_kernel_options(conv)
    conv.add_argument("--estimated-frames", action="store_true",
                      help="use estimated frames instead of analytic ones")
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    conv.add_argument("--out", default=None)
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(func=_cmd_bench_lbo_convergence)
    fconv = bench_sub.add_parser("frame-convergence", help="frame error vs node count")
    fconv.add_argument("--n", default="500,1000,2000,4000")
    fconv.add_argument("--stencil", default="11,15,21,31")
    _add_kernel_options(fconv)
    fconv.add_argument("--seed", type=int, default=0)
    fconv.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    fconv.add_argument("--out", default=None)
    fconv.add_argument("--json", action="store_true")
    fconv.set_defaults(func=_cmd_bench_frame_convergence)
    esweep = bench_sub.add_parser("eps-sweep", help="operator error vs shape parameter")
    esweep.add_argument("--n", type=int, default=1000)
    esweep.add_argument("--stencil", type=int, default=16)
    esweep.add_argument("--eps-grid", default="1:8:29",
                        help="comma list or start:stop:count range")
    _add_kernel_options(esweep, eps=False)
    esweep.add_argument("--estimated-frames", action="store_true")
    esweep.add_argument("--node", type=int, default=None,
                        help="report a single node's error instead of the max")
    esweep.add_argument("--seed", type=int, default=0)
    esweep.add_argument("--method", choices=["fibonacci", "repulsion"], default="fibonacci")
    esweep.add_argument("--out", default=None)
    esweep.add_argument("--json", action="store_true")
    esweep.set_defaults(func=_cmd_bench_eps_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.func(args)
    except (RbfSurfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"done in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
