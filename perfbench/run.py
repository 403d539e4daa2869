"""Pipeline benchmark for rbfsurf: point cloud, frames, operator, then an
accuracy sweep, a Turing run or a membrane run, timed end to end and per
module.

Run from the root of a checkout (the program is imported from ``src/``,
the sphere node sets are read from ``tests/data/``):

    python3 perfbench/run.py --workload sphere-sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around the benchmark's calls into each module,
probes each layer after every iteration, prints the per-layer metrics and
writes the spans to ``perfbench/traces/<workload>.json``.  Every time
metric is scaled by the reference load timed around its iteration
(``reference.py``).  Metric names and units come from ``BENCHMARK.json``.  The last line of standard output
is the result as one JSON object.  ``--workload all`` runs every workload
in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / "tests" / "data"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
WORKLOAD_NAMES = ("sphere-sweep", "turing-schwarz", "membrane-sphere")
# Dense eig at N=1000 ranged 0.47-1.43 s between runs with two BLAS
# threads and 0.55-0.73 s with one, so one thread gives steadier figures.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 3
# Times are scaled to a machine on which one pass of the reference load
# takes this long; see reference.py and README.md.
REFERENCE_SECONDS = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import rbfsurf from this checkout's ``src/``; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import rbfsurf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rbfsurf from {SRC}: {exc}")
    if SRC not in Path(rbfsurf.__file__).resolve().parents:
        sys.exit(f"perfbench: rbfsurf was imported from {rbfsurf.__file__}, not from {SRC}")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def layer_metrics(tr, workload, built, outcome, caught):
    """Per-layer values of one traced iteration: spans, probes, derived."""
    from probes import probe_layers

    total, count, own = tr.summary(tr.iteration)
    probed, knn_estimated_s = probe_layers(built, workload.kernel, outcome.reaction)
    rhs_evals = count["lbo.apply"]
    # reaction time inside the integrator, estimated from the probe
    reaction_s = probed["pde.reaction_us"] * 1e-6 * rhs_evals
    values = {
        **probed,
        "nodesets.project_s": total["nodesets.project"],
        "surface_geom.frames_s": total["surface_geom.frames"],
        "surface_geom.orient_s": (total["surface_geom.frames"] - probed["surface_geom.fit_s"]
                                  - knn_estimated_s),
        "surface_geom.normal_err": 0.0,
        "surface_geom.kappa_err": 0.0,
        "lbo.assemble_s": total["lbo.assemble"],
        "lbo.apply_calls": count["lbo.apply"] + count["lbo.apply_1d"],
        "lbo.apply_s": total["lbo.apply"] + total["lbo.apply_1d"],
        "linalg.cond_warnings": sum("poorly conditioned" in str(w.message) for w in caught),
        "linalg.singular": 0,
        "experiments.sweep_s": total["experiments.sweep"],
        "experiments.lbo_order": 0.0,
        "spectrum.eig_s": total["spectrum.eig"],
        "pde.integrate_s": total["pde.integrate"],
        "pde.rhs_evals": rhs_evals,
        "pde.steps_accepted": 0,
        "pde.self_s": own["pde.integrate"] - reaction_s,
        "trace.wall_s": total["iteration"],
        "trace.setup_s": total["setup"],
        "trace.setup_self_s": own["setup"],
    }
    values.update(outcome.layer)
    return values


def iterate(workload, tr):
    """One iteration; returns its metric values and the failed checks."""
    with warnings.catch_warnings(record=True) as caught:
        # library warnings are counted in the traced run, never printed
        warnings.simplefilter("always" if tr.enabled else "ignore")
        with tr.span("iteration", always=True):
            with tr.span("setup", always=True):
                built = workload.setup(tr)
            with tr.span("solve", always=True):
                outcome = workload.solve(tr, built)
    total, _, _ = tr.summary(tr.iteration)
    values = {"wall_s": total["iteration"], "setup_s": total["setup"],
              "solve_s": total["solve"], "lbo_err": outcome.lbo_err}
    if tr.enabled:
        values.update(layer_metrics(tr, workload, built, outcome, caught))
    return values, [text for ok, text in outcome.checks if not ok]


def run_workload(args, spec):
    # numpy may load only after the thread cap is set, and rbfsurf only
    # after src/ is on the path, so these modules are imported here
    from reference import ReferenceLoad
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](DATA_DIR, args.seed)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print("env " + json.dumps(env))
    tr = Tracer(enabled=bool(args.trace))
    reference = ReferenceLoad()
    samples, attempted, failed = [], 0, 0
    start = perf_counter()
    reference_before = reference.seconds()
    while True:
        attempted += 1
        tr.iteration = attempted
        try:
            values, bad = iterate(workload, tr)
        except Exception:
            print(f"iteration {attempted} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            failed += 1
            values, bad = None, []
        reference_after = reference.seconds()
        if values is not None:
            # the machine's speed drifts by tens of percent within minutes;
            # the reference load run around the iteration tracks that drift
            reference_s = 0.5 * (reference_before + reference_after)
            scale = REFERENCE_SECONDS / reference_s
            print(f"iteration {attempted}: wall {values['wall_s']:.3f} s, setup "
                  f"{values['setup_s']:.3f} s, solve {values['solve_s']:.3f} s, "
                  f"reference {reference_s:.3f} s", file=sys.stderr)
            samples.append({name: value * scale if name.endswith(("_s", "_us")) else value
                            for name, value in values.items()})
            samples[-1]["reference_s"] = reference_s
        if bad:
            failed += 1
            print(f"iteration {attempted} failed checks: {'; '.join(bad)}", file=sys.stderr)
        reference_before = reference_after
        elapsed = perf_counter() - start
        if attempted >= MIN_ITERATIONS and elapsed * (attempted + 1) / attempted > args.seconds:
            break
    if not samples:
        sys.exit(f"perfbench: all {attempted} iterations of {args.workload} raised")

    summary = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary["pass_frac"] = (attempted - failed) / attempted
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": summary[name], "unit": unit}
        print(f"{name:26s} {summary[name]:.6g} {unit}")
    if args.trace:
        tr.write(TRACE_DIR / f"{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed, "env": env,
                  "iterations": samples})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Run every workload in its own process; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
