"""Per-layer probes, run after a traced iteration and outside its timing.

The pipeline calls ``nearest_neighbors``, the level-set fits and
``stencil_weights`` from inside the library, where the benchmark cannot
put spans.  These probes repeat that work through the same public calls,
one layer at a time, on the iteration's own node sets and frames.
"""

from __future__ import annotations

import statistics
import warnings
from time import perf_counter

import numpy as np

from rbfsurf import (
    StencilGeometry,
    fit_levelset,
    levelset_curvature,
    levelset_normal,
    nearest_neighbors,
    stencil_weights,
)

from workloads import M

# about 4M distances spanning every stencil radius, the same on every workload
KERNEL_POINTS = 1 << 22
REPEATS = 200


def _median_us(call, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def probe_layers(built, kernel, reaction):
    """Time each layer on the iteration's outputs; return metric values."""
    knn_s = knn_estimated_s = fit_s = weights_s = 0.0
    cond_max = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b in built:
            n = len(b.nodes)
            start = perf_counter()
            stencils = [nearest_neighbors(b.nodes, i, M) for i in range(n)]
            elapsed = perf_counter() - start
            knn_s += elapsed
            if b.estimated:
                knn_estimated_s += elapsed
                start = perf_counter()
                for st in stencils:
                    fit = fit_levelset(st, b.nodes, kernel, h=float(st.neighbor_distances[0]))
                    x = b.nodes.points[st.center_index]
                    levelset_curvature(fit, x, levelset_normal(fit, x))
                    cond_max = max(cond_max, fit.cond)
                fit_s += perf_counter() - start
            geoms = [StencilGeometry.from_stencil(b.nodes, st, b.frames) for st in stencils]
            start = perf_counter()
            for geom in geoms:
                _, cond = stencil_weights(geom, kernel, gate=False, return_cond=True)
                cond_max = max(cond_max, cond)
            weights_s += perf_counter() - start

    distances = np.linspace(0.0, 1.0, KERNEL_POINTS)

    def eval_kernel():
        kernel.phi(distances)
        kernel.dphi_over_r(distances)
        kernel.d2phi(distances)

    op = built[-1].op
    state = np.random.default_rng(0).standard_normal((2, op.n))
    matrix = op.matrix
    # computed, not measured: CSR arrays read once plus the (2, N) input and output
    apply_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + 2 * state.nbytes
    metrics = {
        "nodesets.knn_s": knn_s,
        "kernels.eval_us": _median_us(eval_kernel, repeats=3),
        "surface_geom.fit_s": fit_s,
        "lbo.weights_s": weights_s,
        "lbo.apply_us": _median_us(lambda: op.apply(state)),
        "lbo.apply_bytes": apply_bytes,
        "linalg.cond_max": cond_max,
        "pde.reaction_us": 0.0,
    }
    if reaction is not None:
        model, t, fields = reaction
        metrics["pde.reaction_us"] = _median_us(lambda: model.reaction(t, fields))
    return metrics, knn_estimated_s
