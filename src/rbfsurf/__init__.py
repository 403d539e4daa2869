"""RBF-FD differential operators and reaction-diffusion solvers on
point-cloud surfaces.

The pipeline: generate or load a node set (`nodesets`), recover or supply
unit normals and mean curvature (`surface_geom`), assemble the sparse
surface-Laplacian operator from per-node RBF stencils (`lbo`), then study
its spectrum (`spectrum`), accuracy (`experiments`), or use it to
integrate reaction-diffusion models (`pde`).
"""

from .errors import (
    ConditioningError,
    DivergenceError,
    GeometryError,
    NodeFileError,
    ProjectionError,
    RbfSurfError,
    StiffnessError,
)
from .kernels import Kernel, KernelFamily
from .nodesets import (
    ImplicitSurface,
    NodeSet,
    gen_sphere_nodes,
    load_nodes,
    nearest_neighbors,
    project_radial,
    save_nodes,
    schwarz_p,
    surface_by_name,
    unit_sphere,
)
from .surface_geom import (
    SurfaceFrame,
    analytic_frames,
    estimate_frames,
    fit_levelset,
    levelset_curvature,
    levelset_normal,
    load_frames,
    save_frames,
)
from .lbo import (
    SparseOperator,
    StencilGeometry,
    assemble_operator,
    stencil_weights,
)
from .spectrum import (
    SpectrumReport,
    eigenvalues,
    save_spectrum_csv,
    sphere_multiplicity,
    stability_report,
)
from .pde import (
    RdState,
    SchaefferModel,
    SchaefferParams,
    StimulusSpec,
    TuringModel,
    TuringParams,
    integrate,
    run_schaeffer,
    run_turing,
    save_snapshots,
    schaeffer_reaction,
    stimulus_eval,
    turing_reaction,
)
from .experiments import (
    ConvergenceTable,
    fit_order,
    frame_error_sweep,
    lbo_error_sweep,
    reference_field,
    reference_lbo,
)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "DivergenceError", "GeometryError", "NodeFileError",
    "ProjectionError", "RbfSurfError", "StiffnessError",
    "Kernel", "KernelFamily",
    "ImplicitSurface", "NodeSet",
    "gen_sphere_nodes", "load_nodes", "nearest_neighbors", "project_radial",
    "save_nodes", "schwarz_p", "surface_by_name", "unit_sphere",
    "SurfaceFrame", "analytic_frames", "estimate_frames", "fit_levelset",
    "levelset_curvature", "levelset_normal", "load_frames", "save_frames",
    "SparseOperator", "StencilGeometry", "assemble_operator", "stencil_weights",
    "SpectrumReport", "eigenvalues", "save_spectrum_csv",
    "sphere_multiplicity", "stability_report",
    "RdState", "SchaefferModel", "SchaefferParams", "StimulusSpec",
    "TuringModel", "TuringParams", "integrate", "run_schaeffer", "run_turing",
    "save_snapshots", "schaeffer_reaction", "stimulus_eval", "turing_reaction",
    "ConvergenceTable", "fit_order", "frame_error_sweep", "lbo_error_sweep",
    "reference_field", "reference_lbo",
    "__version__",
]
