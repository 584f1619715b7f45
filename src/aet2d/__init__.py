"""Conductivity imaging from interior power densities on the unit disk.

The package synthesizes power-density data for a conductivity equation under
partial boundary control, corrupts it with seeded multiplicative noise, and
reconstructs the conductivity through two Poisson solves driven by the data's
transfer-matrix vector fields.

The top level holds the run API: configs, the two stages, the sweeps and
their tables. The building blocks are imported from their modules:
`aet2d.mesh`, `aet2d.fem`, `aet2d.forward`, `aet2d.noise` and `aet2d.recon`.
"""

from .forward import det_diagnostics
from .mesh import BoundarySpec
from .metrics import (
    noise_sweep,
    record_from_run,
    records_to_csv,
    render_table,
    table_gamma_sweep,
    table_mesh_sweep,
)
from .noise import NoiseSpec
from .pipeline import (
    PipelineResult,
    RunConfig,
    forward_stage,
    recon_stage,
    run_pipeline,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "NoiseSpec",
    "PipelineResult",
    "RunConfig",
    "det_diagnostics",
    "forward_stage",
    "noise_sweep",
    "recon_stage",
    "record_from_run",
    "records_to_csv",
    "render_table",
    "run_pipeline",
    "run_sweep",
    "table_gamma_sweep",
    "table_mesh_sweep",
]
