"""Experiment records and sweep tables for the limited-view benchmarks.

Each sweep runs the pipeline over one axis of the published experiments
(control arc, mesh level, noise level) and flattens every run into an
`ExperimentRecord`; the tables render as byte-stable CSV or aligned text.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ContractError, ParameterError
from .noise import NoiseSpec
from .pipeline import MAX_REFINE_LEVELS, PipelineResult, RunConfig, run_sweep


@dataclass(frozen=True)
class ExperimentRecord:
    """One pipeline run flattened to the numbers the tables report.

    In a sweep, a run that reused the previous run's forward stage reports
    `forward_seconds` 0.0.
    """

    case: str
    gamma: str
    n_data: int
    n_recon: int
    min_det: float
    cos2theta_error: float
    sin2theta_error: float
    sigma_error: float
    alpha_percent: float
    noise_seed: int
    eig_floor: float
    forward_seconds: float
    recon_seconds: float

    def __post_init__(self):
        if self.n_data <= self.n_recon:
            raise ContractError("data mesh must be finer than reconstruction mesh")
        bad = [n for n in ("cos2theta_error", "sin2theta_error", "sigma_error")
               if getattr(self, n) < 0.0]
        if bad:
            raise ContractError(f"negative error fields: {bad}")


NOISE_LADDER = ((1.0, 1e-6), (5.0, 1e-5), (10.0, 1e-5))


def record_from_run(config: RunConfig, result: PipelineResult) -> ExperimentRecord:
    m = result.recon.metrics
    if m is None:
        raise ContractError("pipeline result carries no metrics")
    return ExperimentRecord(
        case=config.case,
        gamma=config.gamma,
        n_data=result.forward.n_data,
        n_recon=result.forward.recon_mesh.n_vertices,
        min_det=result.recon.diagnostics.min_det,
        cos2theta_error=m.cos2theta_error,
        sin2theta_error=m.sin2theta_error,
        sigma_error=m.sigma_error,
        alpha_percent=config.noise.alpha_percent,
        noise_seed=config.noise.seed,
        eig_floor=config.noise.eig_floor,
        forward_seconds=result.forward_seconds,
        recon_seconds=result.recon_seconds)


def _sweep_records(configs: list[RunConfig]) -> list[ExperimentRecord]:
    return [record_from_run(c, r) for c, r in zip(configs, run_sweep(configs))]


def table_gamma_sweep(config: RunConfig) -> list[ExperimentRecord]:
    """Both cases against shrinking control arcs, noiseless."""
    return _sweep_records([
        replace(config, case=case, gamma=gamma, noise=NoiseSpec())
        for case in ("case1", "case2") for gamma in ("large", "medium", "small")])


def table_mesh_sweep(config: RunConfig) -> list[ExperimentRecord]:
    """Case 1 over the medium arc at three nested resolutions, noiseless.

    Each level reuses the previous level's data mesh as its reconstruction
    mesh, which is what stepping refine_levels does here.

    Raises
    ------
    ParameterError
        If the two extra levels would pass MAX_REFINE_LEVELS, or the finest
        level's data mesh MAX_DATA_NODES; raised before any mesh is built.
    """
    if config.refine_levels + 2 > MAX_REFINE_LEVELS:
        raise ParameterError(
            f"mesh.refine_levels = {config.refine_levels}: table2 refines 2 "
            f"levels further and refine_levels is at most {MAX_REFINE_LEVELS}, "
            f"so it must be at most {MAX_REFINE_LEVELS - 2}")
    return _sweep_records([
        replace(config, case="case1", gamma="medium",
                refine_levels=config.refine_levels + step, noise=NoiseSpec())
        for step in range(3)])


def noise_sweep(config: RunConfig) -> list[ExperimentRecord]:
    """Case 2 over the medium arc at the published noise/floor ladder.

    Only the noise changes along the ladder, so all points share one
    forward stage.
    """
    return _sweep_records([
        replace(config, case="case2", gamma="medium",
                noise=NoiseSpec(alpha_percent=alpha, seed=config.noise.seed,
                                eig_floor=floor))
        for alpha, floor in NOISE_LADDER])


# every record field but the runtimes, in declaration order
_CSV_FIELDS = tuple(f for f in fields(ExperimentRecord)
                    if not f.name.endswith("_seconds"))
CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)


def _csv_cell(record: ExperimentRecord, f) -> str:
    value = getattr(record, f.name)
    # the annotation is the class, or its name under postponed evaluation
    return f"{value:.17g}" if f.type in (float, "float") else str(value)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Byte-stable table: runtimes are excluded, every float at 17 digits."""
    lines = [CSV_HEADER]
    lines += [",".join(_csv_cell(r, f) for f in _CSV_FIELDS) for r in records]
    return "\n".join(lines) + "\n"


_TABLE_COLUMNS = (
    ("case", lambda r: r.case),
    ("gamma", lambda r: r.gamma),
    ("n_data", lambda r: str(r.n_data)),
    ("n_recon", lambda r: str(r.n_recon)),
    ("min_det", lambda r: f"{r.min_det:.3e}"),
    ("cos2t_err", lambda r: f"{r.cos2theta_error:.4f}"),
    ("sin2t_err", lambda r: f"{r.sin2theta_error:.4f}"),
    ("sigma_err", lambda r: f"{r.sigma_error:.4f}"),
    ("alpha%", lambda r: f"{r.alpha_percent:g}"),
    ("seed", lambda r: str(r.noise_seed)),
    ("floor", lambda r: f"{r.eig_floor:g}"),
    ("fwd_s", lambda r: f"{r.forward_seconds:.2f}"),
    ("rec_s", lambda r: f"{r.recon_seconds:.2f}"),
)


def render_table(records: list[ExperimentRecord]) -> str:
    """Aligned plain-text rendering, runtimes included."""
    cells = [[name for name, _ in _TABLE_COLUMNS]]
    cells += [[fmt(r) for _, fmt in _TABLE_COLUMNS] for r in records]
    widths = [max(len(row[k]) for row in cells) for k in range(len(_TABLE_COLUMNS))]
    out = []
    for row in cells:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(out) + "\n"
