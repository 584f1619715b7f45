"""Command line front end: config files, experiment drivers, field export.

Configs are flat `key = value` text with dotted key names; unknown or
duplicate keys are rejected before anything runs.  All files are written
atomically (temp file, then rename) and all floats at 17 significant digits,
so a repeated run with the same config and seed reproduces every output
byte for byte.

A forward stage directory holds the four data fields (`h11`, `h12`, `h22`,
`theta_true` CSVs) and `stage.txt`, the stage's config keys as
`key = repr(value)` lines. `reconstruct` runs only with a config that gives
the same `stage.txt` text, and rebuilds the mesh and the true conductivity
from it.

Exit codes: 0 success, 1 configuration or I/O problem, 2 numerical failure
(the message carries the solver's residual report).
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    NumericalError,
    ParameterError,
    SingularSystemError,
)
from .fem import ScalarField
from .forward import PowerDensity
from .mesh import Mesh, write_mesh
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
    ForwardData,
    PipelineResult,
    RunConfig,
    base_mesh,
    forward_stage,
    recon_stage,
    run_pipeline,
)

_FORMATS = ("csv", "vtk")

@dataclass(frozen=True)
class Job:
    """A parsed config: the run itself plus where and how to write it."""

    config: RunConfig
    out_dir: Path = Path("out")
    formats: tuple[str, ...] = ("csv",)


def _parse_arcs(value: str) -> tuple[tuple[float, float], ...]:
    parts = [p for p in re.split(r"[,;\s]+", value) if p]
    if not parts or len(parts) % 2:
        raise ValueError("need an even number of angle endpoints")
    ends = [float(p) for p in parts]
    return tuple(zip(ends[::2], ends[1::2]))


def _parse_formats(value: str) -> tuple[str, ...]:
    names = [p.strip().lower() for p in value.split(",") if p.strip()]
    if not names or any(n not in _FORMATS for n in names):
        raise ValueError(f"expected a subset of {_FORMATS}, got {value!r}")
    return tuple(dict.fromkeys(names))


# config key -> (field, parser of its text). A `noise.` key sets a field of
# the run's NoiseSpec, an `output.` key one of the Job, any other key one of
# the RunConfig.
_KEYS = {
    "mesh.target_h": ("target_h", float),
    "mesh.refine_levels": ("refine_levels", int),
    "gamma.preset": ("gamma", str),
    "sigma.case": ("case", str),
    "noise.alpha_percent": ("alpha_percent", float),
    "noise.seed": ("seed", int),
    "noise.eig_floor": ("eig_floor", float),
    "recon.unwrap_arcs": ("unwrap_arcs", _parse_arcs),
    "output.dir": ("out_dir", Path),
    "output.formats": ("formats", _parse_formats),
}

# the keys a forward stage depends on, in the order stage.txt lists them
_STAGE_KEYS = tuple(key for key in _KEYS
                    if key.split(".", 1)[0] not in ("noise", "recon", "output"))


def _convert(key: str, value: str):
    """(field, parsed value) of one config entry; a parser's ValueError
    becomes a ParameterError naming the key."""
    name, parse = _KEYS[key]
    try:
        return name, parse(value)
    except ValueError as exc:
        raise ParameterError(f"config key {key!r}: {exc}") from None


def parse_config(text: str) -> Job:
    """Flat dotted-key config text to a validated Job.

    The controlled arc is the preset `gamma.preset` names.  An unknown,
    duplicate or malformed entry raises ParameterError naming it.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ParameterError(f"config line {lineno}: expected 'key = value'")
        if key not in _KEYS:
            raise ParameterError(f"unknown config key {key!r} (line {lineno})")
        if key in seen:
            raise ParameterError(f"duplicate config key {key!r} (line {lineno})")
        seen[key] = value

    kwargs = {"run": {}, "noise": {}, "output": {}}
    for key, value in seen.items():
        name, parsed = _convert(key, value)
        section = key.split(".", 1)[0]
        kwargs[section if section in kwargs else "run"][name] = parsed
    config = RunConfig(noise=NoiseSpec(**kwargs["noise"]), **kwargs["run"])
    return Job(config=config, **kwargs["output"])


def _atomic_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)


class _MeshText:
    """The node and cell text of one mesh, formatted once for all its fields."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

    @cached_property
    def csv_prefixes(self) -> list[str]:
        """`node_id,x,y,` of every node."""
        return [f"{i},{x:.17g},{y:.17g},"
                for i, (x, y) in enumerate(self.mesh.vertices.tolist())]

    @cached_property
    def vtk_geometry(self) -> str:
        """The POINTS, CELLS and CELL_TYPES blocks, without a final newline."""
        mesh = self.mesh
        lines = [f"POINTS {mesh.n_vertices} double"]
        lines += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices.tolist()]
        lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        lines += [f"3 {i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
        lines.append(f"CELL_TYPES {mesh.n_triangles}")
        lines += ["5"] * mesh.n_triangles
        return "\n".join(lines)


def _field_csv(field: ScalarField, text: _MeshText) -> str:
    lines = ["node_id,x,y,value"]
    lines += [f"{prefix}{v:.17g}"
              for prefix, v in zip(text.csv_prefixes, field.values.tolist())]
    return "\n".join(lines) + "\n"


def _vtk_text(field: ScalarField, name: str, text: _MeshText) -> str:
    lines = ["# vtk DataFile Version 3.0", name, "ASCII",
             "DATASET UNSTRUCTURED_GRID", text.vtk_geometry,
             f"POINT_DATA {field.mesh.n_vertices}", f"SCALARS {name} double 1",
             "LOOKUP_TABLE default"]
    lines += [f"{v:.17g}" for v in field.values.tolist()]
    return "\n".join(lines) + "\n"


def _mesh_text_for(mesh: Mesh, mesh_text: _MeshText | None) -> _MeshText:
    """`mesh_text`, checked to be `mesh`'s, or `mesh`'s text when it is None."""
    if mesh_text is None:
        return _MeshText(mesh)
    if mesh_text.mesh is not mesh:
        raise ContractError("mesh_text belongs to another mesh")
    return mesh_text


def export_field(field: ScalarField, path, fmt: str = "csv", *,
                 name: str = "value", mesh_text: _MeshText | None = None) -> None:
    """One nodal field to disk, as `node_id,x,y,value` CSV or legacy VTK.

    `mesh_text` carries the mesh's formatted nodes and cells from an earlier
    call on the same mesh, so writing several fields formats them once.
    """
    mesh_text = _mesh_text_for(field.mesh, mesh_text)
    if fmt == "csv":
        _atomic_text(Path(path), _field_csv(field, mesh_text))
    elif fmt == "vtk":
        _atomic_text(Path(path), _vtk_text(field, name, mesh_text))
    else:
        raise ParameterError(f"unknown export format {fmt!r}")


def _read_ascii(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ContractError(f"{path}: not ASCII text") from None


def read_field_csv(path, mesh: Mesh, *,
                   mesh_text: _MeshText | None = None) -> ScalarField:
    """Read a field export back onto the mesh it came from, bit exact.

    Node k's row is accepted only as the `node_id,x,y,` text `export_field`
    writes for it, followed by a finite value in the text it writes for that
    value (`1.0`, ` 1` or `1_0` is not the text of 1). `mesh_text` is as in
    `export_field`.

    Raises
    ------
    ContractError
        Naming the file, and the line of the first bad row, if the text is
        not an export of a finite field on `mesh`.
    """
    prefixes = _mesh_text_for(mesh, mesh_text).csv_prefixes
    header, *rows = _read_ascii(Path(path)).removesuffix("\n").split("\n")
    if header != "node_id,x,y,value":
        raise ContractError(f"{path}: not a field export")
    if len(rows) != len(prefixes):
        raise ContractError(f"{path}: {len(rows)} rows for a mesh with "
                            f"{len(prefixes)} nodes")
    values = []
    for lineno, (prefix, row) in enumerate(zip(prefixes, rows), 2):
        text = row[len(prefix):]
        try:
            value = float(text) if row.startswith(prefix) else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or f"{value:.17g}" != text:
            raise ContractError(f"{path}: line {lineno}: expected {prefix!r} "
                                f"and a finite value, got {row!r}")
        values.append(value)
    return ScalarField(mesh, np.array(values))


def _write_fields(job: Job, fields: dict[str, ScalarField],
                  mesh_text: _MeshText | None = None) -> None:
    """Every field on one mesh, in every format of the job."""
    mesh_text = _mesh_text_for(next(iter(fields.values())).mesh, mesh_text)
    for name, field in fields.items():
        for fmt in job.formats:
            export_field(field, job.out_dir / f"{name}.{fmt}", fmt, name=name,
                         mesh_text=mesh_text)


def _write_results(job: Job, result: PipelineResult, quiet: bool,
                   mesh_text: _MeshText | None = None) -> None:
    record = record_from_run(job.config, result)
    _atomic_text(job.out_dir / "record.csv", records_to_csv([record]))
    fwd, recon = result.forward, result.recon
    _write_fields(job, {"sigma_recon": recon.sigma, "theta_recon": recon.theta,
                        "sigma_true": fwd.sigma_true,
                        "theta_true": fwd.theta_true}, mesh_text)
    if not quiet:
        print(render_table([record]), end="")
        print(f"wrote {job.out_dir}")


def _cmd_run(job: Job, quiet: bool) -> int:
    _write_results(job, run_pipeline(job.config), quiet)
    return 0


def _stage_text(config: RunConfig) -> str:
    """`key = repr(value)` of each config key a forward stage depends on."""
    return "".join(f"{key} = {getattr(config, _KEYS[key][0])!r}\n"
                   for key in _STAGE_KEYS)


def _cmd_forward(job: Job, quiet: bool) -> int:
    fwd = forward_stage(job.config)
    # stage.txt goes first and comes back last, so a forward that stops
    # part way leaves no stage for reconstruct to mix with another config's
    stage = job.out_dir / "stage.txt"
    stage.unlink(missing_ok=True)
    _write_fields(replace(job, formats=("csv",)),
                  {"h11": fwd.H.h11, "h12": fwd.H.h12, "h22": fwd.H.h22,
                   "theta_true": fwd.theta_true})
    _atomic_text(stage, _stage_text(job.config))
    if not quiet:
        print(f"wrote forward data ({fwd.n_data} data nodes, "
              f"{fwd.recon_mesh.n_vertices} reconstruction nodes) to {job.out_dir}")
    return 0


def _check_stage(path: Path, config: RunConfig) -> None:
    """Raise ContractError unless `path` is the stage.txt `config` writes."""
    text = _read_ascii(path)
    want = _stage_text(config)
    if text != want:
        have = text.splitlines()
        keys = [key for key, line in zip(_STAGE_KEYS, want.splitlines())
                if line not in have]
        raise ContractError(f"{path}: not the stage of this config "
                            f"({', '.join(keys) or 'extra lines'})")


def _cmd_reconstruct(job: Job, quiet: bool) -> int:
    # a stage is reconstructed only with the config it was made with, which
    # gives the mesh and the true conductivity on it
    _check_stage(job.out_dir / "stage.txt", job.config)
    mesh = base_mesh(job.config)
    mesh_text = _MeshText(mesh)  # for the four reads and the writes
    h11, h12, h22, theta_true = (
        read_field_csv(job.out_dir / f"{name}.csv", mesh, mesh_text=mesh_text)
        for name in ("h11", "h12", "h22", "theta_true"))
    fwd = ForwardData(recon_mesh=mesh, sigma_true=job.config.conductivity().on_mesh(mesh),
                      theta_true=theta_true, H=PowerDensity(h11, h12, h22))
    t0 = time.perf_counter()
    recon = recon_stage(job.config, fwd)
    _write_results(job, PipelineResult(fwd, recon, 0.0, time.perf_counter() - t0),
                   quiet, mesh_text)
    return 0


def _run_sweep(job: Job, quiet: bool, sweep, filename: str) -> int:
    records = sweep(job.config)
    _atomic_text(job.out_dir / filename, records_to_csv(records))
    if not quiet:
        print(render_table(records), end="")
        print(f"wrote {job.out_dir / filename}")
    return 0


def _cmd_export_mesh(job: Job, quiet: bool) -> int:
    mesh = base_mesh(job.config)
    tmp = job.out_dir / "mesh.txt.tmp"
    write_mesh(mesh, tmp)
    os.replace(tmp, job.out_dir / "mesh.txt")
    if "vtk" in job.formats:
        controlled = np.zeros(mesh.n_vertices)
        controlled[mesh.dirichlet_nodes] = 1.0
        export_field(ScalarField(mesh, controlled), job.out_dir / "mesh.vtk",
                     "vtk", name="dirichlet")
    if not quiet:
        print(f"wrote mesh ({mesh.n_vertices} nodes, {mesh.n_triangles} "
              f"triangles) to {job.out_dir}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "forward": _cmd_forward,
    "reconstruct": _cmd_reconstruct,
    "table1": partial(_run_sweep, sweep=table_gamma_sweep, filename="table1.csv"),
    "table2": partial(_run_sweep, sweep=table_mesh_sweep, filename="table2.csv"),
    "noise-sweep": partial(_run_sweep, sweep=noise_sweep, filename="noise_sweep.csv"),
    "export-mesh": _cmd_export_mesh,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are config errors (exit 1), not argparse's default 2
    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aet2d",
                     description="Power-density conductivity imaging runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int,
                       help="noise seed (overrides noise.seed)")
        p.add_argument("--quiet", action="store_true")
    return parser


def _load_job(args) -> Job:
    job = parse_config(_read_ascii(Path(args.config)))
    if args.out is not None:
        job = replace(job, out_dir=Path(args.out))
    if args.seed is not None:
        job = replace(job, config=replace(
            job.config, noise=replace(job.config.noise, seed=args.seed)))
    return job


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        job = _load_job(args)
        job.out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](job, args.quiet)
    except (ParameterError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
