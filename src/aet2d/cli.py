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
import sys
import time
import weakref
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
from .mesh import Mesh
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
    """A run, the formats its config names, and the `--out` directory."""

    config: RunConfig
    out_dir: Path = Path("out")
    formats: tuple[str, ...] = ("csv",)


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
    "output.formats": ("formats", _parse_formats),
}

# the keys a forward stage depends on, in the order stage.txt lists them
_STAGE_KEYS = tuple(key for key in _KEYS
                    if key.split(".", 1)[0] not in ("noise", "output"))


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
    """The node and cell text of one mesh, each formatted on first use.

    It keeps the mesh's arrays, not the mesh: `_TEXTS` holds it under a
    weak reference to the mesh, which a reference back would keep alive.
    """

    def __init__(self, mesh: Mesh):
        self.vertices, self.triangles = mesh.vertices, mesh.triangles

    @cached_property
    def csv_prefixes(self) -> list[str]:
        """`node_id,x,y,` of every node."""
        return [f"{i},{x:.17g},{y:.17g},"
                for i, (x, y) in enumerate(self.vertices.tolist())]

    @cached_property
    def vtk_geometry(self) -> str:
        """The POINTS, CELLS and CELL_TYPES blocks, without a final newline."""
        n_vertices, n_triangles = len(self.vertices), len(self.triangles)
        lines = [f"POINTS {n_vertices} double"]
        lines += [f"{x:.17g} {y:.17g} 0" for x, y in self.vertices.tolist()]
        lines.append(f"CELLS {n_triangles} {4 * n_triangles}")
        lines += [f"3 {i} {j} {k}" for i, j, k in self.triangles.tolist()]
        lines.append(f"CELL_TYPES {n_triangles}")
        lines += ["5"] * n_triangles
        return "\n".join(lines)


# each live mesh's text, so every field written or read on it shares one
_TEXTS: weakref.WeakKeyDictionary[Mesh, _MeshText] = weakref.WeakKeyDictionary()


def _text_of(mesh: Mesh) -> _MeshText:
    if mesh not in _TEXTS:
        _TEXTS[mesh] = _MeshText(mesh)
    return _TEXTS[mesh]


def _field_csv(field: ScalarField) -> str:
    lines = ["node_id,x,y,value"]
    lines += [f"{prefix}{v:.17g}" for prefix, v in
              zip(_text_of(field.mesh).csv_prefixes, field.values.tolist())]
    return "\n".join(lines) + "\n"


def _vtk_text(field: ScalarField, name: str) -> str:
    lines = ["# vtk DataFile Version 3.0", name, "ASCII",
             "DATASET UNSTRUCTURED_GRID", _text_of(field.mesh).vtk_geometry,
             f"POINT_DATA {field.mesh.n_vertices}", f"SCALARS {name} double 1",
             "LOOKUP_TABLE default"]
    lines += [f"{v:.17g}" for v in field.values.tolist()]
    return "\n".join(lines) + "\n"


def export_field(field: ScalarField, path, fmt: str = "csv", *,
                 name: str = "value") -> None:
    """One nodal field to disk, as `node_id,x,y,value` CSV or legacy VTK.

    A mesh's nodes and cells are formatted once while it lives, however many
    of its fields are written or read.
    """
    if fmt == "csv":
        _atomic_text(Path(path), _field_csv(field))
    elif fmt == "vtk":
        _atomic_text(Path(path), _vtk_text(field, name))
    else:
        raise ParameterError(f"unknown export format {fmt!r}")


def _read_ascii(path: Path) -> str:
    """The file's text byte for byte: no line ending is translated."""
    try:
        return path.read_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise ContractError(f"{path}: not ASCII text") from None


def read_field_csv(path, mesh: Mesh) -> ScalarField:
    """Read a field export back onto the mesh it came from, bit exact.

    Node k's row is accepted only as the `node_id,x,y,` text `export_field`
    writes for it, followed by a finite value in the text it writes for that
    value (`1.0`, ` 1` or `1_0` is not the text of 1). The node text is the
    one `export_field` formats for `mesh`, shared with its writes.

    Raises
    ------
    ContractError
        Naming the file, and the line of the first bad row, if the text is
        not an export of a finite field on `mesh`.
    """
    prefixes = _text_of(mesh).csv_prefixes
    text = _read_ascii(Path(path))
    if not text.endswith("\n"):
        raise ContractError(f"{path}: no final newline")
    header, *rows = text[:-1].split("\n")
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


def _write_fields(job: Job, fields: dict[str, ScalarField]) -> None:
    """Every field, in every format of the job, as `<name>.<format>`."""
    for name, field in fields.items():
        for fmt in job.formats:
            export_field(field, job.out_dir / f"{name}.{fmt}", fmt, name=name)


def _write_results(job: Job, result: PipelineResult, quiet: bool) -> None:
    record = record_from_run(job.config, result)
    _atomic_text(job.out_dir / "record.csv", records_to_csv([record]))
    fwd, recon = result.forward, result.recon
    _write_fields(job, {"sigma_recon": recon.sigma, "theta_recon": recon.theta,
                        "sigma_true": fwd.sigma_true,
                        "theta_true": fwd.theta_true})
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
        line = os.path.commonprefix([text, want]).count("\n") + 1
        raise ContractError(f"{path}: not the stage of this config "
                            f"({', '.join(keys) or f'line {line} differs'})")


def _cmd_reconstruct(job: Job, quiet: bool) -> int:
    # a stage is reconstructed only with the config it was made with, which
    # gives the mesh and the true conductivity on it
    _check_stage(job.out_dir / "stage.txt", job.config)
    mesh = base_mesh(job.config)
    h11, h12, h22, theta_true = (
        read_field_csv(job.out_dir / f"{name}.csv", mesh)
        for name in ("h11", "h12", "h22", "theta_true"))
    # `true_theta` writes angles in (-pi, pi]; any other is not its output
    outside = np.flatnonzero((theta_true.values <= -np.pi) | (theta_true.values > np.pi))
    if outside.size:
        raise ContractError(f"{job.out_dir / 'theta_true.csv'}: line {outside[0] + 2}: "
                            f"angle {theta_true.values[outside[0]]!r} outside (-pi, pi]")
    fwd = ForwardData(sigma_true=job.config.conductivity().on_mesh(mesh),
                      theta_true=theta_true, H=PowerDensity(h11, h12, h22))
    t0 = time.perf_counter()
    recon = recon_stage(job.config, fwd)
    _write_results(job, PipelineResult(fwd, recon, 0.0, time.perf_counter() - t0), quiet)
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
    controlled = np.zeros(mesh.n_vertices)
    controlled[mesh.dirichlet_nodes] = 1.0
    _write_fields(job, {"dirichlet": ScalarField(mesh, controlled)})
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
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--quiet", action="store_true")
    return parser


def _load_job(args) -> Job:
    job = parse_config(_read_ascii(Path(args.config)))
    if args.out is not None:
        job = replace(job, out_dir=Path(args.out))
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
