"""Command line front end: config files, experiment drivers, field export.

Configs are flat `key = value` text with dotted key names; unknown or
duplicate keys are rejected before anything runs.  All files are written
atomically (temp file, then rename) and all floats at 17 significant digits,
so a repeated run with the same config and seed reproduces every output
byte for byte.

Exit codes: 0 success, 1 configuration or I/O problem, 2 numerical failure
(the message carries the solver's residual report).
"""
from __future__ import annotations

import argparse
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
from .mesh import Mesh, read_mesh, read_rows, write_mesh
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
    "gamma.arcs": ("gamma_arcs", _parse_arcs),
    "sigma.case": ("case", str),
    "sigma.constant_value": ("constant_value", float),
    "noise.alpha_percent": ("alpha_percent", float),
    "noise.seed": ("seed", int),
    "noise.eig_floor": ("eig_floor", float),
    "data.eps_d": ("eps_d", float),
    "solver.tol": ("tol", float),
    "solver.max_iter": ("max_iter", int),
    "recon.unwrap_arcs": ("unwrap_arcs", _parse_arcs),
    "output.dir": ("out_dir", Path),
    "output.formats": ("formats", _parse_formats),
}


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

    A config that sets `gamma.arcs` but no `gamma.preset` labels its run
    `custom`.
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
    if "gamma.arcs" in seen and "gamma.preset" not in seen:
        kwargs["run"]["gamma"] = "custom"
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


def export_field(field: ScalarField, path, fmt: str = "csv", *,
                 name: str = "value", mesh_text: _MeshText | None = None) -> None:
    """One nodal field to disk, as `node_id,x,y,value` CSV or legacy VTK.

    `mesh_text` carries the mesh's formatted nodes and cells from an earlier
    call on the same mesh, so writing several fields formats them once.
    """
    if mesh_text is None:
        mesh_text = _MeshText(field.mesh)
    elif mesh_text.mesh is not field.mesh:
        raise ContractError("mesh_text belongs to another mesh")
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


class _CoordinateMismatch(ContractError):
    """A field export whose node coordinates differ from its mesh's."""

    def __init__(self, path, node: int):
        super().__init__(f"{path}: node {node} coordinates do not match the mesh")
        self.node = node


def read_field_csv(path, mesh: Mesh) -> ScalarField:
    """Read a field export back onto the mesh it came from, bit exact.

    Raises
    ------
    ContractError
        Naming the file, and the row where one is known, if the text is not
        an export of a finite field on `mesh`.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            if f.readline() != "node_id,x,y,value\n":
                raise ContractError(f"{path}: not a field export")
            rows = read_rows(path, f, delimiter=",")
    except UnicodeDecodeError as exc:  # in the header; `read_rows` names the rest
        raise ContractError(f"{path}: {exc}") from None
    n = mesh.n_vertices
    if rows.shape[0] != n:
        raise ContractError(f"{path}: {rows.shape[0]} rows for a mesh with {n} nodes")
    if rows.shape[1] != 4:
        raise ContractError(f"{path}: {rows.shape[1]} columns, expected 4")
    bad = np.flatnonzero(rows[:, 0] != np.arange(n))
    if bad.size:
        raise ContractError(f"{path}: node ids out of order at row {bad[0]}")
    bad = np.flatnonzero((rows[:, 1:3] != mesh.vertices).any(axis=1))
    if bad.size:
        raise _CoordinateMismatch(path, int(bad[0]))
    values = rows[:, 3].copy()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ContractError(f"{path}: node {bad[0]} value is not finite")
    return ScalarField(mesh, values)


def _write_fields(job: Job, fields: dict[str, ScalarField]) -> None:
    """Every field on one mesh, in every format of the job."""
    mesh_text = _MeshText(next(iter(fields.values())).mesh)
    for name, field in fields.items():
        for fmt in job.formats:
            export_field(field, job.out_dir / f"{name}.{fmt}", fmt, name=name,
                         mesh_text=mesh_text)


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


def _cmd_forward(job: Job, quiet: bool) -> int:
    fwd = forward_stage(job.config)
    tmp = job.out_dir / "mesh.txt.tmp"
    write_mesh(fwd.recon_mesh, tmp)
    os.replace(tmp, job.out_dir / "mesh.txt")
    _write_fields(replace(job, formats=("csv",)),
                  {"h11": fwd.H.h11, "h12": fwd.H.h12, "h22": fwd.H.h22,
                   "sigma_true": fwd.sigma_true, "theta_true": fwd.theta_true})
    flagged = " ".join(str(int(n)) for n in fwd.theta_flagged)
    _atomic_text(job.out_dir / "meta.txt",
                 f"n_data {fwd.n_data}\nflagged {flagged}\n".replace(" \n", "\n"))
    if not quiet:
        print(f"wrote forward data ({fwd.n_data} data nodes, "
              f"{fwd.recon_mesh.n_vertices} reconstruction nodes) to {job.out_dir}")
    return 0


def _read_meta(path: Path, mesh: Mesh) -> tuple[int, np.ndarray]:
    """`n_data` and the flagged node ids of a stage on reconstruction `mesh`.

    Raises
    ------
    ContractError
        Naming the file and line of an entry that is unknown, repeated or
        not integer, of an `n_data` not above the mesh's node count, and of
        a flagged id that is not a node of the mesh.
    """
    n_recon = mesh.n_vertices
    entries: dict[str, list[int]] = {}
    for lineno, line in enumerate(_read_ascii(path).splitlines(), 1):
        if not line.strip():
            continue
        name, _, rest = line.partition(" ")
        where = f"{path}: line {lineno}"
        if name not in ("n_data", "flagged"):
            raise ContractError(f"{where}: unknown entry {name!r}")
        if name in entries:
            raise ContractError(f"{where}: repeated entry {name!r}")
        try:
            ids = [int(rest)] if name == "n_data" else [int(t) for t in rest.split()]
        except ValueError:
            raise ContractError(f"{where}: {name} expects integers, "
                                f"got {rest!r}") from None
        if name == "n_data" and ids[0] <= n_recon:
            raise ContractError(f"{where}: n_data {ids[0]} must exceed the "
                                f"{n_recon} reconstruction nodes")
        if name == "flagged":
            outside = [i for i in ids if not 0 <= i < n_recon]
            if outside:
                raise ContractError(f"{where}: flagged node {outside[0]} is not "
                                    f"one of the {n_recon} reconstruction nodes")
        entries[name] = ids
    if "n_data" not in entries:
        raise ContractError(f"{path}: missing n_data")
    return entries["n_data"][0], np.array(entries.get("flagged", []), dtype=np.intp)


def _read_stage_fields(out_dir: Path, mesh: Mesh) -> list[ScalarField]:
    """The five field files of a forward stage, read onto its `mesh.txt`.

    Raises
    ------
    ContractError
        Naming `mesh.txt` when every field file's coordinates differ from it
        at the same node, else the first field file that is broken or
        differs.
    """
    fields, mismatches = [], []
    for name in ("h11", "h12", "h22", "sigma_true", "theta_true"):
        try:
            fields.append(read_field_csv(out_dir / f"{name}.csv", mesh))
        except _CoordinateMismatch as exc:
            mismatches.append(exc)
    if mismatches:
        nodes = {exc.node for exc in mismatches}
        if len(mismatches) == 5 and len(nodes) == 1:
            raise ContractError(f"{out_dir / 'mesh.txt'}: node {nodes.pop()} "
                                "coordinates differ from every field file's")
        raise mismatches[0]
    return fields


def _cmd_reconstruct(job: Job, quiet: bool) -> int:
    mesh = read_mesh(job.out_dir / "mesh.txt")
    h11, h12, h22, sigma_true, theta_true = _read_stage_fields(job.out_dir, mesh)
    n_data, flagged = _read_meta(job.out_dir / "meta.txt", mesh)
    fwd = ForwardData(recon_mesh=mesh, n_data=n_data, sigma_true=sigma_true,
                      theta_true=theta_true,
                      H=PowerDensity(h11, h12, h22, eps_d=job.config.eps_d),
                      theta_flagged=flagged)
    t0 = time.perf_counter()
    recon = recon_stage(job.config, fwd)
    _write_results(job, PipelineResult(fwd, recon, 0.0, time.perf_counter() - t0),
                   quiet)
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
