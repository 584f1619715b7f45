"""Command line front end: config files, experiment drivers, field export.

Configs are flat `key = value` text with dotted key names; unknown or
duplicate keys are rejected before anything runs.  All files are written
atomically (temp file, then rename), text floats at 17 significant digits,
so a repeated run with the same config and seed reproduces every output
byte for byte.  A command writes its nodal fields to one `fields.csv` and
one `fields.vtk`, as the config's `output.formats` names.

`forward` writes one `stage.npz`: the four data fields (`h11`, `h12`,
`h22`, `theta_true`) as float64 arrays, and the stage's config keys as
`key = repr(value)` lines in the string array `stage`. `reconstruct` runs
only with a config that gives the same text, and rebuilds the mesh and the
true conductivity from it.

Exit codes: 0 success, 1 configuration or I/O problem, 2 numerical failure
(the message carries the solver's residual report).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
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

# the keys a forward stage depends on, in the order its stage text lists them
_STAGE_KEYS = tuple(key for key in _KEYS
                    if key.split(".", 1)[0] not in ("noise", "output"))
# the arrays of `stage.npz`: that text, then the four data fields
_STAGE_ARRAYS = ("stage", "h11", "h12", "h22", "theta_true")


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


def _atomic_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    # an open file, so that savez does not append `.npz` to the temp name
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
    os.replace(tmp, path)


def export_field(fields: dict[str, ScalarField], path, fmt: str = "csv") -> None:
    """The nodal fields of one mesh to one file.

    CSV has a `node_id,x,y,<name>...` header and one row per node; legacy
    VTK has the mesh once, then one SCALARS block per field.
    """
    if fmt not in _FORMATS:
        raise ParameterError(f"unknown export format {fmt!r}")
    mesh = next(iter(fields.values())).mesh
    if any(field.mesh is not mesh for field in fields.values()):
        raise ContractError("exported fields must live on one mesh")
    # each block is joined as it is formatted, so that only one block's
    # lines are alive at a time
    n_vertices, n_triangles = mesh.n_vertices, mesh.n_triangles
    if fmt == "csv":
        row = "%d,%.17g,%.17g" + ",%.17g" * len(fields)
        columns = [field.values.tolist() for field in fields.values()]
        blocks = [",".join(["node_id,x,y", *fields]),
                  "\n".join(row % cells for cells in zip(
                      range(n_vertices), *mesh.vertices.T.tolist(), *columns))]
    else:
        blocks = ["# vtk DataFile Version 3.0", " ".join(fields), "ASCII",
                  "DATASET UNSTRUCTURED_GRID", f"POINTS {n_vertices} double",
                  "\n".join(f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices.tolist()),
                  f"CELLS {n_triangles} {4 * n_triangles}",
                  "\n".join(f"3 {i} {j} {k}" for i, j, k in mesh.triangles.tolist()),
                  f"CELL_TYPES {n_triangles}", "\n".join(["5"] * n_triangles),
                  f"POINT_DATA {n_vertices}"]
        for name, field in fields.items():
            blocks += [f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                       "\n".join(f"{v:.17g}" for v in field.values.tolist())]
    blocks.append("")  # the final newline
    _atomic_text(Path(path), "\n".join(blocks))


def _write_fields(job: Job, fields: dict[str, ScalarField]) -> None:
    """The fields as one `fields.<format>` file for each format of the job."""
    for fmt in job.formats:
        export_field(fields, job.out_dir / f"fields.{fmt}", fmt)


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
    H = fwd.H
    arrays = (np.array(_stage_text(job.config)), H.h11.values, H.h12.values,
              H.h22.values, fwd.theta_true.values)
    _atomic_npz(job.out_dir / "stage.npz", dict(zip(_STAGE_ARRAYS, arrays)))
    if not quiet:
        print(f"wrote forward data ({fwd.n_data} data nodes, "
              f"{fwd.recon_mesh.n_vertices} reconstruction nodes) to {job.out_dir}")
    return 0


def _load_stage(path: Path) -> dict[str, np.ndarray]:
    """Every array of the stage file, without running any pickled code."""
    try:
        # np.load leaves a file it opened open when the zip is damaged
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except Exception as exc:
        # a damaged zip or npy raises any of BadZipFile, EOFError,
        # ValueError, RuntimeError, NotImplementedError and more
        raise ContractError(f"{path}: not a readable stage "
                            f"({type(exc).__name__}: {exc})") from None


def _check_stage(path: Path, stage: np.ndarray, config: RunConfig) -> None:
    """Raise ContractError unless `stage` is the stage text `config` gives."""
    text = stage.item() if stage.dtype.kind == "U" and stage.ndim == 0 else ""
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
    path = job.out_dir / "stage.npz"
    arrays = _load_stage(path)
    if sorted(arrays) != sorted(_STAGE_ARRAYS):
        raise ContractError(f"{path}: holds arrays {sorted(arrays)}, "
                            f"not {sorted(_STAGE_ARRAYS)}")
    _check_stage(path, arrays.pop("stage"), job.config)
    mesh = base_mesh(job.config)
    for name, values in arrays.items():
        if values.dtype != np.float64 or values.shape != (mesh.n_vertices,):
            raise ContractError(f"{path}: {name} is {values.dtype} of shape "
                                f"{values.shape}, not {mesh.n_vertices} float64 values")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ContractError(f"{path}: {name} is {values[bad[0]]} at node {bad[0]}")
    # `true_theta` writes angles in (-pi, pi]; any other is not its output
    theta = arrays["theta_true"]
    outside = np.flatnonzero((theta <= -np.pi) | (theta > np.pi))
    if outside.size:
        raise ContractError(f"{path}: theta_true angle {float(theta[outside[0]])!r} "
                            f"at node {outside[0]} outside (-pi, pi]")
    h11, h12, h22, theta_true = (ScalarField(mesh, arrays[name]) for name in _STAGE_ARRAYS[1:])
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
    try:
        text = Path(args.config).read_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise ContractError(f"{args.config}: not ASCII text") from None
    job = parse_config(text)
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
