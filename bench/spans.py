"""Outside-in tracing of aet2d for the benchmark's traced pass.

The tracer replaces functions at the names their callers look them up by
(`aet2d.pipeline.solve_mixed`, not `aet2d.fem.solve_mixed`, because
`forward_stage` calls the name bound in its own module).  Every wrapped call
records a span (name, start, end, parent, unit) in memory; layer self time is
derived from the spans afterwards, so the wrappers do no arithmetic beyond
two clock reads and a few counters.

A site whose attribute no longer exists is skipped and listed in
`Tracer.missing`, so a later change that removes a function (say `transfer`)
shows up as zero calls instead of a crashed run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import replace

# span name -> sites ("module:attribute") whose calls it records
LAYERS = {
    "mesh.build_disk_mesh": ("aet2d.pipeline:build_disk_mesh",),
    "mesh.refine": ("aet2d.pipeline:refine",),
    "mesh.tag_boundary": ("aet2d.pipeline:tag_boundary",),
    "mesh.read_mesh": ("aet2d.cli:read_mesh",),
    "fem.solve_mixed": ("aet2d.pipeline:solve_mixed",),
    "fem.solve_poisson": ("aet2d.recon:solve_poisson_weak_div",),
    "fem.l2": ("aet2d.recon:l2_norm", "aet2d.recon:l2_relative_error"),
    "forward.transfer": ("aet2d.pipeline:transfer",),
    "forward.power_density": ("aet2d.pipeline:power_density",),
    "forward.true_theta": ("aet2d.pipeline:true_theta",),
    "noise.perturb": ("aet2d.pipeline:perturb",),
    "noise.clamp_eigenvalues": ("aet2d.pipeline:clamp_eigenvalues",),
    "recon.vector_fields": ("aet2d.recon:vector_fields",),
    "recon.run_algorithm1": ("aet2d.pipeline:run_algorithm1",),
    "pipeline.forward_stage": ("aet2d.pipeline:forward_stage", "aet2d.cli:forward_stage"),
    "pipeline.recon_stage": ("aet2d.pipeline:recon_stage", "aet2d.cli:recon_stage",
                             "aet2d:recon_stage"),
    "cli.read": ("aet2d.cli:read_field_csv", "aet2d.cli:_read_meta"),
    # export_field formats and calls _atomic_text; record.csv and meta.txt go
    # through _atomic_text alone and mesh.txt through write_mesh, so together
    # they cover every file the CLI writes
    "cli.write": ("aet2d.cli:export_field", "aet2d.cli:_atomic_text",
                  "aet2d.cli:write_mesh"),
}

# site -> Tracer method run on (args, result) after each call there
_AFTER = {
    "aet2d.pipeline:clamp_eigenvalues": "_after_clamp",
    "aet2d.pipeline:run_algorithm1": "_after_algorithm1",
    "aet2d.pipeline:forward_stage": "_after_forward",
    "aet2d.cli:forward_stage": "_after_forward",
    "aet2d.pipeline:recon_stage": "_after_recon_stage",
    "aet2d.cli:recon_stage": "_after_recon_stage",
    "aet2d:recon_stage": "_after_recon_stage",
    "aet2d.cli:read_field_csv": "_after_read",
    "aet2d.cli:_read_meta": "_after_read",
    "aet2d.cli:_atomic_text": "_after_write",
    "aet2d.cli:write_mesh": "_after_write_file",
}

# per-layer metrics reported by the traced pass: name -> unit
LAYER_METRICS = {
    "mesh.build_disk_mesh_s": "s",
    "mesh.refine_s": "s",
    "mesh.tag_boundary_s": "s",
    "mesh.read_mesh_s": "s",
    "mesh.recon_nodes": "count",
    "mesh.data_nodes": "count",
    "fem.solve_mixed_s": "s",
    "fem.solve_mixed_calls": "count",
    "fem.solve_mixed_iters": "count",
    "fem.solve_mixed_residual": "ratio",
    "fem.solve_poisson_s": "s",
    "fem.solve_poisson_calls": "count",
    "fem.solve_poisson_iters": "count",
    "fem.l2_s": "s",
    "fem.l2_calls": "count",
    "forward.transfer_s": "s",
    "forward.transfer_calls": "count",
    "forward.power_density_s": "s",
    "forward.true_theta_s": "s",
    "noise.perturb_s": "s",
    "noise.clamp_eigenvalues_s": "s",
    "noise.eig_floor_nodes": "count",
    "recon.vector_fields_s": "s",
    "recon.run_algorithm1_s": "s",
    "recon.d_clamp_nodes": "count",
    "recon.sigma_error": "ratio",
    "pipeline.forward_stage_s": "s",
    "pipeline.forward_stage_calls": "count",
    "pipeline.recon_stage_s": "s",
    "pipeline.recon_stage_calls": "count",
    "metrics.forward_reuse": "ratio",
    "cli.read_s": "s",
    "cli.read_bytes": "bytes",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# metrics that are a size or a worst case, not a sum over units
_LEVELS = ("mesh.recon_nodes", "mesh.data_nodes", "fem.solve_mixed_residual",
           "recon.sigma_error")


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit]
        self.counts: dict[str, float] = defaultdict(float)
        self.solves: list[tuple[str, object]] = []  # (span name, SolveInfo)
        self.forward_keys: dict[int, set] = defaultdict(set)
        self.missing: list[str] = []
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, sites in LAYERS.items():
            call = _solve_call if name in ("fem.solve_mixed", "fem.solve_poisson") else _plain_call
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(site)
                    continue
                hook = getattr(self, _AFTER[site]) if site in _AFTER else None
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, call, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, call, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = call(self, name, fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.counts[name + "_calls"] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- per-layer hooks ----------------------------------------------------

    def _after_clamp(self, args, H):
        self.counts["noise.eig_floor_nodes"] += len(getattr(H, "eig_floor_nodes", ()))

    def _after_algorithm1(self, args, result):
        self.counts["recon.d_clamp_nodes"] += result.diagnostics.d_clamp_count
        if result.metrics is not None:
            key = "recon.sigma_error"
            self.counts[key] = max(self.counts[key], result.metrics.sigma_error)

    def _after_forward(self, args, fwd):
        from aet2d import NoiseSpec
        # the forward configuration is the config without what only recon reads
        self.forward_keys[self.unit].add(
            replace(args[0], noise=NoiseSpec(), unwrap_arcs=None))
        self._mesh_sizes(fwd)

    def _after_recon_stage(self, args, result):
        self._mesh_sizes(args[1])

    def _mesh_sizes(self, fwd):
        self.counts["mesh.recon_nodes"] = fwd.recon_mesh.n_vertices
        self.counts["mesh.data_nodes"] = fwd.n_data

    def _after_read(self, args, result):
        self.counts["cli.read_bytes"] += os.path.getsize(args[0])

    def _after_write(self, args, result):
        self.counts["cli.write_bytes"] += len(args[1].encode("ascii"))
        self.counts["cli.files_written"] += 1

    def _after_write_file(self, args, result):
        self.counts["cli.write_bytes"] += os.path.getsize(args[1])
        self.counts["cli.files_written"] += 1

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, unit), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layer_metrics(self, units: int, traced_wall: float, untraced_wall: float,
                      traced_total: float) -> dict[str, float]:
        """Every per-layer metric: layer times and counts per traced unit.

        `traced_wall` and `untraced_wall` are median seconds per unit with
        and without the tracer; `traced_total` is the summed wall time of
        the traced units.
        """
        own = self.self_times()
        out = {}
        for metric in LAYER_METRICS:
            if metric in _LEVELS:
                out[metric] = self.counts.get(metric, 0.0)
            elif metric.endswith("_s") and metric[:-2] in LAYERS:
                out[metric] = own.get(metric[:-2], 0.0) / units
            else:
                out[metric] = self.counts.get(metric, 0.0) / units
        calls = self.counts.get("pipeline.forward_stage_calls", 0.0)
        distinct = sum(len(keys) for keys in self.forward_keys.values())
        out["metrics.forward_reuse"] = distinct / calls if calls else 0.0
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.coverage"] = self.top_level_seconds() / traced_total
        return out

    def write(self, path) -> None:
        """Spans as JSON rows [name, start, end, parent, unit], times from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - origin, e - origin, p, u] for n, s, e, p, u in self.spans]
        with open(path, "w", encoding="ascii") as f:
            json.dump({"missing_sites": self.missing, "spans": rows}, f)


def _plain_call(tracer, name, fn, args, kwargs):
    return fn(*args, **kwargs)


def _solve_call(tracer, name, fn, args, kwargs):
    # the forward discards its SolveInfo; ask for it and strip it again
    want_info = kwargs.pop("return_info", False)
    field, info = fn(*args, return_info=True, **kwargs)
    tracer.solves.append((name, info))
    tracer.counts[name + "_iters"] += info.iterations
    key = name + "_residual"
    tracer.counts[key] = max(tracer.counts[key], info.relative_residual)
    return (field, info) if want_info else field
