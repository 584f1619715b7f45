"""The calls the benchmark's traced pass makes, run on a coarse mesh.

`bench/spans.py` wraps functions at the names their callers look them up by,
passes `return_info=True` to the wrapped solves, and hands
`unwrap_arcs=None` to `dataclasses.replace` of every traced forward config.
A change that drops any of these makes every benchmark unit fail; here it
fails a test instead. The harness is imported read-only: it is executed from
its file without writing bytecode next to it.

The `noise-sweep` workload's reference check runs here too, at h = 0.06, so a
solver change that moves `sigma_error` past the benchmark's tolerance fails
tier-1 as well; it only reads `bench/`.
"""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import aet2d
import aet2d.cli
from aet2d import NoiseSpec, RunConfig
from aet2d.fem import SolveInfo

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"

# sites the harness names that the package no longer has; the benchmark
# change that drops them from `bench/spans.py` empties this set
KNOWN_MISSING = {"aet2d.pipeline:transfer", "aet2d.recon:l2_relative_error",
                 "aet2d.cli:_read_meta", "aet2d.cli:read_mesh",
                 "aet2d.cli:write_mesh", "aet2d.cli:read_field_csv"}

CONFIG = RunConfig(case="case2", gamma="medium", target_h=0.3)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load_spans()


@pytest.fixture()
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def assert_traced(tracer, mixed: int, poisson: int):
    assert set(tracer.missing) == KNOWN_MISSING
    assert Counter(name for name, _ in tracer.solves) == {
        "fem.solve_mixed": mixed, "fem.solve_poisson": poisson}
    for _, info in tracer.solves:
        assert isinstance(info, SolveInfo)
        assert info.relative_residual <= 100.0 * aet2d.fem.TOL


def test_noisy_pipeline(tracer):
    config = RunConfig(case="case2", gamma="medium", target_h=0.3,
                       noise=NoiseSpec(alpha_percent=5.0, seed=1))
    result = aet2d.run_pipeline(config)
    assert result.recon.metrics.sigma_error > 0.0
    assert_traced(tracer, mixed=2, poisson=2)
    assert tracer.counts["pipeline.forward_stage_calls"] == 1


def test_noise_sweep(tracer):
    records = aet2d.noise_sweep(CONFIG)
    assert len(records) == 3
    # one forward stage serves the whole ladder
    assert_traced(tracer, mixed=2, poisson=6)
    assert tracer.counts["pipeline.forward_stage_calls"] == 1
    assert tracer.counts["pipeline.recon_stage_calls"] == 3


def test_cli_forward_then_reconstruct(tracer, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh.target_h = 0.3\nsigma.case = case2\n"
                   "noise.alpha_percent = 5.0\noutput.formats = csv,vtk\n",
                   encoding="ascii")
    stage = tmp_path / "stage"
    for command in ("forward", "reconstruct"):
        argv = [command, "--config", str(cfg), "--out", str(stage), "--quiet"]
        assert aet2d.cli.main(argv) == 0
    assert (stage / "fields.vtk").is_file()
    assert_traced(tracer, mixed=2, poisson=2)
    # the stage is read by np.load, which no site of the harness wraps
    assert tracer.counts.get("cli.read_calls", 0) == 0
    assert tracer.counts["cli.files_written"] > 0


def _bench_constant(name: str):
    """A constant `bench/run.py` assigns, read from its source without running it."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2,
                    reason="the reference was recorded at two BLAS threads")
def test_noise_sweep_matches_the_reference():
    # seeds 0 and 63 are the first and last the reference records
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    code = ("import json, aet2d\n"
            "for seed in (0, 63):\n"
            "    config = aet2d.RunConfig(case='case2', gamma='medium', target_h=0.06,\n"
            "                             noise=aet2d.NoiseSpec(seed=seed))\n"
            "    print(json.dumps([[r.alpha_percent, r.eig_floor, r.noise_seed, r.sigma_error]\n"
            "                      for r in aet2d.noise_sweep(config)]))")
    src = str(Path(aet2d.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
               MKL_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    rtol = _bench_constant("SIGMA_RTOL")
    table = reference["h0.06"]["sigma_error"]
    records = [record for line in run.stdout.splitlines() for record in json.loads(line)]
    assert [record[2] for record in records] == [0, 0, 0, 63, 63, 63]
    for alpha, floor, seed, got in records:
        want = table[f"{alpha:g}/{floor:g}"][seed]
        assert abs(got - want) <= rtol * abs(want), (alpha, seed, got, want)
