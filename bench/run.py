"""Benchmark of the aet2d pipeline: four workloads and a traced pass.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload cli-flow --seed 1 --seconds 40 --trace 0

BENCHMARK.json lists cli-flow and noise-sweep; pipeline, recon-ladder and
cli-stage run the same way but are not part of the declared benchmark (see
bench/README.md).

With `--trace 0` it times the workload's unit of work and prints the
end-to-end metrics; with `--trace 1` it times an untraced and a traced pass
and prints the per-layer metrics (see bench/README.md).  Every unit's
outputs are checked against this repository's recorded reference values
(bench/reference.json).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "out"

# setup_s is the median over fresh-process set-ups: at least this many, and
# more while their total stays under SETUP_SECONDS (cheap set-ups are noisy)
SETUP_SAMPLES = 3
SETUP_SECONDS = 3.0
TOL = 1e-10  # RunConfig's default solver tolerance, which every workload uses
SIGMA_RTOL = 1e-9  # allowed relative drift of sigma_error from the reference

# the published (alpha percent, eigenvalue floor) ladder, equal to
# aet2d.metrics.NOISE_LADDER when reference.json was recorded
LADDER = ((1.0, 1e-6), (5.0, 1e-5), (10.0, 1e-5))

# reference.json holds sigma_error for noise seeds 0 .. NOISE_SEEDS - 1
NOISE_SEEDS = 64

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "sigma_error_ratio": "ratio", "ok_frac": "ratio"}


def noise_seeds(seed: int, count: int) -> list[int]:
    """The `count` noise seeds that benchmark seed `seed` selects, all below NOISE_SEEDS."""
    return [(seed * count + j) % NOISE_SEEDS for j in range(count)]


def ladder_key(alpha: float, floor: float) -> str:
    return f"{alpha:g}/{floor:g}"


def solve_problems(label: str, infos) -> list[str]:
    return [f"{label}: {info.method} solve residual {info.relative_residual:.3e} > 100*tol"
            for info in infos if info.relative_residual > 100.0 * TOL]


def sigma_check(label: str, got: float, want: float, ratios: list, problems: list) -> None:
    ratios.append(got / want)
    if abs(got - want) > SIGMA_RTOL * abs(want):
        problems.append(f"{label}: sigma_error {got!r} differs from reference {want!r}")


def recon_problems(label: str, recon) -> list[str]:
    d = recon.diagnostics
    return solve_problems(label, (d.theta_solve, d.sigma_solve))


class Pipeline:
    """One noiseless run_pipeline; the two forward PCG solves dominate it."""

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["pipeline"]
        self.noise_seeds = []  # noiseless: the inputs do not depend on the seed

    def setup(self, work: Path) -> None:
        import aet2d
        self.config = aet2d.RunConfig(case="case2", gamma="medium", target_h=0.03)

    def unit(self):
        import aet2d
        return aet2d.run_pipeline(self.config)

    def check(self, result):
        ratios, problems = [], []
        ref = self.reference
        sizes = (result.forward.recon_mesh.n_vertices, result.forward.n_data)
        if sizes != (ref["n_recon"], ref["n_data"]):
            problems.append(f"node counts {sizes} != {(ref['n_recon'], ref['n_data'])}")
        sigma_check("pipeline", result.recon.metrics.sigma_error, ref["sigma_error"],
                    ratios, problems)
        problems += recon_problems("pipeline", result.recon)
        return ratios, problems


class ReconLadder:
    """recon_stage over the noise ladder x 2 seeds on one forward made in set-up."""

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["h0.03"]
        self.noise_seeds = noise_seeds(seed, 2)

    def setup(self, work: Path) -> None:
        import aet2d
        base = aet2d.RunConfig(case="case2", gamma="medium", target_h=0.03)
        self.fwd = aet2d.forward_stage(base)
        self.configs = [
            replace(base, noise=aet2d.NoiseSpec(alpha_percent=alpha, seed=s, eig_floor=floor))
            for alpha, floor in LADDER for s in self.noise_seeds]

    def unit(self):
        import aet2d
        return [aet2d.recon_stage(config, self.fwd) for config in self.configs]

    def check(self, recons):
        ratios, problems = [], []
        for config, recon in zip(self.configs, recons):
            noise = config.noise
            label = f"alpha {noise.alpha_percent:g} seed {noise.seed}"
            want = self.reference["sigma_error"][ladder_key(noise.alpha_percent,
                                                            noise.eig_floor)][noise.seed]
            sigma_check(label, recon.metrics.sigma_error, want, ratios, problems)
            problems += recon_problems(label, recon)
        return ratios, problems


class CliStage:
    """`aet2d reconstruct` on a stage directory that `aet2d forward` wrote in set-up."""

    ALPHA, FLOOR = LADDER[1]

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["h0.03"]
        self.noise_seeds = noise_seeds(seed, 1)
        self._expected = None

    def setup(self, work: Path) -> None:
        import aet2d.cli
        self._write_config(work)
        code = aet2d.cli.main(self._argv("forward"))
        if code != 0:
            raise RuntimeError(f"aet2d forward exited with {code}")

    def _write_config(self, work: Path) -> None:
        self.stage = work / "stage"
        self.config_path = work / "run.cfg"
        self.config_path.write_text(
            "mesh.target_h = 0.03\n"
            "gamma.preset = medium\n"
            "sigma.case = case2\n"
            f"noise.alpha_percent = {self.ALPHA!r}\n"
            f"noise.eig_floor = {self.FLOOR!r}\n"
            f"noise.seed = {self.noise_seeds[0]}\n"
            "output.formats = csv,vtk\n", encoding="ascii")

    def _argv(self, command: str) -> list[str]:
        return [command, "--config", str(self.config_path), "--out", str(self.stage), "--quiet"]

    def unit(self):
        import aet2d.cli
        return aet2d.cli.main(self._argv("reconstruct"))

    def check(self, code):
        ratios, problems = [], []
        if code != 0:
            return ratios, [f"aet2d exited with {code}"]
        record = (self.stage / "record.csv").read_bytes()
        header, row = record.decode("ascii").splitlines()[:2]
        got = float(row.split(",")[header.split(",").index("sigma_error")])
        want = self.reference["sigma_error"][ladder_key(self.ALPHA, self.FLOOR)][
            self.noise_seeds[0]]
        sigma_check("record.csv", got, want, ratios, problems)
        if record != self.expected_record():
            problems.append("record.csv differs from run_pipeline's record")
        return ratios, problems

    def expected_record(self) -> bytes:
        """record.csv as an in-process run_pipeline of the same config writes it."""
        if self._expected is None:
            import aet2d
            config = aet2d.RunConfig(
                case="case2", gamma="medium", target_h=0.03,
                noise=aet2d.NoiseSpec(alpha_percent=self.ALPHA, seed=self.noise_seeds[0],
                                      eig_floor=self.FLOOR))
            record = aet2d.record_from_run(config, aet2d.run_pipeline(config))
            self._expected = aet2d.records_to_csv([record]).encode("ascii")
        return self._expected


class CliFlow(CliStage):
    """`aet2d forward` then `aet2d reconstruct` through one stage directory.

    The forward's solves dilute the string formatting and parsing that make
    up most of a reconstruct-only unit; that formatting slows by up to 25%
    when other tenants load the host, the solves by far less.
    """

    def setup(self, work: Path) -> None:
        import aet2d.cli
        self._write_config(work)

    def unit(self):
        import aet2d.cli
        code = aet2d.cli.main(self._argv("forward"))
        if code != 0:
            return code
        return aet2d.cli.main(self._argv("reconstruct"))


class NoiseSweep:
    """The public noise_sweep at a coarse mesh: three full pipelines per call today."""

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["h0.06"]
        self.noise_seeds = noise_seeds(seed, 1)

    def setup(self, work: Path) -> None:
        import aet2d
        self.config = aet2d.RunConfig(case="case2", gamma="medium", target_h=0.06,
                                      noise=aet2d.NoiseSpec(seed=self.noise_seeds[0]))

    def unit(self):
        import aet2d
        return aet2d.noise_sweep(self.config)

    def check(self, records):
        ratios, problems = [], []
        ref = self.reference
        points = [(r.alpha_percent, r.eig_floor) for r in records]
        if points != list(LADDER):
            problems.append(f"swept points {points} != {list(LADDER)}")
        for r in records:
            label = f"alpha {r.alpha_percent:g}"
            if (r.n_recon, r.n_data) != (ref["n_recon"], ref["n_data"]):
                problems.append(f"{label}: node counts {(r.n_recon, r.n_data)}")
            table = ref["sigma_error"].get(ladder_key(r.alpha_percent, r.eig_floor))
            if table is not None and r.noise_seed == self.noise_seeds[0]:
                sigma_check(label, r.sigma_error, table[r.noise_seed], ratios, problems)
            else:
                problems.append(f"{label}: no reference for seed {r.noise_seed}")
        return ratios, problems


WORKLOADS = {
    "pipeline": Pipeline,
    "recon-ladder": ReconLadder,
    "cli-stage": CliStage,
    "cli-flow": CliFlow,
    "noise-sweep": NoiseSweep,
}


def timed_units(workload, seconds: float, min_units: int, tracer=None):
    """Run units until `seconds` have passed and at least `min_units` ran.

    Each unit is checked as soon as its clock stops and its result dropped,
    so memory does not grow with the number of units.  Returns (seconds per
    unit, sigma ratios of all units, problems per unit); a unit that raised
    or failed a check has problems.
    """
    times, ratios, problems = [], [], []
    start = time.perf_counter()
    while len(times) < min_units or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.unit = len(times)
        t0 = time.perf_counter()
        try:
            result = workload.unit()
        except Exception as exc:  # a failed unit is counted, not fatal
            times.append(time.perf_counter() - t0)
            problems.append([f"{type(exc).__name__}: {exc}"])
            continue
        times.append(time.perf_counter() - t0)
        unit_ratios, unit_problems = workload.check(result)
        del result
        ratios += unit_ratios
        problems.append(unit_problems)
    return times, ratios, problems


def setup_in_fresh_process(args) -> float:
    """Seconds from before `import aet2d` to the end of set-up, in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def versions(threads: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": usable_cpus(), "thread_cap": threads}


def run(args, workload, work: Path, threads: int) -> tuple[dict, dict]:
    """Set up, warm up, time (and trace) the workload; returns (info, result)."""
    t0 = time.perf_counter()
    workload.setup(work)
    setup_samples = [time.perf_counter() - t0]
    import aet2d
    if Path(aet2d.__file__).resolve().parent != SRC / "aet2d":
        raise RuntimeError(f"imported aet2d from {aet2d.__file__}, not from {SRC}")
    if not args.trace:
        while len(setup_samples) < SETUP_SAMPLES or sum(setup_samples) < SETUP_SECONDS:
            setup_samples.append(setup_in_fresh_process(args))

    # warm-up: lazy imports and first-touch allocations; traced so that every
    # solve's residual, the forward's included, can be checked
    warm = Tracer()
    warm.install()
    try:
        _, _, (warm_problems,) = timed_units(workload, 0.0, 1)
    finally:
        warm.uninstall()
    global_problems = [f"warm-up: {p}" for p in warm_problems]
    global_problems += solve_problems("warm-up", (info for _, info in warm.solves))

    if args.trace:
        times, ratios, problems = timed_units(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, traced_ratios, traced_problems = timed_units(
                workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        WORK.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
        ratios += traced_ratios
        problems += traced_problems
    else:
        times, ratios, problems = timed_units(workload, args.seconds, 2)

    failed = sum(1 for p in problems if p)
    attempted = len(problems)

    if args.trace:
        metrics = tracer.layer_metrics(
            units=len(traced_times), traced_wall=statistics.median(traced_times),
            untraced_wall=statistics.median(times), traced_total=sum(traced_times))
        units = LAYER_METRICS
    else:
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sigma_error_ratio": max(ratios) if ratios else 0.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "noise_seeds": workload.noise_seeds, "wall_samples": times,
            "setup_samples": setup_samples, **versions(threads)}
    if args.trace:
        info["traced_samples"] = traced_times
        info["missing_sites"] = tracer.missing
    info["problems"] = global_problems + [f"unit {i}: {p}" for i, ps in enumerate(problems)
                                          for p in ps]
    result = {"correct": failed == 0 and not global_problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return info, result


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the usable CPUs; must run before numpy loads."""
    n = usable_cpus()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s samples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_threads()
    if not (SRC / "aet2d" / "__init__.py").is_file():
        print(f"error: no aet2d package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    workload = WORKLOADS[args.workload](args.seed, reference)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            workload.setup(work)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        info, result = run(args, workload, work, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    WORK.joinpath("results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    WORK.joinpath("results", name).write_text(
        json.dumps({"info": info, "result": result}, indent=1), encoding="ascii")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
