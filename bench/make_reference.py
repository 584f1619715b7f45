"""Record the reference outputs that bench/run.py checks every unit against.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/make_reference.py

It writes bench/reference.json: the noiseless pipeline's sigma_error and node
counts, and sigma_error for every ladder point and noise seed the workloads
can draw, at h = 0.03 and h = 0.06.  The forward stage is deterministic, so
one forward per mesh and recon_stage per noise point gives the same values as
run_pipeline, noise_sweep and the CLI.  Takes about two minutes on two cores.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

from run import BENCH, LADDER, NOISE_SEEDS, SRC, cap_threads, ladder_key


def mesh_table(aet2d, target_h: float) -> dict:
    base = aet2d.RunConfig(case="case2", gamma="medium", target_h=target_h)
    fwd = aet2d.forward_stage(base)
    table = {}
    for alpha, floor in LADDER:
        table[ladder_key(alpha, floor)] = [
            aet2d.recon_stage(replace(base, noise=aet2d.NoiseSpec(
                alpha_percent=alpha, seed=seed, eig_floor=floor)), fwd).metrics.sigma_error
            for seed in range(NOISE_SEEDS)]
    return {"n_recon": fwd.recon_mesh.n_vertices, "n_data": fwd.n_data,
            "sigma_error": table}


def main() -> int:
    cap_threads()
    sys.path.insert(0, str(SRC))
    import aet2d

    result = aet2d.run_pipeline(aet2d.RunConfig(case="case2", gamma="medium", target_h=0.03))
    reference = {
        "aet2d_version": aet2d.__version__,
        "pipeline": {"n_recon": result.forward.recon_mesh.n_vertices,
                     "n_data": result.forward.n_data,
                     "sigma_error": result.recon.metrics.sigma_error},
        "h0.03": mesh_table(aet2d, 0.03),
        "h0.06": mesh_table(aet2d, 0.06),
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
