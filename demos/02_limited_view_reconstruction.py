"""
Limited-view reconstruction across shrinking control arcs
==========================================================

Runs the full pipeline (synthesize, reconstruct, score) for test case 1
against each control-arc preset and prints the error table.  The angle of
the first potential's gradient stays accurate even where the data
determinant has collapsed; the conductivity does not, because its
reconstruction must integrate through the collapsed region.  The
reconstructed and true conductivities for the medium arc are written to
``demos/out`` as one CSV and one VTK file, ``medium_sigma.csv`` and
``medium_sigma.vtk``.
"""
from pathlib import Path

from aet2d import RunConfig, record_from_run, render_table, run_pipeline
from aet2d.cli import export_field

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

records = []
for gamma in ("large", "medium", "small"):
    config = RunConfig(case="case1", gamma=gamma, target_h=0.12)
    result = run_pipeline(config)
    records.append(record_from_run(config, result))
    if gamma == "medium":
        fields = {"sigma_recon": result.recon.sigma,
                  "sigma_true": result.forward.sigma_true}
        for fmt in ("csv", "vtk"):
            export_field(fields, out / f"medium_sigma.{fmt}", fmt)

print(render_table(records), end="")

large, medium, small = (r.sigma_error for r in records)
print(f"\nconductivity error grows {large:.0%} -> {medium:.0%} -> {small:.0%} "
      "as the controlled arc shrinks,")
print("while the angle errors in the table stay within a few percent.")
print(f"fields written to {out}")
