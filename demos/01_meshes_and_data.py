"""
Meshes, boundary control, and what the data matrix sees
========================================================

Builds the structured disk mesh at a few resolutions, tags the three
control-arc presets, synthesizes the power-density matrix for each, and
shows how the smallest determinant of the data collapses as the
controlled arc shrinks.  Writes the medium-arc log-determinant field,
with the mesh it lives on, to ``demos/out`` for inspection (the VTK
file opens in ParaView or similar).
"""
from pathlib import Path

from aet2d import RunConfig, det_diagnostics, forward_stage
from aet2d.cli import export_field

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# resolution ladder: target_h controls the rim spacing, the builder
# picks the ring count
print("mesh sizes")
for target_h in (0.3, 0.12, 0.06):
    fwd = forward_stage(RunConfig(target_h=target_h))
    mesh = fwd.recon_mesh
    print(f"  target_h={target_h:<5} reconstruction nodes={mesh.n_vertices:>6}"
          f"  data nodes={fwd.n_data:>6}  triangles={mesh.n_triangles:>6}")

# the same conductivity seen through smaller and smaller control arcs:
# the two boundary potentials become nearly parallel far from the arc,
# and the determinant of the data matrix records exactly that
print("\ndeterminant collapse, case 1 at target_h=0.12")
for gamma in ("large", "medium", "small"):
    fwd = forward_stage(RunConfig(case="case1", gamma=gamma, target_h=0.12))
    min_det, log_det = det_diagnostics(fwd.H)
    print(f"  gamma={gamma:<7} min det H = {min_det:.3e}")
    if gamma == "medium":
        export_field({"log_det": log_det}, out / "medium_log_det.vtk", "vtk")

print(f"\nwrote {out / 'medium_log_det.vtk'}")
