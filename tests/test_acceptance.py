"""Acceptance gate: eleven numbered criteria, one test and one verdict line each.

Expensive pipeline runs at target_h = 0.03 are shared through module-scoped
fixtures; the module targets a few minutes of wall time.

Criterion 7 checks what refinement does to the conductivity error.  With
the full rim controlled, det H stays bounded below and the error falls with
the mesh.  On the medium (half) arc it does not: on the no-flux arc both
potentials have gradients tangent to the rim, so det H = 0 there in the
continuum, and the discrete minimum falls as h^2.  The half-view error then
follows the ratio of data-mesh to reconstruction-mesh resolution rather than
the resolution itself; with that ratio fixed, as on the nested sweep, it
settles near 0.73 instead of falling.

Criterion 11 feeds the inverse step exact data, so what it measures is the
discretization error of the two Poisson solves alone.
"""
import math

import numpy as np
import pytest

from aet2d import (
    NoiseSpec,
    RunConfig,
    forward_stage,
    recon_stage,
    run_pipeline,
    table_mesh_sweep,
)
from aet2d import fem
from aet2d.cli import main as cli_main
from aet2d.fem import (
    ScalarField,
    assemble_conductivity,
    constrain,
    project_to_nodes,
    solve_mixed,
)
from aet2d.forward import CASE1
from aet2d.mesh import GAMMA_FULL, GAMMA_MEDIUM, build_disk_mesh, tag_boundary
from aet2d.noise import floor_symmetric_2x2
from aet2d.recon import (
    boundary_theta,
    reconstruct_sigma,
    run_algorithm1,
    sigma_rhs,
    vector_fields,
)
from oracles import angle_gradient, l2_relative_error, liouville_phantom

CASES = ("case1", "case2")
GAMMAS = ("large", "medium", "small")


@pytest.fixture(scope="module")
def gamma_results():
    return {(case, gamma): run_pipeline(RunConfig(case=case, gamma=gamma,
                                                  target_h=0.03))
            for case in CASES for gamma in GAMMAS}


def test_criterion_01_exact_linear_case(monkeypatch):
    # sigma = 2 with full control makes u_i = x^i exactly, so H = 2I; a
    # solver precision tighter than fem.TOL's 1e-10 is what certifies 1e-9 at
    # the gradient level (1e-10 leaves max |H - 2I| at about 3e-8)
    monkeypatch.setattr(fem, "TOL", 1e-12)
    config = RunConfig(case="constant", gamma="full", target_h=0.03)
    result = run_pipeline(config)
    H = result.forward.H
    deviation = max(np.abs(H.h11.values - 2.0).max(),
                    np.abs(H.h12.values).max(),
                    np.abs(H.h22.values - 2.0).max())
    assert deviation <= 1e-9, f"max |H - 2I| = {deviation:.3e}"
    sigma_error = result.recon.metrics.sigma_error
    assert sigma_error <= 1e-6, f"constant recovery error {sigma_error:.3e}"


def test_criterion_02_discrete_maximum_principle(monkeypatch):
    monkeypatch.setattr(fem, "TOL", 1e-12)
    mesh = tag_boundary(build_disk_mesh(0.03), GAMMA_MEDIUM)
    sigma = CASE1.on_mesh(mesh)
    nodes = mesh.dirichlet_nodes
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        values = rng.uniform(-1.0, 1.0, nodes.size)
        u = solve_mixed(sigma, values).values
        worst = max(worst, float(values.min() - u.min()),
                    float(u.max() - values.max()))
    assert worst <= 1e-9, f"extremum escapes the controlled arc by {worst:.3e}"


def _bulk_angle_residual(fwd, fields) -> float:
    # nodal comparison away from the control-arc corners: the corner rings
    # carry data-solve gradient singularities where neither derivative
    # route is resolved, and they sharpen rather than converge
    mesh = fwd.recon_mesh
    grad_true = project_to_nodes(mesh, angle_gradient(mesh, fwd.theta_true).vectors)
    drive = project_to_nodes(mesh, fields.f.vectors)
    bulk = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) <= 0.9
    return float(np.linalg.norm(grad_true[bulk] - drive[bulk])
                 / np.linalg.norm(grad_true[bulk]))


def test_criterion_03_angle_gradient_consistency(gamma_results):
    base = gamma_results[("case1", "large")]
    coarse = _bulk_angle_residual(base.forward, vector_fields(base.forward.H))

    refined_fwd = forward_stage(RunConfig(case="case1", gamma="large",
                                          target_h=0.03, refine_levels=1))
    refined = _bulk_angle_residual(refined_fwd, vector_fields(refined_fwd.H))

    assert coarse <= 0.05, f"relative residual {coarse:.4f} exceeds 5%"
    assert refined < coarse, (
        f"residual grew under refinement: {coarse:.4f} -> {refined:.4f}")


def _combined_angle_error(result) -> float:
    # both components against one joint norm; the joint reference norm is
    # sqrt(n) exactly, so small-component relative blowup cannot occur
    got = 2.0 * result.recon.theta.values
    want = 2.0 * result.forward.theta_true.values
    num = math.hypot(np.linalg.norm(np.cos(got) - np.cos(want)),
                     np.linalg.norm(np.sin(got) - np.sin(want)))
    den = math.hypot(np.linalg.norm(np.cos(want)), np.linalg.norm(np.sin(want)))
    return num / den


def test_criterion_04_angle_errors_bounded_and_ordered(gamma_results):
    m = {g: gamma_results[("case1", g)].recon.metrics for g in GAMMAS}
    assert m["large"].cos2theta_error <= 0.05
    assert m["large"].sin2theta_error <= 0.05
    for g in GAMMAS:
        assert m[g].cos2theta_error <= 0.08, g
        assert m[g].sin2theta_error <= 0.08, g
    cos_seq = [m[g].cos2theta_error for g in GAMMAS]
    assert cos_seq[0] < cos_seq[1] < cos_seq[2], cos_seq
    pair_seq = [_combined_angle_error(gamma_results[("case1", g)])
                for g in GAMMAS]
    assert pair_seq[0] < pair_seq[1] < pair_seq[2], pair_seq


def test_criterion_05_sigma_error_ordering(gamma_results):
    for case in CASES:
        errs = [gamma_results[(case, g)].recon.metrics.sigma_error
                for g in GAMMAS]
        assert errs[0] < errs[1] < errs[2], (case, errs)
        assert errs[0] <= 0.60, (case, errs[0])


def test_criterion_06_determinant_collapse(gamma_results):
    for case in CASES:
        dets = [gamma_results[(case, g)].recon.diagnostics.min_det
                for g in GAMMAS]
        assert dets[0] >= 100.0 * dets[1], (case, dets)
        assert dets[1] >= 100.0 * dets[2], (case, dets)


def test_criterion_07_sigma_error_under_refinement():
    # control: with the whole rim controlled det H is bounded below, and
    # refinement buys accuracy
    full = [run_pipeline(RunConfig(case="case1", gamma="full", target_h=0.06,
                                   refine_levels=k)).recon.metrics.sigma_error
            for k in (0, 1)]
    assert full[0] >= 1.5 * full[1], (
        f"full-view sigma error did not fall by 1.5x under refinement: "
        f"{[f'{e:.3e}' for e in full]}")

    records = table_mesh_sweep(RunConfig(target_h=0.06))
    pairs = [(r.n_data, r.n_recon) for r in records]
    assert pairs[1][1] == pairs[0][0] and pairs[2][1] == pairs[1][0], pairs

    # mechanism: det H vanishes on the no-flux arc, so its discrete minimum
    # falls as h^2, a factor of about 4 per uniform refinement
    dets = [r.min_det for r in records]
    drops = [dets[i] / dets[i + 1] for i in range(2)]
    assert all(3.0 <= d <= 5.0 for d in drops), (
        f"min_det {[f'{d:.3e}' for d in dets]} falls by "
        f"{[round(d, 2) for d in drops]} per level, not ~4 (h^2)")

    # at a fixed data/recon ratio the half-view error settles, not falls
    errors = [r.sigma_error for r in records]
    shown = f"{[round(e, 4) for e in errors]} at (n_data, n_recon) = {pairs}"
    steps = [abs(errors[1] - errors[0]), abs(errors[2] - errors[1])]
    assert steps[1] < steps[0], (
        f"half-view sigma error does not settle: steps "
        f"{[round(d, 4) for d in steps]}, errors {shown}")
    assert all(abs(e - errors[0]) <= 0.05 * errors[0] for e in errors), (
        f"half-view sigma error moves more than 5% from the coarsest level: "
        f"{shown}")


def test_criterion_08_noise_robustness(gamma_results):
    base = gamma_results[("case2", "medium")]
    noiseless = base.recon.metrics.sigma_error
    fwd = base.forward

    regularized = recon_stage(
        RunConfig(case="case2", gamma="medium", target_h=0.03,
                  noise=NoiseSpec(alpha_percent=5.0, seed=50, eig_floor=1e-5)),
        fwd)
    assert regularized.sigma.values.min() > 0.0
    assert regularized.metrics.sigma_error <= 2.0 * noiseless, (
        regularized.metrics.sigma_error, noiseless)

    under_regularized = recon_stage(
        RunConfig(case="case2", gamma="medium", target_h=0.03,
                  noise=NoiseSpec(alpha_percent=5.0, seed=50, eig_floor=1e-6)),
        fwd)
    assert under_regularized.metrics.sigma_error > regularized.metrics.sigma_error, (
        under_regularized.metrics.sigma_error, regularized.metrics.sigma_error)


def test_criterion_09_eigenvalue_clamp_oracle():
    rng = np.random.default_rng(9)
    a, b, c = rng.standard_normal((3, 10_000))
    floor = 1e-5
    na, nb, nc, _ = floor_symmetric_2x2(a, b, c, floor)

    # oracle route: closed-form input eigenvalues, clamped; implementation
    # route: LAPACK eigenvalues of the recomposed output matrices
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    want_low = np.maximum(mean - radius, floor)
    want_high = np.maximum(mean + radius, floor)

    out = np.empty((a.size, 2, 2))
    out[:, 0, 0], out[:, 0, 1] = na, nb
    out[:, 1, 0], out[:, 1, 1] = nb, nc
    got = np.linalg.eigvalsh(out)

    gap = max(np.abs(got[:, 0] - want_low).max(),
              np.abs(got[:, 1] - want_high).max())
    assert gap <= 1e-12, f"clamped eigenvalues off by {gap:.3e}"


def test_criterion_10_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("mesh.target_h = 0.1\n"
                   "sigma.case = case2\n"
                   "noise.alpha_percent = 5\n"
                   "noise.seed = 50\n"
                   "noise.eig_floor = 1e-5\n"
                   "output.formats = csv, vtk\n")
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        assert cli_main(["run", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        assert cli_main(["noise-sweep", "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 0
    for name in ("record.csv", "noise_sweep.csv", "sigma_recon.csv",
                 "theta_recon.csv", "sigma_recon.vtk", "theta_recon.vtk"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_criterion_11_second_order_on_exact_data():
    # exact nodal H, rim theta and rim sigma of the Liouville phantom: the
    # errors are the inverse step's own, and P1 solves make them O(h^2)
    hs = (0.12, 0.06, 0.03)
    full, arc = [], []
    for h in hs:
        mesh = tag_boundary(build_disk_mesh(h), GAMMA_FULL)
        H, theta, sigma = liouville_phantom(mesh)
        rim = mesh.boundary_nodes
        metrics = run_algorithm1(H, boundary_theta(mesh, theta.values[rim]),
                                 sigma.values[rim], truth=(theta, sigma)).metrics
        full.append((metrics.cos2theta_error, metrics.sin2theta_error,
                     metrics.sigma_error))

        # the sigma solve fixed on the controlled arc only, with the
        # natural condition on the rest of the rim
        mesh = tag_boundary(build_disk_mesh(h), GAMMA_MEDIUM)
        H, theta, sigma = liouville_phantom(mesh)
        unit = assemble_conductivity(ScalarField(mesh, np.ones(mesh.n_vertices)))
        recovered, _ = reconstruct_sigma(sigma_rhs(theta, vector_fields(H)),
                                         sigma.values[mesh.dirichlet_nodes],
                                         constrain(unit, mesh.dirichlet_nodes))
        arc.append(l2_relative_error(recovered, sigma))

    columns = {"cos 2theta": [e[0] for e in full], "sin 2theta": [e[1] for e in full],
               "sigma": [e[2] for e in full], "arc-only sigma": arc}
    for name, errors in columns.items():
        orders = [math.log(errors[k] / errors[k + 1]) / math.log(hs[k] / hs[k + 1])
                  for k in range(len(hs) - 1)]
        assert min(orders) >= 1.8, (
            f"{name} error {[f'{e:.3e}' for e in errors]} at h = {hs} falls at "
            f"orders {[round(o, 2) for o in orders]}, not 2")
    assert columns["sigma"][1] <= 6e-5, f"sigma error {columns['sigma'][1]:.3e} at h = 0.06"
    assert arc[1] <= 8e-5, f"arc-only sigma error {arc[1]:.3e} at h = 0.06"
