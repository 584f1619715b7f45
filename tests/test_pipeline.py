"""Pipeline wiring: config validation, nested-grid synthesis, noise staging."""
import numpy as np
import pytest

from aet2d import pipeline
from aet2d.errors import NumericalError, ParameterError
from aet2d.fem import ScalarField, solve_mixed
from aet2d.forward import CONSTANT, PowerDensity, restrict, true_theta
from aet2d.mesh import GAMMA_MEDIUM, build_disk_mesh, refine, tag_boundary
from aet2d.noise import NoiseSpec
from aet2d.pipeline import (
    ForwardData,
    RunConfig,
    apply_noise,
    forward_stage,
    run_pipeline,
)
from oracles import edge_count


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.boundary_spec() is GAMMA_MEDIUM
        assert cfg.conductivity().label == "case1"

    def test_constant_case(self):
        case = RunConfig(case="constant").conductivity()
        assert case is CONSTANT
        assert case.evaluate(np.array([0.2]), np.array([0.1]))[0] == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"case": "case3"},
        {"gamma": "custom"},
        {"gamma": "huge"},
        {"target_h": 0.0},
        {"target_h": 1.5},
        {"refine_levels": -1},
        {"refine_levels": 7},
        {"gamma": "Medium"},
        {"case": ""},
        {"refine_levels": "1"},
        {"noise": 0.05},
        {"target_h": 1.0},
        {"refine_levels": 1.5},
        {"target_h": -0.1},
        {"unwrap_arcs": ()},
        {"unwrap_arcs": ((0.5, 1.0),)},
        {"target_h": float("inf")},
        {"noise": None},
        {"refine_levels": 2.0},
        {"unwrap_arcs": ((float("nan"), 1.0),)},
        {"target_h": float("nan")},
        {"refine_levels": True},
        {"noise": {"seed": True}},
        {"refine_levels": 6},
        {"target_h": 1e-4},
        {"target_h": 5e-324},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            # a dict for `noise` gives the NoiseSpec's fields
            if isinstance(kwargs.get("noise"), dict):
                kwargs = {**kwargs, "noise": NoiseSpec(**kwargs["noise"])}
            RunConfig(**kwargs)


class TestForwardStage:
    def test_constant_case_exact_data(self):
        cfg = RunConfig(case="constant", gamma="full", target_h=0.3)
        fwd = forward_stage(cfg)
        # u1 = x and u2 = y are exact P1 solutions, so H = 2 I up to solver tolerance
        assert np.abs(fwd.H.h11.values - 2.0).max() <= 1e-9
        assert np.abs(fwd.H.h12.values).max() <= 1e-9
        assert np.abs(fwd.H.h22.values - 2.0).max() <= 1e-9
        assert np.abs(fwd.theta_true.values).max() <= 1e-7
        assert np.all(fwd.sigma_true.values == 2.0)

    def test_data_mesh_is_one_refinement_finer(self):
        cfg = RunConfig(case="constant", gamma="full", target_h=0.3)
        fwd = forward_stage(cfg)
        # uniform refinement adds one node per edge
        assert fwd.n_data == fwd.recon_mesh.n_vertices + edge_count(fwd.recon_mesh)
        assert fwd.n_data == refine(fwd.recon_mesh).n_vertices

    def test_refine_levels_chain_like_the_mesh_sweep(self):
        base = forward_stage(RunConfig(case="constant", gamma="full", target_h=0.4))
        finer = forward_stage(RunConfig(case="constant", gamma="full", target_h=0.4,
                                        refine_levels=1))
        assert finer.recon_mesh.n_vertices == base.n_data

    def test_fields_live_on_recon_mesh(self):
        # the reconstruction mesh is read from the data matrix
        cfg = RunConfig(case="case1", gamma="large", target_h=0.25)
        fwd = forward_stage(cfg)
        mesh = fwd.recon_mesh
        assert mesh is fwd.H.mesh
        assert fwd.sigma_true.mesh is mesh
        assert fwd.theta_true.mesh is mesh
        assert mesh.vertices.tobytes() == pipeline.base_mesh(cfg).vertices.tobytes()
        assert fwd.H.d.values.min() > 0.0

    def test_angle_truth_is_restricted_true_theta(self, monkeypatch):
        # the angle truth is true_theta's value at each reconstruction node,
        # bit for bit, apart from the rim nodes the tangency override sets
        seen = []

        def recording(u1):
            theta, flagged = true_theta(u1)
            seen.append((u1, theta))
            return theta, flagged

        monkeypatch.setattr(pipeline, "true_theta", recording)
        fwd = forward_stage(RunConfig(case="case2", gamma="medium", target_h=0.1))
        [(u1, theta_data)] = seen
        mesh = fwd.recon_mesh
        want = restrict(theta_data, mesh).values
        overridden = pipeline._tangency_override(mesh, restrict(u1, mesh).values, want)
        assert overridden.size > 0
        assert fwd.theta_true.values.tobytes() == want.tobytes()

    def test_potentials_share_one_operator_bit_for_bit(self, monkeypatch):
        # both forward solves take one prebuilt operator; each potential must
        # equal a solve that assembles and constrains its own system.  Their
        # data are x and y at the controlled nodes only, in sorted order.
        calls = []

        def recording(*args, **kwargs):
            result = solve_mixed(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(pipeline, "solve_mixed", recording)
        forward_stage(RunConfig(case="case1", gamma="medium", target_h=0.1))
        assert len(calls) == 2
        assert calls[0][1]["operator"] is calls[1][1]["operator"]
        mesh = calls[0][0][0].mesh
        controlled = mesh.dirichlet_nodes
        assert 0 < controlled.size < mesh.boundary_nodes.size
        for axis, ((_, bc), _, _) in enumerate(calls):
            assert bc.tobytes() == mesh.vertices[controlled, axis].tobytes()
        for (sigma, bc), kwargs, shared in calls:
            alone = solve_mixed(sigma, bc)
            assert shared.values.tobytes() == alone.values.tobytes()

    def test_flagged_boundary_node_rejected(self, monkeypatch):
        # the angle truth is the angle solve's boundary data; the tangency
        # override settles only uncontrolled rim nodes, so a controlled one
        # stays undefined
        def flag_a_controlled_node(u1):
            theta, flagged = true_theta(u1)
            return theta, np.union1d(flagged, u1.mesh.dirichlet_nodes[:1])

        monkeypatch.setattr(pipeline, "true_theta", flag_a_controlled_node)
        with pytest.raises(NumericalError, match="boundary"):
            forward_stage(RunConfig(case="case1", gamma="medium", target_h=0.3))

    def test_forward_is_deterministic(self):
        cfg = RunConfig(case="case1", gamma="medium", target_h=0.3)
        a = forward_stage(cfg)
        b = forward_stage(cfg)
        assert a.H.h11.values.tobytes() == b.H.h11.values.tobytes()
        assert a.theta_true.values.tobytes() == b.theta_true.values.tobytes()


def identity_data(target_h=0.5):
    mesh = tag_boundary(build_disk_mesh(target_h), GAMMA_MEDIUM)
    ones = np.ones(mesh.n_vertices)
    H = PowerDensity(ScalarField(mesh, ones), ScalarField(mesh, 0.0 * ones),
                     ScalarField(mesh, ones))
    return ForwardData(sigma_true=ScalarField(mesh, ones),
                       theta_true=ScalarField(mesh, 0.0 * ones), H=H)


class TestApplyNoise:
    def test_noiseless_passes_through(self):
        fwd = identity_data()
        assert apply_noise(fwd.H, NoiseSpec()) is fwd.H

    def test_zero_floor_skips_clamp(self):
        fwd = identity_data()
        noisy = apply_noise(fwd.H, NoiseSpec(alpha_percent=5.0, seed=1, eig_floor=0.0))
        assert noisy is not fwd.H
        assert noisy.eig_floor_nodes.size == 0

    def test_high_floor_clamps_everywhere(self):
        fwd = identity_data()
        noisy = apply_noise(fwd.H, NoiseSpec(alpha_percent=1.0, seed=1, eig_floor=2.0))
        assert noisy.eig_floor_nodes.size == fwd.H.mesh.n_vertices


class TestRunPipeline:
    def test_constant_case_recovers_exactly(self):
        # PCG leaves the errors under 4e-10 and det H within 6e-9 of 4 on
        # both meshes; it also leaves the zero angle truth a roundoff norm,
        # about 1e-9 at h = 0.15, which the metrics must not divide by
        for target_h in (0.3, 0.15):
            out = run_pipeline(RunConfig(case="constant", gamma="full",
                                         target_h=target_h))
            assert out.recon.metrics.sigma_error <= 1e-6
            assert out.recon.metrics.cos2theta_error <= 1e-6
            assert out.recon.metrics.sin2theta_error <= 1e-6
            assert abs(out.recon.diagnostics.min_det - 4.0) <= 1e-8
            assert out.forward_seconds >= 0.0 and out.recon_seconds >= 0.0

    def test_case1_coarse_run_is_sane(self):
        out = run_pipeline(RunConfig(case="case1", gamma="large", target_h=0.15))
        assert out.recon.sigma.values.min() > 0.0
        assert 0.0 < out.recon.metrics.sigma_error < 1.0
        assert out.recon.metrics.cos2theta_error < 0.5

    def test_large_arc_survives_rim_stagnation(self):
        # at this resolution a rim node straddles the tangential extremum of
        # u1 inside the no-flux arc; a sign slip there once derailed the
        # boundary unwrap and blew the angle errors up by two decades
        out = run_pipeline(RunConfig(case="case1", gamma="large", target_h=0.12))
        assert out.recon.metrics.cos2theta_error <= 0.05
        assert out.recon.metrics.sin2theta_error <= 0.10
        assert out.recon.metrics.sigma_error <= 0.40

    def test_noisy_run_is_reproducible(self):
        cfg = RunConfig(case="case2", gamma="medium", target_h=0.25,
                        noise=NoiseSpec(alpha_percent=5.0, seed=3, eig_floor=1e-5))
        a = run_pipeline(cfg).recon.sigma.values
        b = run_pipeline(cfg).recon.sigma.values
        assert a.tobytes() == b.tobytes()
        assert a.min() > 0.0
        other = RunConfig(case="case2", gamma="medium", target_h=0.25,
                          noise=NoiseSpec(alpha_percent=5.0, seed=4, eig_floor=1e-5))
        c = run_pipeline(other).recon.sigma.values
        assert a.tobytes() != c.tobytes()
