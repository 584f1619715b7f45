"""Sweep tables, record invariants, and the CSV/text renderings."""
import pytest

import aet2d.pipeline
from aet2d import (
    NoiseSpec,
    RunConfig,
    det_diagnostics,
    noise_sweep,
    record_from_run,
    records_to_csv,
    render_table,
    run_pipeline,
    table_gamma_sweep,
    table_mesh_sweep,
)
from aet2d.errors import ContractError, ParameterError
from aet2d.metrics import CSV_HEADER, NOISE_LADDER, ExperimentRecord


def make_record(**overrides):
    base = dict(case="case1", gamma="medium", n_data=100, n_recon=50,
                min_det=0.25, cos2theta_error=0.5, sin2theta_error=0.125,
                sigma_error=0.5, alpha_percent=5.0, noise_seed=50,
                eig_floor=0.0, forward_seconds=1.0, recon_seconds=1.0)
    base.update(overrides)
    return ExperimentRecord(**base)


class TestExperimentRecord:
    def test_mesh_ordering_enforced(self):
        with pytest.raises(ContractError, match="finer"):
            make_record(n_data=50, n_recon=50)

    @pytest.mark.parametrize("field", ["cos2theta_error", "sin2theta_error",
                                       "sigma_error"])
    def test_negative_error_rejected(self, field):
        with pytest.raises(ContractError, match=field):
            make_record(**{field: -1e-12})

    def test_zero_error_allowed(self):
        make_record(cos2theta_error=0.0, sin2theta_error=0.0, sigma_error=0.0)


class TestRecordFromRun:
    def test_min_det_matches_diagnostics_route(self):
        # the record's min det and an independent det_diagnostics on the
        # forward data must be the same number, not merely close
        config = RunConfig(target_h=0.3)
        result = run_pipeline(config)
        record = record_from_run(config, result)
        assert record.min_det == det_diagnostics(result.forward.H)[0]

    def test_fields_flattened(self):
        config = RunConfig(case="case2", target_h=0.3,
                           noise=NoiseSpec(alpha_percent=1.0, seed=7,
                                           eig_floor=1e-6))
        result = run_pipeline(config)
        record = record_from_run(config, result)
        assert record.case == "case2"
        assert record.gamma == "medium"
        assert record.n_data == result.forward.n_data
        assert record.n_recon == result.forward.recon_mesh.n_vertices
        assert (record.alpha_percent, record.noise_seed) == (1.0, 7)
        assert record.eig_floor == 1e-6
        assert record.forward_seconds > 0.0
        assert record.recon_seconds > 0.0


class TestGammaSweep:
    def test_order_and_noiselessness(self):
        records = table_gamma_sweep(RunConfig(target_h=0.35))
        labels = [(r.case, r.gamma) for r in records]
        assert labels == [("case1", "large"), ("case1", "medium"),
                          ("case1", "small"), ("case2", "large"),
                          ("case2", "medium"), ("case2", "small")]
        assert all(r.alpha_percent == 0.0 for r in records)
        # same base mesh regardless of arc, so node counts agree across rows
        assert len({(r.n_data, r.n_recon) for r in records}) == 1

    def test_sweep_ignores_configured_noise(self):
        noisy = RunConfig(target_h=0.35, noise=NoiseSpec(alpha_percent=10.0))
        clean = RunConfig(target_h=0.35)
        assert records_to_csv(table_gamma_sweep(noisy)) == \
            records_to_csv(table_gamma_sweep(clean))


class TestMeshSweep:
    def test_nesting_chain(self):
        records = table_mesh_sweep(RunConfig(target_h=0.3))
        assert len(records) == 3
        assert all((r.case, r.gamma) == ("case1", "medium") for r in records)
        # each level promotes the previous data mesh to reconstruction mesh
        assert records[1].n_recon == records[0].n_data
        assert records[2].n_recon == records[1].n_data

    def test_a_finest_level_past_the_data_node_cap_builds_no_mesh(self, monkeypatch):
        # at h = 0.03 the config's own data mesh (331,669 nodes) fits, but
        # the third level's (5,294,737) does not
        def no_mesh(target_h):
            raise AssertionError("a mesh was built")
        monkeypatch.setattr(aet2d.pipeline, "build_disk_mesh", no_mesh)
        with pytest.raises(ParameterError, match="refine_levels = 3"):
            table_mesh_sweep(RunConfig(target_h=0.03, refine_levels=1))


class TestNoiseSweep:
    def test_ladder(self):
        records = noise_sweep(RunConfig(target_h=0.3, noise=NoiseSpec(seed=50)))
        assert [(r.alpha_percent, r.eig_floor) for r in records] == \
            list(NOISE_LADDER)
        assert all((r.case, r.gamma) == ("case2", "medium") for r in records)
        assert all(r.noise_seed == 50 for r in records)
        assert all(r.sigma_error > 0.0 for r in records)


class TestSweepRunner:
    @pytest.mark.parametrize("sweep, forwards", [
        (noise_sweep, 1), (table_gamma_sweep, 6), (table_mesh_sweep, 3)])
    def test_forward_shared_without_changing_records(self, monkeypatch, sweep,
                                                     forwards):
        forward_calls, configs = [], []
        forward_stage, recon_stage = aet2d.pipeline.forward_stage, aet2d.pipeline.recon_stage

        def counting_forward(config):
            forward_calls.append(config)
            return forward_stage(config)

        def recording_recon(config, fwd):
            configs.append(config)
            return recon_stage(config, fwd)

        monkeypatch.setattr(aet2d.pipeline, "forward_stage", counting_forward)
        monkeypatch.setattr(aet2d.pipeline, "recon_stage", recording_recon)
        records = sweep(RunConfig(target_h=0.3, noise=NoiseSpec(seed=50)))
        assert len(forward_calls) == forwards
        # only runs that solved the forward problem report forward time
        assert sum(r.forward_seconds > 0.0 for r in records) == forwards
        monkeypatch.undo()
        alone = [record_from_run(c, run_pipeline(c)) for c in configs]
        assert records_to_csv(records) == records_to_csv(alone)


class TestCsv:
    def test_exact_row(self):
        # frozen rendering: dyadic floats print exactly under 17 digits
        csv = records_to_csv([make_record()])
        assert csv == CSV_HEADER + "\ncase1,medium,100,50,0.25,0.5,0.125,0.5,5,50,0\n"

    def test_runtimes_excluded(self):
        a = records_to_csv([make_record(forward_seconds=1.0)])
        b = records_to_csv([make_record(forward_seconds=99.0)])
        assert a == b
        assert "seconds" not in CSV_HEADER

    def test_float_round_trip(self):
        record = make_record(min_det=3.87e-10, cos2theta_error=0.014,
                             sigma_error=1.04, eig_floor=1e-5)
        row = records_to_csv([record]).splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        for name in ("min_det", "cos2theta_error", "sin2theta_error",
                     "sigma_error", "eig_floor"):
            assert float(row[header.index(name)]) == getattr(record, name)

    def test_sweep_is_reproducible(self):
        sweeps = [noise_sweep(RunConfig(target_h=0.35)) for _ in range(2)]
        assert records_to_csv(sweeps[0]) == records_to_csv(sweeps[1])


class TestRenderTable:
    def test_alignment_and_runtimes(self):
        records = [make_record(), make_record(case="case2", gamma="small",
                                              min_det=9.94e-18,
                                              forward_seconds=12.34)]
        text = render_table(records)
        lines = text.splitlines()
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1
        assert "fwd_s" in lines[0] and "rec_s" in lines[0]
        assert "12.34" in lines[2]
        assert "9.940e-18" in lines[2]
