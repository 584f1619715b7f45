"""Config parsing, exporters, subcommands, and the exit-code contract."""
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from aet2d import (
    GAMMA_MEDIUM,
    ScalarField,
    build_disk_mesh,
    read_mesh,
    tag_boundary,
    write_mesh,
)
from aet2d import cli
from aet2d.cli import Job, export_field, main, parse_config, read_field_csv
from aet2d.errors import ContractError, ParameterError

COARSE = "mesh.target_h = 0.3\n"


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def mesh():
    return tag_boundary(build_disk_mesh(0.5), GAMMA_MEDIUM)


class TestParseConfig:
    def test_defaults(self):
        job = parse_config("")
        assert job.config.case == "case1"
        assert job.config.gamma == "medium"
        assert job.out_dir.name == "out"
        assert job.formats == ("csv",)

    def test_full_config(self):
        job = parse_config("""
            # experiment setup
            mesh.target_h = 0.1
            mesh.refine_levels = 1
            gamma.preset = small
            sigma.case = case2
            noise.alpha_percent = 5
            noise.seed = 50
            noise.eig_floor = 1e-5
            data.eps_d = 1e-13
            solver.tol = 1e-11      # trailing comment
            solver.max_iter = 500
            output.dir = results/run1
            output.formats = csv, vtk
        """)
        cfg = job.config
        assert (cfg.target_h, cfg.refine_levels) == (0.1, 1)
        assert (cfg.gamma, cfg.case) == ("small", "case2")
        assert (cfg.noise.alpha_percent, cfg.noise.seed) == (5.0, 50)
        assert (cfg.noise.eig_floor, cfg.eps_d) == (1e-5, 1e-13)
        assert (cfg.tol, cfg.max_iter) == (1e-11, 500)
        assert str(job.out_dir) == "results/run1"
        assert job.formats == ("csv", "vtk")

    def test_explicit_arcs(self):
        job = parse_config("gamma.arcs = 0.5, 1.5; 3.0, 4.0\n"
                           "recon.unwrap_arcs = 2.0, 2.5\n")
        assert job.config.gamma_arcs == ((0.5, 1.5), (3.0, 4.0))
        assert job.config.unwrap_arcs == ((2.0, 2.5),)

    def test_explicit_arcs_without_a_preset_are_labelled_custom(self):
        arcs = "gamma.arcs = 0.5, 2.5; 3.0, 4.0\n"
        assert parse_config(arcs).config.gamma == "custom"
        assert parse_config(arcs + "gamma.preset = small\n").config.gamma == "small"
        assert parse_config("gamma.preset = small\n").config.gamma == "small"

    @pytest.mark.parametrize("line,fragment", [
        ("mesh.targeth = 0.1", "mesh.targeth"),
        ("mesh.target_h = fine", "mesh.target_h"),
        ("mesh.target_h = 0.1\nmesh.target_h = 0.2", "duplicate"),
        ("mesh.target_h 0.1", "key = value"),
        ("gamma.arcs = 0.5, 1.5, 3.0", "even number"),
        ("output.formats = csv, png", "png"),
        ("gamma.preset = tiny", "tiny"),
        ("noise.seed = -1", "seed"),
        ("recon.unwrap_arcs = nan 1", "unwrap_arcs"),
    ])
    def test_rejections_name_the_problem(self, line, fragment):
        with pytest.raises(ParameterError, match=fragment):
            parse_config(line + "\n")


class TestExportField:
    def test_csv_round_trip_is_exact(self, mesh, tmp_path):
        rng = np.random.default_rng(3)
        field = ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
        path = tmp_path / "f.csv"
        export_field(field, path)
        back = read_field_csv(path, mesh)
        assert np.array_equal(back.values, field.values)

    def test_constant_field_rows_identical(self, mesh, tmp_path):
        export_field(ScalarField(mesh, np.full(mesh.n_vertices, 2.5)),
                     tmp_path / "c.csv")
        rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"2.5"}

    def test_export_is_byte_stable(self, mesh, tmp_path):
        field = ScalarField(mesh, np.linspace(-1.0, 1.0, mesh.n_vertices))
        export_field(field, tmp_path / "a.csv")
        export_field(field, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_vtk_counts_match_mesh(self, mesh, tmp_path):
        export_field(ScalarField(mesh, np.zeros(mesh.n_vertices)),
                     tmp_path / "f.vtk", "vtk", name="zero")
        lines = (tmp_path / "f.vtk").read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert f"POINTS {mesh.n_vertices} double" in lines
        assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in lines
        assert f"POINT_DATA {mesh.n_vertices}" in lines
        assert lines.count("5") >= mesh.n_triangles
        cells = lines.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        tri = [int(t) for t in lines[cells + 1].split()]
        assert tri[0] == 3 and tri[1:] == list(mesh.triangles[0])

    def test_wrong_mesh_rejected(self, mesh, tmp_path):
        field = ScalarField(mesh, np.zeros(mesh.n_vertices))
        export_field(field, tmp_path / "f.csv")
        other = build_disk_mesh(0.8)
        with pytest.raises(ContractError, match="rows"):
            read_field_csv(tmp_path / "f.csv", other)

    def test_unknown_format_rejected(self, mesh, tmp_path):
        with pytest.raises(ParameterError, match="png"):
            export_field(ScalarField(mesh, np.zeros(mesh.n_vertices)),
                         tmp_path / "f.png", "png")


# The byte-stable formats, written row by row from numpy scalars: the
# exporters must keep producing exactly this text.
def reference_csv(mesh, values):
    lines = ["node_id,x,y,value"]
    lines += [f"{i},{x:.17g},{y:.17g},{v:.17g}"
              for i, ((x, y), v) in enumerate(zip(mesh.vertices, values))]
    return "\n".join(lines) + "\n"


def reference_vtk(mesh, values, name):
    lines = ["# vtk DataFile Version 3.0", name, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices]
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines += [f"3 {i} {j} {k}" for i, j, k in mesh.triangles]
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    lines += [f"POINT_DATA {mesh.n_vertices}", f"SCALARS {name} double 1",
              "LOOKUP_TABLE default"]
    lines += [f"{v:.17g}" for v in values]
    return "\n".join(lines) + "\n"


def reference_mesh_text(mesh):
    lines = [f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    lines += [f"{a} {b} {tag}"
              for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)]
    return "\n".join(lines) + "\n"


class TestFileFormat:
    @pytest.fixture()
    def field(self):
        mesh = tag_boundary(build_disk_mesh(0.3), GAMMA_MEDIUM)
        values = np.random.default_rng(5).standard_normal(mesh.n_vertices)
        values[:6] = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 0.1, 3.0]
        return ScalarField(mesh, values)

    def test_exports_match_the_row_by_row_reference(self, field, tmp_path):
        export_field(field, tmp_path / "f.csv")
        export_field(field, tmp_path / "f.vtk", "vtk", name="sigma")
        assert (tmp_path / "f.csv").read_text() == reference_csv(field.mesh, field.values)
        assert ((tmp_path / "f.vtk").read_text()
                == reference_vtk(field.mesh, field.values, "sigma"))
        back = read_field_csv(tmp_path / "f.csv", field.mesh)
        assert back.values.tobytes() == field.values.tobytes()

    def test_mesh_text_matches_the_row_by_row_reference(self, field, tmp_path):
        write_mesh(field.mesh, tmp_path / "mesh.txt")
        assert (tmp_path / "mesh.txt").read_text() == reference_mesh_text(field.mesh)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_minimal_run_succeeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, COARSE + "gamma.preset = large\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
        for name in ("record.csv", "sigma_recon.csv", "theta_recon.csv",
                     "sigma_true.csv", "theta_true.csv"):
            assert (out / name).exists()
        assert "sigma_err" in capsys.readouterr().out

    def test_unknown_key_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mesh.target_w = 0.3\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 1
        assert "mesh.target_w" in capsys.readouterr().err

    def test_zero_measure_arc_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "gamma.arcs = 0.5, 0.5\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_usage_error_is_exit_1(self):
        assert run_cli("frobnicate") == 1
        assert run_cli("run") == 1

    @pytest.mark.parametrize("levels", [5, 6])
    def test_table2_levels_past_the_limit_name_the_key(self, tmp_path, capsys, levels):
        # table2 adds two refinement levels to mesh.refine_levels
        cfg = write_config(tmp_path, "mesh.target_h = 0.9\n"
                           f"mesh.refine_levels = {levels}\n")
        assert run_cli("table2", "--config", cfg, "--out", str(tmp_path / "t"),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "mesh.refine_levels" in err and "table2" in err
        assert "2 levels" in err and "at most 4" in err
        assert not (tmp_path / "t" / "table2.csv").exists()

    @pytest.mark.parametrize("line", ["solver.tol = inf", "solver.tol = 1",
                                      "data.eps_d = inf"])
    def test_out_of_range_values_are_config_errors(self, tmp_path, capsys, line):
        # rejected before any solve, not as a numerical failure after one
        cfg = write_config(tmp_path, COARSE + line + "\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "record.csv").exists()

    def test_data_breakdown_is_exit_2(self, tmp_path, capsys):
        # overwhelming noise with the eigenvalue floor disabled drives the
        # data matrix indefinite, which is a numerical failure, not a config one
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 1e6\n"
                           "noise.eig_floor = 0\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    """Config and stage directory of one `aet2d forward` run."""
    root = tmp_path_factory.mktemp("stage")
    cfg = write_config(root, COARSE)
    assert run_cli("forward", "--config", cfg, "--out", str(root / "out"),
                   "--quiet") == 0
    return cfg, root / "out"


def _replace_line(text, prefix, line):
    return re.sub(rf"^{prefix}.*$", line, text, count=1, flags=re.M)


def _nan_in_third_row(text):
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan\n"
    return "".join(lines)


class TestMalformedStageFiles:
    @pytest.mark.parametrize("name,corrupt", [
        ("mesh.txt", lambda t: t[:len(t) // 3]),
        ("mesh.txt", lambda t: _replace_line(t, "boundary_edges", "boundary_edges")),
        ("meta.txt", lambda t: _replace_line(t, "n_data", "n_data abc")),
        ("meta.txt", lambda t: _replace_line(t, "flagged", "flagged x")),
        ("meta.txt", lambda t: _replace_line(t, "n_data", "n_data 1")),
        ("meta.txt", lambda t: _replace_line(t, "flagged", "flagged 99999999 -3")),
        ("meta.txt", lambda t: t + t),
        ("h11.csv", _nan_in_third_row),
    ], ids=["mesh-truncated", "mesh-header-without-count", "meta-n-data",
            "meta-flagged", "meta-n-data-not-finer", "meta-flagged-outside-mesh",
            "meta-repeated-entries", "field-nan"])
    def test_reconstruct_names_the_file(self, stage, tmp_path, capsys, name, corrupt):
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err


class TestSubcommands:
    def test_forward_then_reconstruct_matches_run(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 1\n"
                           "noise.seed = 50\nnoise.eig_floor = 1e-5\n")
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("run", "--config", cfg, "--out", str(one), "--quiet") == 0
        assert run_cli("forward", "--config", cfg, "--out", str(two), "--quiet") == 0
        assert run_cli("reconstruct", "--config", cfg, "--out", str(two), "--quiet") == 0
        for name in ("record.csv", "sigma_recon.csv", "theta_recon.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 5\n"
                           "noise.seed = 7\n")
        dirs = tmp_path / "a", tmp_path / "b"
        for d in dirs:
            assert run_cli("run", "--config", cfg, "--out", str(d), "--quiet") == 0
        for name in ("record.csv", "sigma_recon.csv", "theta_recon.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 5\n"
                           "noise.seed = 7\n")
        base, flagged, explicit = (tmp_path / n for n in ("base", "flag", "exp"))
        run_cli("run", "--config", cfg, "--out", str(base), "--quiet")
        run_cli("run", "--config", cfg, "--out", str(flagged), "--seed", "9",
                "--quiet")
        cfg9 = write_config(tmp_path, COARSE + "noise.alpha_percent = 5\n"
                            "noise.seed = 9\n", name="nine.cfg")
        run_cli("run", "--config", cfg9, "--out", str(explicit), "--quiet")
        a = (base / "sigma_recon.csv").read_bytes()
        b = (flagged / "sigma_recon.csv").read_bytes()
        assert a != b
        assert b == (explicit / "sigma_recon.csv").read_bytes()

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, COARSE)
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_table_commands_write_csv(self, tmp_path):
        cfg = write_config(tmp_path, "mesh.target_h = 0.35\n")
        out = tmp_path / "t"
        assert run_cli("table1", "--config", cfg, "--out", str(out), "--quiet") == 0
        assert run_cli("table2", "--config", cfg, "--out", str(out), "--quiet") == 0
        assert run_cli("noise-sweep", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        rows = {name: (out / name).read_text().strip().splitlines()
                for name in ("table1.csv", "table2.csv", "noise_sweep.csv")}
        assert len(rows["table1.csv"]) == 1 + 6
        assert len(rows["table2.csv"]) == 1 + 3
        assert len(rows["noise_sweep.csv"]) == 1 + 3

    def test_export_mesh_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "output.formats = csv, vtk\n")
        out = tmp_path / "m"
        assert run_cli("export-mesh", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        mesh = read_mesh(out / "mesh.txt")
        assert mesh.n_vertices > 0
        assert (out / "mesh.vtk").exists()

    def test_vtk_output_format(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "output.formats = vtk\n")
        out = tmp_path / "v"
        assert run_cli("run", "--config", cfg, "--out", str(out), "--quiet") == 0
        assert (out / "sigma_recon.vtk").exists()
        assert not (out / "sigma_recon.csv").exists()
        assert (out / "record.csv").exists()


class TestJobDefaults:
    def test_job_is_frozen_with_defaults(self):
        job = parse_config("sigma.case = constant\nsigma.constant_value = 3\n")
        assert isinstance(job, Job)
        assert job.config.constant_value == 3.0
        with pytest.raises(AttributeError):
            job.out_dir = None


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_rows() -> list[tuple[str, str]]:
    """(key, default cell) of each row of README's config-key table."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^\| `(\w+\.\w+)`\s*\|[^|\n]*\|\s*([^|\n]*?)\s*\|$",
                      text, flags=re.M)


class TestReadmeConfigTable:
    def test_parser_accepts_exactly_the_listed_keys(self):
        keys = [key for key, _ in readme_config_rows()]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(cli._KEYS)
        for key in keys:  # each listed key is known to the parser
            with pytest.raises(ParameterError, match="key = value"):
                parse_config(f"{key} =\n")

    def test_listed_defaults_give_the_default_job(self):
        empty = parse_config("")
        concrete = [(key, cell[1:-1]) for key, cell in readme_config_rows()
                    if re.fullmatch(r"`[^`]+`", cell)]
        assert len(concrete) >= 12
        for key, default in concrete:
            assert parse_config(f"{key} = {default}\n") == empty, key
