"""Config parsing, exporters, subcommands, and the exit-code contract."""
import gc
import re
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from aet2d import cli, pipeline
from aet2d.cli import Job, export_field, main, parse_config, read_field_csv
from aet2d.errors import ContractError, ParameterError
from aet2d.fem import ScalarField
from aet2d.forward import true_theta
from aet2d.mesh import GAMMA_MEDIUM, build_disk_mesh, tag_boundary

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
            noise.eig_floor = 1e-6      # trailing comment
            output.formats = csv, vtk
        """)
        cfg = job.config
        assert (cfg.target_h, cfg.refine_levels) == (0.1, 1)
        assert (cfg.gamma, cfg.case) == ("small", "case2")
        assert (cfg.noise.alpha_percent, cfg.noise.seed) == (5.0, 50)
        assert cfg.noise.eig_floor == 1e-6
        assert job.formats == ("csv", "vtk")

    @pytest.mark.parametrize("line,fragment", [
        ("mesh.targeth = 0.1", "mesh.targeth"),
        ("mesh.target_h = fine", "mesh.target_h"),
        ("mesh.target_h = 0.1\nmesh.target_h = 0.2", "duplicate"),
        ("mesh.target_h 0.1", "key = value"),
        ("output.formats = csv, png", "png"),
        ("gamma.preset = tiny", "tiny"),
        ("noise.seed = -1", "seed"),
        ("recon.unwrap_arcs = nan 1", "unwrap_arcs"),
    ])
    def test_rejections_name_the_problem(self, line, fragment):
        with pytest.raises(ParameterError, match=fragment):
            parse_config(line + "\n")


def _nudge_x(row, after):
    """x one ulp off, written at 17 digits as the exporter writes it."""
    cells = row.split(",")
    cells[1] = "%.17g" % np.nextafter(float(cells[1]), np.inf)
    return ",".join(cells), after


def _swap_ids(row, after):
    """The two rows trade node ids, keeping their coordinates and values."""
    (a, rest_a), (b, rest_b) = row.split(",", 1), after.split(",", 1)
    return f"{b},{rest_a}", f"{a},{rest_b}"


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

    @pytest.mark.parametrize("change", [
        lambda row, after: (row.replace(",", ",x", 1), after),
        lambda row, after: (row + ",0", after),
        lambda row, after: ("", after),
        _nudge_x,
        _swap_ids,
        lambda row, after: (row.rsplit(",", 1)[0] + ", 1_0 ", after),
        lambda row, after: (row + ".0", after),
    ], ids=["bad-value", "five-columns", "blank", "coordinate-nudge", "swapped-ids",
            "underscore-value", "trailing-zero"])
    def test_read_names_the_broken_line(self, tmp_path, change):
        # the header is line 1, so line 4 holds node 2 of the 217
        mesh = build_disk_mesh(0.3)
        assert mesh.n_vertices == 217
        path = tmp_path / "f.csv"
        export_field(ScalarField(mesh, np.ones(mesh.n_vertices)), path)
        lines = path.read_text().splitlines()
        prefix = lines[3].rsplit(",", 1)[0] + ","
        lines[3:5] = change(*lines[3:5])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=re.escape(
                f"{path}: line 4: expected {prefix!r} and a finite value, "
                f"got {lines[3]!r}")):
            read_field_csv(path, mesh)

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

    @pytest.mark.parametrize("line", ["data.eps_d = 1e-13",
                                      "sigma.constant_value = 3",
                                      "solver.tol = 1e-11",
                                      "solver.max_iter = 500",
                                      "gamma.arcs = 0.5, 2.5",
                                      "output.dir = x",
                                      "recon.unwrap_arcs = 2.0, 2.5"])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, line):
        # the determinant-root floor, the constant phantom's level, the
        # solver precision and its iteration cap are the constants
        # aet2d.forward.EPS_D, aet2d.forward.CONSTANT, aet2d.fem.TOL and
        # aet2d.fem.MAX_ITER, the controlled arc is the preset gamma.preset
        # names, the output directory is the --out flag, and the boundary
        # angle is always unwrapped along the rim
        cfg = write_config(tmp_path, COARSE + line + "\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        key = line.split(" =")[0]
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "record.csv").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_usage_error_is_exit_1(self):
        assert run_cli("frobnicate") == 1
        assert run_cli("run") == 1

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # the noise seed is set only by noise.seed in the config
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 5\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--seed", "9") == 1
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("line", ["noise.eig_floor = inf", "mesh.target_h = 1",
                                      "noise.alpha_percent = nan"])
    def test_out_of_range_values_are_config_errors(self, tmp_path, capsys, line):
        # rejected before any solve, not as a numerical failure after one
        cfg = write_config(tmp_path, COARSE + line + "\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "record.csv").exists()

    @pytest.mark.parametrize("lines,fragment", [
        # overwhelming noise with the eigenvalue floor disabled drives the
        # data matrix indefinite
        ("noise.alpha_percent = 1e6\nnoise.eig_floor = 0\n", ""),
        # log sigma past log(float max): exp would overflow to inf
        ("sigma.case = case1\ngamma.preset = full\nnoise.alpha_percent = 1000\n"
         "noise.seed = 0\n", "conductivity overflows"),
        # sigma reaches 1e241, so its L2 error overflows while it squares
        ("sigma.case = case2\ngamma.preset = medium\nnoise.alpha_percent = 1000\n"
         "noise.seed = 0\n", "L2 error overflows"),
        # noisy entries near 1e200 square past float max in the determinant
        ("noise.alpha_percent = 1e200\n", "determinant overflows"),
        # so do eigenvalues floored at 1e200
        ("noise.alpha_percent = 5\nnoise.eig_floor = 1e200\n",
         "determinant overflows"),
    ], ids=["indefinite-data", "sigma-overflow", "error-norm-overflow",
            "determinant-overflow", "floor-overflow"])
    def test_data_breakdown_is_exit_2(self, tmp_path, capsys, lines, fragment):
        # data that breaks the reconstruction is a numerical failure, not a
        # config one, and leaves no record
        cfg = write_config(tmp_path, COARSE + lines)
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and fragment in err
        assert not (out / "record.csv").exists()

    def test_exact_pi_rim_jump_is_exit_2(self, stage, tmp_path, capsys):
        # the unwrap cannot tell which way a jump of exactly pi turns
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        a, b = pipeline.base_mesh(parse_config(COARSE).config).boundary_loop[3:5]
        path = out / "theta_true.csv"
        text = _value_at_line(a + 2, "0")(path.read_text())
        path.write_text(_value_at_line(b + 2, f"{np.pi:.17g}")(text))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert f"exactly pi between rim nodes {a} and {b}" in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    """Config and stage directory of one `aet2d forward` run."""
    root = tmp_path_factory.mktemp("stage")
    cfg = write_config(root, COARSE)
    assert run_cli("forward", "--config", cfg, "--out", str(root / "out"),
                   "--quiet") == 0
    return cfg, root / "out"


def _value_at_line(lineno, value):
    """A corruption that sets the value on line `lineno` of a field CSV."""
    def corrupt(text):
        lines = text.splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0] + f",{value}\n"
        return "".join(lines)
    return corrupt


class TestMalformedStageFiles:
    # at h = 0.3 the mesh has 217 nodes; node 216, on line 218, is on the rim
    @pytest.mark.parametrize("name,corrupt,where", [
        ("stage.txt", lambda t: t[:len(t) // 3], ""),
        ("stage.txt", lambda t: t + "noise.seed = 3\n", ""),
        ("h11.csv", _value_at_line(4, "nan"), "line 4:"),
        ("theta_true.csv", _value_at_line(218, "100"), "line 218:"),
        ("theta_true.csv", _value_at_line(2, "4"), "line 2:"),
    ], ids=["stage-truncated", "stage-extra-line", "field-nan", "angle-on-the-rim",
            "angle-at-node-0"])
    def test_reconstruct_names_the_file(self, stage, tmp_path, capsys, name,
                                        corrupt, where):
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert name in err and where in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_an_overflowing_load_is_exit_2_at_once(self, stage, tmp_path, capsys):
        # a well-formed but tiny h11 at node 4 makes the angle solve's load
        # overflow; PCG stops before its first iteration
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / "h11.csv"
        path.write_text(_value_at_line(6, "1e-300")(path.read_text()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 2
        assert "right-hand side is not finite" in capsys.readouterr().err
        assert not (out / "record.csv").exists()

    def test_an_overflowing_determinant_is_exit_2(self, stage, tmp_path, capsys):
        # a well-formed h12 of 1e300 at node 4 squares past float max
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / "h12.csv"
        path.write_text(_value_at_line(6, "1.0000000000000001e+300")(path.read_text()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert "determinant overflows at nodes [4]" in err
        assert not (out / "record.csv").exists()

    @pytest.mark.parametrize("text,key", [
        ("mesh.target_h = 0.35\n", "mesh.target_h"),
        (COARSE + "gamma.preset = large\n", "gamma.preset"),
        (COARSE + "sigma.case = case2\n", "sigma.case"),
        (COARSE + "mesh.refine_levels = 1\n", "mesh.refine_levels"),
    ], ids=["target_h", "gamma", "case", "refine_levels"])
    def test_reconstruct_rejects_another_config(self, stage, tmp_path, capsys,
                                                text, key):
        # the stage is well formed but was made with another mesh, arc or
        # phantom; reconstructing it would record this config's labels
        out = tmp_path / "stage"
        shutil.copytree(stage[1], out)
        cfg = write_config(tmp_path, text)
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "stage.txt" in err and key in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_a_stage_without_stage_txt_names_it(self, stage, tmp_path, capsys):
        # a stage an older version wrote has the fields but no stage.txt
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        (out / "stage.txt").unlink()
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "stage.txt" in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_an_interrupted_forward_leaves_no_stage(self, tmp_path, capsys):
        # the second forward fails after writing h11.csv: the directory then
        # holds fields of two configs, and no stage.txt vouches for them
        large = write_config(tmp_path, COARSE + "gamma.preset = large\n", "large.cfg")
        medium = write_config(tmp_path, COARSE + "gamma.preset = medium\n", "medium.cfg")
        out = tmp_path / "stage"
        assert run_cli("forward", "--config", large, "--out", str(out), "--quiet") == 0
        (out / "h12.csv.tmp").mkdir()
        assert run_cli("forward", "--config", medium, "--out", str(out), "--quiet") == 1
        capsys.readouterr()
        assert run_cli("reconstruct", "--config", medium, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "stage.txt" in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()


class TestMeshTextMemo:
    # a mesh's node and cell text is formatted once while the mesh lives,
    # however many of its fields are written or read, and dropped with it
    @pytest.fixture()
    def builds(self, monkeypatch):
        """The number of `_MeshText`s built so far, in a fresh memo."""
        count = [0]
        init = cli._MeshText.__init__

        def counting(self, mesh):
            count[0] += 1
            init(self, mesh)

        monkeypatch.setattr(cli._MeshText, "__init__", counting)
        monkeypatch.setattr(cli, "_TEXTS", weakref.WeakKeyDictionary())
        return count

    def test_reconstruct_formats_its_mesh_once(self, stage, tmp_path, builds):
        out = tmp_path / "stage"
        shutil.copytree(stage[1], out)
        cfg = write_config(tmp_path, COARSE + "output.formats = csv, vtk\n")
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        assert (out / "sigma_recon.vtk").exists()
        assert builds[0] == 1

    def test_fields_on_one_mesh_share_its_text(self, mesh, tmp_path, builds):
        for name in ("a", "b"):
            field = ScalarField(mesh, np.full(mesh.n_vertices, 1.5))
            export_field(field, tmp_path / f"{name}.csv")
            export_field(field, tmp_path / f"{name}.vtk", "vtk", name=name)
        assert builds[0] == 1

    def test_the_memo_lets_its_meshes_go(self, tmp_path, builds):
        cfg = write_config(tmp_path, COARSE + "output.formats = csv, vtk\n")
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--quiet") == 0
        mesh = build_disk_mesh(0.5)
        export_field(ScalarField(mesh, np.zeros(mesh.n_vertices)),
                     tmp_path / "f.vtk", "vtk")
        assert builds[0] == 2
        del mesh
        gc.collect()
        assert len(cli._TEXTS) == 0


class TestSubcommands:
    def test_forward_then_reconstruct_matches_run(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 1\n"
                           "noise.seed = 50\nnoise.eig_floor = 1e-5\n"
                           "output.formats = csv,vtk\n")
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("run", "--config", cfg, "--out", str(one), "--quiet") == 0
        assert run_cli("forward", "--config", cfg, "--out", str(two), "--quiet") == 0
        assert run_cli("reconstruct", "--config", cfg, "--out", str(two), "--quiet") == 0
        # the record, and each of the four fields in both formats; the stage
        # flow rewrites theta_true.csv, which it also reads
        names = sorted(path.name for path in one.iterdir())
        assert len(names) == 9
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_stale_meta_file_is_ignored(self, tmp_path):
        # the mesh and the true conductivity come from the config; the
        # `meta.txt`, `mesh.txt` and `sigma_true.csv` an older forward stage
        # left do not reach the record
        cfg = write_config(tmp_path, COARSE)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("run", "--config", cfg, "--out", str(one), "--quiet") == 0
        assert run_cli("forward", "--config", cfg, "--out", str(two), "--quiet") == 0
        (two / "meta.txt").write_text("n_data 999999\nflagged 0\n")
        other = tag_boundary(build_disk_mesh(0.5), GAMMA_MEDIUM)
        (two / "mesh.txt").write_text("vertices 0\n")
        export_field(ScalarField(other, np.full(other.n_vertices, 7.0)),
                     two / "sigma_true.csv")
        assert run_cli("reconstruct", "--config", cfg, "--out", str(two), "--quiet") == 0
        for name in ("record.csv", "sigma_true.csv", "sigma_recon.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
        assert "999999" not in (two / "record.csv").read_text()

    def test_undefined_boundary_angle_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def flag_a_controlled_node(u1):
            theta, flagged = true_theta(u1)
            return theta, np.union1d(flagged, u1.mesh.dirichlet_nodes[:1])

        monkeypatch.setattr(pipeline, "true_theta", flag_a_controlled_node)
        cfg = write_config(tmp_path, COARSE)
        out = tmp_path / "stage"
        assert run_cli("forward", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "boundary" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 5\n"
                           "noise.seed = 7\n")
        dirs = tmp_path / "a", tmp_path / "b"
        for d in dirs:
            assert run_cli("run", "--config", cfg, "--out", str(d), "--quiet") == 0
        for name in ("record.csv", "sigma_recon.csv", "theta_recon.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

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
        mesh = pipeline.base_mesh(parse_config(COARSE).config)
        values = read_field_csv(out / "dirichlet.csv", mesh).values
        controlled = np.zeros(mesh.n_vertices, dtype=bool)
        controlled[mesh.dirichlet_nodes] = True
        assert controlled.any() and not controlled.all()
        assert np.all(values[controlled] == 1.0) and np.all(values[~controlled] == 0.0)
        assert ((out / "dirichlet.vtk").read_text()
                == reference_vtk(mesh, values, "dirichlet"))
        assert sorted(p.name for p in out.iterdir()) == ["dirichlet.csv", "dirichlet.vtk"]

    def test_every_file_goes_through_the_atomic_writer(self, tmp_path, monkeypatch):
        written = set()
        atomic_text = cli._atomic_text

        def recording(path, text):
            atomic_text(path, text)
            written.add(path)

        monkeypatch.setattr(cli, "_atomic_text", recording)
        cfg = write_config(tmp_path, COARSE + "output.formats = csv, vtk\n")
        commands = {"run": ["run"], "stage": ["forward", "reconstruct"],
                    "t1": ["table1"], "t2": ["table2"], "ns": ["noise-sweep"],
                    "m": ["export-mesh"]}
        for name, steps in commands.items():
            for command in steps:
                assert run_cli(command, "--config", cfg, "--out",
                               str(tmp_path / name), "--quiet") == 0
            files = set((tmp_path / name).iterdir())
            assert files and files <= written, name

    def test_vtk_output_format(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "output.formats = vtk\n")
        out = tmp_path / "v"
        assert run_cli("run", "--config", cfg, "--out", str(out), "--quiet") == 0
        assert (out / "sigma_recon.vtk").exists()
        assert not (out / "sigma_recon.csv").exists()
        assert (out / "record.csv").exists()


class TestJobDefaults:
    def test_job_is_frozen_with_defaults(self):
        job = parse_config("sigma.case = constant\n")
        assert isinstance(job, Job)
        assert job.config.conductivity().bounds == (2.0, 2.0)
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
        assert {key for key, _ in concrete} == set(cli._KEYS)
        for key, default in concrete:
            assert parse_config(f"{key} = {default}\n") == empty, key
