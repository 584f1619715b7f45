"""Config parsing, exporters, subcommands, and the exit-code contract."""
import io
import re
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from aet2d import cli, pipeline
from aet2d.cli import Job, export_field, main, parse_config
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


def read_fields_csv(path):
    """(header, node ids, coordinates, value columns) of a fields.csv."""
    header = path.read_text().split("\n", 1)[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, table[:, 0], table[:, 1:3], table[:, 3:]


class TestExportField:
    def test_csv_round_trip_is_exact(self, mesh, tmp_path):
        rng = np.random.default_rng(3)
        a = ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
        b = ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
        path = tmp_path / "f.csv"
        export_field({"a": a, "b": b}, path)
        header, ids, xy, values = read_fields_csv(path)
        assert header == ["node_id", "x", "y", "a", "b"]
        assert np.array_equal(ids, np.arange(mesh.n_vertices))
        assert xy.tobytes() == mesh.vertices.tobytes()
        assert values[:, 0].tobytes() == a.values.tobytes()
        assert values[:, 1].tobytes() == b.values.tobytes()

    def test_constant_field_rows_identical(self, mesh, tmp_path):
        export_field({"value": ScalarField(mesh, np.full(mesh.n_vertices, 2.5))},
                     tmp_path / "c.csv")
        rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"2.5"}

    def test_export_is_byte_stable(self, mesh, tmp_path):
        fields = {"value": ScalarField(mesh, np.linspace(-1.0, 1.0, mesh.n_vertices))}
        export_field(fields, tmp_path / "a.csv")
        export_field(fields, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_vtk_counts_match_mesh(self, mesh, tmp_path):
        export_field({"zero": ScalarField(mesh, np.zeros(mesh.n_vertices)),
                      "one": ScalarField(mesh, np.ones(mesh.n_vertices))},
                     tmp_path / "f.vtk", "vtk")
        lines = (tmp_path / "f.vtk").read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines.count(f"POINTS {mesh.n_vertices} double") == 1
        assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in lines
        assert lines.count(f"POINT_DATA {mesh.n_vertices}") == 1
        assert lines.count("5") >= mesh.n_triangles
        cells = lines.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        tri = [int(t) for t in lines[cells + 1].split()]
        assert tri[0] == 3 and tri[1:] == list(mesh.triangles[0])
        # one SCALARS block per field, each a value per node
        starts = [lines.index(f"SCALARS {name} double 1") for name in ("zero", "one")]
        assert starts[1] - starts[0] == 2 + mesh.n_vertices
        assert len(lines) - starts[1] == 2 + mesh.n_vertices

    def test_wrong_mesh_rejected(self, mesh, tmp_path):
        # one file holds the fields of one mesh
        other = build_disk_mesh(0.8)
        fields = {"a": ScalarField(mesh, np.zeros(mesh.n_vertices)),
                  "b": ScalarField(other, np.zeros(other.n_vertices))}
        with pytest.raises(ContractError, match="one mesh"):
            export_field(fields, tmp_path / "f.csv")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_rejected(self, mesh, tmp_path):
        with pytest.raises(ParameterError, match="png"):
            export_field({"value": ScalarField(mesh, np.zeros(mesh.n_vertices))},
                         tmp_path / "f.png", "png")


# The byte-stable formats, written row by row from numpy scalars: the
# exporters must keep producing exactly this text.
def reference_csv(mesh, fields):
    lines = [",".join(["node_id", "x", "y", *fields])]
    lines += [f"{i},{x:.17g},{y:.17g}" + "".join(f",{v:.17g}" for v in values)
              for i, ((x, y), *values) in enumerate(zip(mesh.vertices, *fields.values()))]
    return "\n".join(lines) + "\n"


def reference_vtk(mesh, fields):
    lines = ["# vtk DataFile Version 3.0", " ".join(fields), "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices]
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines += [f"3 {i} {j} {k}" for i, j, k in mesh.triangles]
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    for name, values in fields.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.17g}" for v in values]
    return "\n".join(lines) + "\n"


class TestFileFormat:
    @pytest.fixture()
    def fields(self):
        mesh = tag_boundary(build_disk_mesh(0.3), GAMMA_MEDIUM)
        values = np.random.default_rng(5).standard_normal((2, mesh.n_vertices))
        values[0, :6] = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 0.1, 3.0]
        return {"sigma": ScalarField(mesh, values[0]), "theta": ScalarField(mesh, values[1])}

    def test_exports_match_the_row_by_row_reference(self, fields, tmp_path):
        export_field(fields, tmp_path / "f.csv")
        export_field(fields, tmp_path / "f.vtk", "vtk")
        mesh = fields["sigma"].mesh
        values = {name: field.values for name, field in fields.items()}
        assert (tmp_path / "f.csv").read_text() == reference_csv(mesh, values)
        assert (tmp_path / "f.vtk").read_text() == reference_vtk(mesh, values)
        back = read_fields_csv(tmp_path / "f.csv")[3]
        assert back[:, 0].tobytes() == values["sigma"].tobytes()
        assert back[:, 1].tobytes() == values["theta"].tobytes()


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_minimal_run_succeeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, COARSE + "gamma.preset = large\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
        assert sorted(path.name for path in out.iterdir()) == ["fields.csv", "record.csv"]
        header = (out / "fields.csv").read_text().split("\n", 1)[0]
        assert header == "node_id,x,y,sigma_recon,theta_recon,sigma_true,theta_true"
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

    def test_a_config_that_is_not_ascii_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("gamma.preset = m\u00e9dium\n".encode("utf-8"))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: not ASCII text\n"
        assert not (tmp_path / "o").exists()

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

    def test_table2_past_the_node_cap_names_the_key(self, tmp_path, capsys, monkeypatch):
        # the config's own data mesh (331,669 nodes) fits; table2's finest
        # level (5,294,737) does not, and the message names the config's key
        def no_mesh(target_h):
            raise AssertionError("a mesh was built")
        monkeypatch.setattr(pipeline, "build_disk_mesh", no_mesh)
        cfg = write_config(tmp_path, "mesh.target_h = 0.03\nmesh.refine_levels = 1\n")
        assert run_cli("table2", "--config", cfg, "--out", str(tmp_path / "t"),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "mesh.refine_levels = 1 at mesh.target_h = 0.03" in err
        assert "table2 refines 2 levels further" in err and "2**22" in err
        assert "refine_levels = 3" not in err and "Traceback" not in err
        assert not (tmp_path / "t" / "table2.csv").exists()

    @pytest.mark.parametrize("line", ["mesh.refine_levels = 6", "mesh.target_h = 1e-4"])
    def test_a_data_mesh_past_the_cap_is_refused_before_any_mesh(self, tmp_path, capsys,
                                                                 monkeypatch, line):
        # 338,640,001 and 7.5e9 data nodes: the vertices alone would take
        # 5.4 GB and 120 GB
        def no_mesh(target_h):
            raise AssertionError("a mesh was built")
        monkeypatch.setattr(pipeline, "build_disk_mesh", no_mesh)
        cfg = write_config(tmp_path, line + "\n")
        for command in ("run", "forward", "table2"):
            assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 1
            err = capsys.readouterr().err
            assert "target_h" in err and "refine_levels" in err and "2**22" in err
            assert "Traceback" not in err
            assert not (tmp_path / "o").exists()

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
        path = out / "stage.npz"
        path.write_bytes(_set_values("theta_true", {a: 0.0, b: np.pi})(path.read_bytes()))
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


def stage_arrays(data: bytes) -> dict:
    with np.load(io.BytesIO(data)) as npz:
        return {name: npz[name] for name in npz.files}


def stage_bytes(arrays: dict) -> bytes:
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def _with_arrays(change):
    """A corruption that rebuilds the stage file from `change(arrays)`."""
    return lambda data: stage_bytes(change(stage_arrays(data)))


def _set_values(name, values):
    """A corruption that sets nodes of one field: {node: value}."""
    def change(arrays):
        for node, value in values.items():
            arrays[name][node] = value
        return arrays
    return _with_arrays(change)


def _edit_text(edit):
    """A corruption of the stage's config text that keeps the file well formed."""
    def change(arrays):
        arrays["stage"] = np.array(edit(str(arrays["stage"])))
        return arrays
    return _with_arrays(change)


def _flip_data_byte(data: bytes) -> bytes:
    """The last byte of h11's stored data changed; its CRC no longer fits."""
    info = zipfile.ZipFile(io.BytesIO(data)).getinfo("h11.npy")
    local = info.header_offset
    name_len, extra_len = (int.from_bytes(data[local + k:local + k + 2], "little")
                           for k in (26, 28))
    at = local + 30 + name_len + extra_len + info.file_size - 1
    return data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1:]


class TestMalformedStageFiles:
    # at h = 0.3 the mesh has 217 nodes; node 216 is on the rim
    @pytest.mark.parametrize("corrupt,where", [
        (_edit_text(lambda t: t[:len(t) // 3]), "not the stage of this config"),
        (_edit_text(lambda t: t + "noise.seed = 3\n"), "line 5 differs"),
        # every line is there, but not as written: the first that differs
        (_edit_text(lambda t: t[t.index("\n") + 1:] + t[:t.index("\n") + 1]),
         "line 1 differs"),
        (_edit_text(lambda t: t.replace("\n", "\r\n")), "line 1 differs"),
        (_set_values("h11", {2: np.nan}), "h11 is nan at node 2"),
        (_set_values("theta_true", {216: 100.0}), "100.0 at node 216 outside"),
        (_set_values("theta_true", {0: 4.0}), "4.0 at node 0 outside"),
        (_set_values("theta_true", {0: -np.pi}), "at node 0 outside (-pi, pi]"),
        (lambda data: data[:len(data) // 2], "not a readable stage"),
        (lambda data: b"", "EOFError"),
        (lambda data: b"mesh.target_h = 0.3\n", "ValueError"),
        (_flip_data_byte, "BadZipFile"),
        (_with_arrays(lambda a: {k: v for k, v in a.items() if k != "h22"}), "holds arrays"),
        (_with_arrays(lambda a: {**a, "sigma_true": a["h11"]}), "holds arrays"),
        (_with_arrays(lambda a: {**a, "h12": a["h12"].astype(object)}), "Object arrays"),
        (_with_arrays(lambda a: {**a, "h11": a["h11"].astype(np.int64)}), "h11 is int64"),
        (_with_arrays(lambda a: {**a, "h22": a["h22"][:-1]}), "h22 is float64 of shape (216,)"),
        (_with_arrays(lambda a: {**a, "stage": a["stage"].reshape(1)}),
         "not the stage of this config"),
    ], ids=["stage-truncated", "stage-extra-line", "stage-reordered", "stage-crlf",
            "field-nan", "angle-on-the-rim", "angle-at-node-0", "angle-at-minus-pi",
            "file-truncated", "file-empty", "file-of-text", "file-crc-damaged",
            "array-missing", "array-extra", "array-of-objects", "array-of-ints",
            "array-short", "stage-not-a-string"])
    def test_reconstruct_names_the_file(self, stage, tmp_path, capsys, corrupt, where):
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / "stage.npz"
        path.write_bytes(corrupt(path.read_bytes()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and where in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_an_overflowing_load_is_exit_2_at_once(self, stage, tmp_path, capsys):
        # a well-formed but tiny h11 at node 4 makes the angle solve's load
        # overflow; PCG stops before its first iteration
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / "stage.npz"
        path.write_bytes(_set_values("h11", {4: 1e-300})(path.read_bytes()))
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 2
        assert "right-hand side is not finite" in capsys.readouterr().err
        assert not (out / "record.csv").exists()

    def test_an_overflowing_determinant_is_exit_2(self, stage, tmp_path, capsys):
        # a well-formed h12 of 1e300 at node 4 squares past float max
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        path = out / "stage.npz"
        path.write_bytes(_set_values("h12", {4: 1.0000000000000001e+300})(path.read_bytes()))
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
        assert "stage.npz" in err and key in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_a_stage_without_stage_npz_names_it(self, stage, tmp_path, capsys):
        # a stage an older version wrote has field CSVs and a stage.txt
        cfg, source = stage
        out = tmp_path / "stage"
        shutil.copytree(source, out)
        arrays = stage_arrays((out / "stage.npz").read_bytes())
        (out / "stage.npz").unlink()
        (out / "stage.txt").write_text(str(arrays["stage"]))
        mesh = pipeline.base_mesh(parse_config(COARSE).config)
        for name in ("h11", "h12", "h22", "theta_true"):
            export_field({"value": ScalarField(mesh, arrays[name])}, out / f"{name}.csv")
        assert run_cli("reconstruct", "--config", cfg, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "stage.npz" in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()

    def test_an_interrupted_forward_leaves_no_stage(self, tmp_path, capsys):
        # the second forward fails as it writes: the first config's stage
        # stays whole, and it is not the second config's
        large = write_config(tmp_path, COARSE + "gamma.preset = large\n", "large.cfg")
        medium = write_config(tmp_path, COARSE + "gamma.preset = medium\n", "medium.cfg")
        out = tmp_path / "stage"
        assert run_cli("forward", "--config", large, "--out", str(out), "--quiet") == 0
        first = (out / "stage.npz").read_bytes()
        (out / "stage.npz.tmp").mkdir()
        assert run_cli("forward", "--config", medium, "--out", str(out), "--quiet") == 1
        capsys.readouterr()
        assert (out / "stage.npz").read_bytes() == first
        assert run_cli("reconstruct", "--config", medium, "--out", str(out),
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert "stage.npz" in err and "gamma.preset" in err
        assert "Traceback" not in err
        assert not (out / "record.csv").exists()


class TestSubcommands:
    def test_forward_then_reconstruct_matches_run(self, tmp_path):
        cfg = write_config(tmp_path, COARSE + "noise.alpha_percent = 1\n"
                           "noise.seed = 50\nnoise.eig_floor = 1e-5\n"
                           "output.formats = csv,vtk\n")
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("run", "--config", cfg, "--out", str(one), "--quiet") == 0
        assert run_cli("forward", "--config", cfg, "--out", str(two), "--quiet") == 0
        assert run_cli("reconstruct", "--config", cfg, "--out", str(two), "--quiet") == 0
        # the record, and the four fields in both formats
        names = sorted(path.name for path in one.iterdir())
        assert names == ["fields.csv", "fields.vtk", "record.csv"]
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_forward_writes_one_stage_file(self, stage):
        # one file, and no fields.csv although the config names csv output
        cfg, out = stage
        assert [p.name for p in out.iterdir()] == ["stage.npz"]
        with np.load(out / "stage.npz", allow_pickle=False) as npz:
            assert npz.files == ["stage", "h11", "h12", "h22", "theta_true"]
            assert str(npz["stage"]) == ("mesh.target_h = 0.3\nmesh.refine_levels = 0\n"
                                         "gamma.preset = 'medium'\nsigma.case = 'case1'\n")
            assert all(npz[name].dtype == np.float64 and npz[name].shape == (217,)
                       for name in npz.files[1:])

    def test_stale_meta_file_is_ignored(self, tmp_path):
        # the mesh and the true conductivity come from the config; the
        # `meta.txt`, `mesh.txt`, `stage.txt` and field CSVs older forward
        # stages left do not reach the record
        cfg = write_config(tmp_path, COARSE)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("run", "--config", cfg, "--out", str(one), "--quiet") == 0
        assert run_cli("forward", "--config", cfg, "--out", str(two), "--quiet") == 0
        (two / "meta.txt").write_text("n_data 999999\nflagged 0\n")
        (two / "stage.txt").write_text("mesh.target_h = 0.5\n")
        other = tag_boundary(build_disk_mesh(0.5), GAMMA_MEDIUM)
        (two / "mesh.txt").write_text("vertices 0\n")
        for name in ("sigma_true", "h11"):
            export_field({"value": ScalarField(other, np.full(other.n_vertices, 7.0))},
                         two / f"{name}.csv")
        assert run_cli("reconstruct", "--config", cfg, "--out", str(two), "--quiet") == 0
        for name in ("record.csv", "fields.csv"):
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
        for name in ("record.csv", "fields.csv"):
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
        header, ids, xy, values = read_fields_csv(out / "fields.csv")
        assert header == ["node_id", "x", "y", "dirichlet"]
        assert xy.tobytes() == mesh.vertices.tobytes()
        values = values[:, 0]
        controlled = np.zeros(mesh.n_vertices, dtype=bool)
        controlled[mesh.dirichlet_nodes] = True
        assert controlled.any() and not controlled.all()
        assert np.all(values[controlled] == 1.0) and np.all(values[~controlled] == 0.0)
        assert ((out / "fields.vtk").read_text()
                == reference_vtk(mesh, {"dirichlet": values}))
        assert sorted(p.name for p in out.iterdir()) == ["fields.csv", "fields.vtk"]

    def test_every_file_goes_through_the_atomic_writer(self, tmp_path, monkeypatch):
        written = set()

        def recording(write):
            def record(path, content):
                write(path, content)
                written.add(path)
            return record

        for name in ("_atomic_text", "_atomic_npz"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
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
        assert sorted(p.name for p in out.iterdir()) == ["fields.vtk", "record.csv"]


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
