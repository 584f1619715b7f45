"""Property tests over drawn inputs (profile in conftest.py: fixed, capped)."""
import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aet2d.cli import main
from aet2d.errors import ContractError
from aet2d.fem import ScalarField
from aet2d.forward import restrict
from aet2d.mesh import BoundarySpec, Mesh, build_disk_mesh, refine
from aet2d.noise import floor_symmetric_2x2
from aet2d.recon import boundary_theta

TWO_PI = 2.0 * math.pi
turns = st.integers(-3, 3).filter(bool)


@given(start=st.floats(0.0, TWO_PI, exclude_max=True),
       width=st.floats(1e-3, TWO_PI - 1e-3), turn=turns,
       t=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=40))
def test_contains_is_unchanged_by_a_whole_turn(start, width, turn, t):
    t = np.array(t)
    spec = BoundarySpec(start, start + width)
    got = spec.contains(t + turn * TWO_PI)
    want = spec.contains(t)
    # the moved angles round differently; compare away from the endpoints
    clear = np.ones(t.shape, dtype=bool)
    for end in (start, start + width):
        gap = np.mod(t - end, TWO_PI)
        clear &= np.minimum(gap, TWO_PI - gap) > 1e-9
    assert np.array_equal(got[clear], want[clear])


entry = st.floats(-1e3, 1e3)


@given(floor=st.floats(1e-10, 10.0),
       loose=st.lists(st.tuples(entry, entry, entry), max_size=20),
       above=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3),
                                st.floats(0.0, math.pi)), min_size=1, max_size=20))
def test_floor_leaves_entries_at_or_above_it_bit_identical(floor, loose, above):
    # `above` composes matrices with both eigenvalues at least the floor;
    # `loose` mixes in arbitrary ones, indefinite included
    low, gap, phi = np.array(above).T
    lo, hi = floor + low, floor + low + gap
    cs, sn = np.cos(phi), np.sin(phi)
    composed = np.column_stack((hi * cs**2 + lo * sn**2, (hi - lo) * cs * sn,
                                hi * sn**2 + lo * cs**2))
    a, b, c = np.vstack((np.array(loose).reshape(-1, 3), composed)).T
    na, nb, nc, mask = floor_symmetric_2x2(a, b, c, floor)
    smallest = np.linalg.eigvalsh(np.stack((np.stack((a, b), -1),
                                            np.stack((b, c), -1)), -2))[:, 0]
    keep = smallest >= floor
    assert not mask[keep].any()
    for new, old in ((na, a), (nb, b), (nc, c)):
        assert np.array_equal(new[keep], old[keep])


# nested chains: each mesh's vertices are the first vertices of the next
CHAINS = {h: [build_disk_mesh(h)] for h in (0.9, 0.5)}
for chain in CHAINS.values():
    chain += [refine(chain[0]), refine(refine(chain[0]))]


def _renumbered(mesh: Mesh, perm: np.ndarray) -> Mesh:
    """The same triangulation with vertex k stored at index perm[k]."""
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return Mesh(vertices, perm[mesh.triangles], perm[mesh.boundary_edges],
                mesh.boundary_tags)


@given(h=st.sampled_from(sorted(CHAINS)), levels=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       change=st.sampled_from(["none", "swap", "nudge", "other chain"]), data=st.data())
def test_restrict_accepts_exactly_index_prefixes(h, levels, change, data):
    coarse, fine = sorted(levels)
    source, target = CHAINS[h][fine], CHAINS[h][coarse]
    n = target.n_vertices
    if change == "swap":
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                  unique=True), label="swapped vertices")
        perm = np.arange(n)
        perm[[i, j]] = perm[[j, i]]
        target = _renumbered(target, perm)
    elif change == "nudge":
        k = data.draw(st.integers(0, n - 1), label="nudged vertex")
        vertices = target.vertices.copy()
        vertices[k, 0] = np.nextafter(vertices[k, 0], np.inf)
        target = Mesh(vertices, target.triangles, target.boundary_edges,
                      target.boundary_tags)
    elif change == "other chain":
        target = CHAINS[0.5 if h == 0.9 else 0.9][coarse]
    values = np.sin(7.0 * source.vertices[:, 0]) + source.vertices[:, 1]
    field = ScalarField(source, values)
    if change != "none":
        with pytest.raises(ContractError, match="not an index prefix"):
            restrict(field, target)
        return
    out = restrict(field, target)
    assert out.mesh is target
    assert out.values.tobytes() == values[:n].tobytes()
    assert not np.shares_memory(out.values, values)


@given(h=st.sampled_from(sorted(CHAINS)), level=st.integers(1, 2), data=st.data())
def test_boundary_theta_moves_angles_by_whole_turns(h, level, data):
    # on a refined mesh the boundary walk is not in sorted node order, so
    # input and output order (sorted) differ from the unwrap's (the walk)
    mesh = CHAINS[h][level]
    nodes, loop = mesh.boundary_nodes, mesh.boundary_loop
    assert np.any(np.diff(loop) < 0)
    raw = np.array(data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=nodes.size,
                                      max_size=nodes.size), label="raw angles"))
    full = np.empty(mesh.n_vertices)
    full[nodes] = raw
    if np.any(np.abs(np.diff(full[loop])) == math.pi):
        with pytest.raises(ContractError, match="ambiguous"):
            boundary_theta(mesh, raw)
        return
    out = boundary_theta(mesh, raw)
    assert out.shape == raw.shape
    shift = out - raw
    assert np.abs(shift - TWO_PI * np.round(shift / TWO_PI)).max() <= 1e-12
    full[nodes] = out
    assert np.abs(np.diff(full[loop])).max() <= math.pi + 1e-12


STAGE_FILES = ("stage.txt", "h11.csv", "h12.csv", "h22.csv", "theta_true.csv")


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    """Config and file contents of one small `aet2d forward` run."""
    root = tmp_path_factory.mktemp("stage")
    cfg = root / "run.cfg"
    cfg.write_text("mesh.target_h = 0.5\n", encoding="ascii")
    assert main(["forward", "--config", str(cfg), "--out", str(root), "--quiet"]) == 0
    return cfg, {name: (root / name).read_bytes() for name in STAGE_FILES}


@given(name=st.sampled_from(STAGE_FILES), truncate=st.booleans(), data=st.data())
def test_a_broken_stage_file_is_named(stage, name, truncate, data):
    cfg, files = stage
    text = files[name]
    if truncate:
        # whole lines off the end
        lines = text.splitlines(keepends=True)
        keep = data.draw(st.integers(0, len(lines) - 1), label="lines kept")
        broken = b"".join(lines[:keep])
    else:
        # one byte that no number, name or separator of the format contains
        at = data.draw(st.integers(0, len(text) - 1), label="offset")
        byte = data.draw(st.sampled_from([b"#", b"x", b"\xff", b"\x00"])
                         .filter(lambda b: b != text[at:at + 1]), label="byte")
        broken = text[:at] + byte + text[at + 1:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for other, content in files.items():
            Path(tmp, other).write_bytes(broken if other == name else content)
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--config", str(cfg), "--out", tmp, "--quiet"])
    assert code == 1
    assert name in err.getvalue()
    assert "Traceback" not in err.getvalue()


FIELD_FILES = STAGE_FILES[1:]


def nudged(cell: bytes, way: float) -> bytes:
    """A number of the stage files, moved by one ulp and written at 17 digits."""
    return b"%.17g" % np.nextafter(float(cell), way)


@given(change=st.sampled_from(["nudge", "swap", "mesh nudge"]),
       data=st.data())
def test_a_wrong_stage_value_is_named(stage, change, data):
    # each file stays well formed; one value in it is wrong
    cfg, files = stage
    n = files["h11.csv"].count(b"\n") - 1  # a header, then one line per node
    way = data.draw(st.sampled_from([-math.inf, math.inf]), label="direction")
    if change == "mesh nudge":
        # the mesh size one ulp off; the stage then is another config's
        name = "stage.txt"
        key = b"mesh.target_h = "
        lines = files[name].split(b"\n")
        row = next(i for i, line in enumerate(lines) if line.startswith(key))
        lines[row] = key + nudged(lines[row][len(key):], way)
        broken = b"\n".join(lines)
    else:
        name = data.draw(st.sampled_from(FIELD_FILES), label="field file")
        lines = files[name].split(b"\n")  # header, n rows, a final empty line
        if change == "nudge":
            # one coordinate off in its last digit
            row = data.draw(st.integers(1, n), label="row")
            col = data.draw(st.sampled_from([1, 2]), label="column")
            cells = lines[row].split(b",")
            cells[col] = nudged(cells[col], way)
            lines[row] = b",".join(cells)
        else:
            # two rows trade node ids, keeping their coordinates and values
            i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                      unique=True), label="rows")
            (a, rest_a), (b, rest_b) = (lines[k].split(b",", 1) for k in (i, j))
            lines[i], lines[j] = b + b"," + rest_a, a + b"," + rest_b
        broken = b"\n".join(lines)
    assert broken != files[name]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for other, content in files.items():
            Path(tmp, other).write_bytes(broken if other == name else content)
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--config", str(cfg), "--out", tmp, "--quiet"])
    assert code == 1
    assert name in err.getvalue()
    assert "Traceback" not in err.getvalue()
