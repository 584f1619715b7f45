import ast
import math
from pathlib import Path

import numpy as np
import pytest

import aet2d.mesh
from aet2d.errors import ContractError, ParameterError
from aet2d.mesh import (
    DIRICHLET,
    GAMMA_FULL,
    GAMMA_LARGE,
    GAMMA_MEDIUM,
    GAMMA_SMALL,
    NEUMANN,
    BoundarySpec,
    Mesh,
    _edge_keys,
    build_disk_mesh,
    canonical_angle,
    refine,
    signed_areas,
    tag_boundary,
)
from oracles import edge_count, ring_loop_triangles, triangle_quality

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def coarse():
    return build_disk_mesh(0.2)


@pytest.fixture(scope="module")
def desk():
    return build_disk_mesh(0.03)


def max_interior_angle(mesh):
    p = mesh.vertices[mesh.triangles]
    worst = 0.0
    for i in range(3):
        v1 = p[:, (i + 1) % 3] - p[:, i]
        v2 = p[:, (i + 2) % 3] - p[:, i]
        cosang = (v1 * v2).sum(axis=1) / (
            np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1))
        worst = max(worst, float(np.arccos(np.clip(cosang, -1, 1)).max()))
    return worst


# -- angles ------------------------------------------------------------------

def test_canonical_angle_interval():
    assert canonical_angle(np.pi) == pytest.approx(np.pi)
    assert canonical_angle(-np.pi) == pytest.approx(np.pi)
    assert canonical_angle(0.0) == 0.0
    t = canonical_angle(np.linspace(-10, 10, 1001))
    assert np.all(t > -np.pi - 1e-15) and np.all(t <= np.pi + 1e-15)


# -- BoundarySpec ------------------------------------------------------------

def test_boundary_spec_validation():
    for start, end in ((-0.5, 1.0),                  # starts below 0
                       (-1e-300, 1.0),
                       (TWO_PI, TWO_PI + 1.0),       # starts at a whole turn
                       (7.0, 8.0),
                       (1.0, 1.0),                   # zero width
                       (2.0, 1.0),
                       (0.0, 3 * np.pi),             # wider than the circle
                       (1.0, 1.0 + TWO_PI + 1e-9),
                       (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ParameterError):
            BoundarySpec(start, end)


def test_boundary_spec_membership_wrapping():
    # the large preset crosses the positive x-axis
    assert GAMMA_LARGE.contains(0.0)
    assert GAMMA_LARGE.contains(np.pi)
    assert not GAMMA_LARGE.contains(np.pi / 4)
    assert GAMMA_SMALL.contains(canonical_angle(9.5 * np.pi / 8))
    assert not GAMMA_SMALL.contains(0.0)
    assert GAMMA_FULL.contains(np.linspace(-np.pi, np.pi, 33)).all()
    # each preset tags its README share of the rim, to within one edge
    mesh = build_disk_mesh(0.06)
    shares = ((GAMMA_FULL, 1.0), (GAMMA_LARGE, 7 / 8), (GAMMA_MEDIUM, 1 / 2),
              (GAMMA_SMALL, 1 / 8))
    for m in (mesh, refine(mesh)):
        for spec, share in shares:
            tags = tag_boundary(m, spec).boundary_tags
            assert abs(np.count_nonzero(tags == DIRICHLET) - share * len(tags)) <= 1


# -- generator ---------------------------------------------------------------

def test_build_rejects_bad_target_h():
    for bad in (0.0, -0.1, 1.0, 2.0):
        with pytest.raises(ParameterError):
            build_disk_mesh(bad)


def test_build_coarse_sanity():
    mesh = build_disk_mesh(0.5)
    assert mesh.n_triangles >= 12
    assert np.all(mesh.areas > 0)


def test_build_default_resolution_node_count(desk):
    assert 15_000 <= desk.n_vertices <= 30_000


def test_total_area_approximates_disk(desk):
    assert abs(desk.areas.sum() - np.pi) / np.pi <= 0.005


def test_triangle_diameter_bound():
    for h in (0.5, 0.15, 0.08):
        mesh = build_disk_mesh(h)
        p = mesh.vertices[mesh.triangles]
        diam = max(
            np.linalg.norm(p[:, i] - p[:, j], axis=1).max()
            for i, j in ((0, 1), (1, 2), (2, 0)))
        assert diam <= 1.5 * h


def test_triangle_quality(desk):
    assert triangle_quality(desk).min() >= 0.3


def test_no_obtuse_triangles(coarse, desk):
    # stronger than the quality bound: keeps the stiffness matrix an M-matrix
    assert max_interior_angle(coarse) <= np.pi / 2 + 1e-12
    assert max_interior_angle(desk) <= np.pi / 2 + 1e-12


def test_boundary_vertices_on_unit_circle(desk):
    rim = desk.vertices[desk.boundary_nodes]
    assert np.abs(np.hypot(rim[:, 0], rim[:, 1]) - 1.0).max() <= 1e-12


def test_euler_characteristic(coarse):
    chi = coarse.n_vertices - edge_count(coarse) + coarse.n_triangles
    assert chi == 1


def test_boundary_loop_is_ccw(coarse):
    angles = np.unwrap(coarse.edge_angles)
    assert np.all(np.diff(angles) > 0)


def test_build_is_deterministic():
    a = build_disk_mesh(0.17)
    b = build_disk_mesh(0.17)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)


@pytest.mark.parametrize("h", [0.9, 0.5, 0.2, 0.1, 0.06, 0.045, 0.03, 0.015])
def test_build_matches_the_ring_loop(h):
    assert np.array_equal(build_disk_mesh(h).triangles, ring_loop_triangles(h))


def test_mesh_arrays_immutable(coarse):
    with pytest.raises(ValueError):
        coarse.vertices[0, 0] = 7.0


# -- tagging -----------------------------------------------------------------

def test_tag_full_circle(coarse):
    tagged = tag_boundary(coarse, GAMMA_FULL)
    assert np.all(tagged.boundary_tags == DIRICHLET)
    # input untouched
    assert np.all(coarse.boundary_tags == NEUMANN)


def test_tag_partition(coarse):
    tagged = tag_boundary(coarse, GAMMA_MEDIUM)
    n_d = int((tagged.boundary_tags == DIRICHLET).sum())
    n_n = int((tagged.boundary_tags == NEUMANN).sum())
    assert n_d + n_n == len(tagged.boundary_edges)
    assert n_d > 0 and n_n > 0


def test_tag_small_arc_length(desk):
    h = 0.03
    tagged = tag_boundary(desk, GAMMA_SMALL)
    edges = tagged.vertices[tagged.boundary_edges]
    lengths = np.linalg.norm(edges[:, 1] - edges[:, 0], axis=1)
    arc = lengths[tagged.boundary_tags == DIRICHLET].sum()
    assert abs(arc - np.pi / 4) <= 2 * h


def test_tag_medium_fraction(desk):
    tagged = tag_boundary(desk, GAMMA_MEDIUM)
    frac = (tagged.boundary_tags == DIRICHLET).mean()
    assert abs(frac - 0.5) <= 0.03


def test_dirichlet_nodes_endpoints(coarse):
    tagged = tag_boundary(coarse, GAMMA_MEDIUM)
    nodes = tagged.dirichlet_nodes
    angles = canonical_angle(np.arctan2(
        tagged.vertices[nodes, 1], tagged.vertices[nodes, 0]))
    # every Dirichlet node sits on or adjacent to the tagged arc
    slack = TWO_PI / len(tagged.boundary_edges)
    dist = np.minimum(np.abs(canonical_angle(angles - 3 * np.pi / 4)),
                      np.abs(canonical_angle(angles - 7 * np.pi / 4)))
    inside = GAMMA_MEDIUM.contains(angles)
    assert np.all(inside | (dist <= slack + 1e-12))


# -- refinement --------------------------------------------------------------

def test_refine_quadruples_triangles(coarse):
    fine = refine(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    assert len(fine.boundary_edges) == 2 * len(coarse.boundary_edges)


def test_refine_projects_boundary(coarse):
    fine = refine(coarse)
    rim = fine.vertices[fine.boundary_nodes]
    assert np.abs(np.hypot(rim[:, 0], rim[:, 1]) - 1.0).max() <= 1e-12


def test_refine_area_monotone(coarse):
    a0 = coarse.areas.sum()
    m1 = refine(coarse)
    a1 = m1.areas.sum()
    a2 = refine(m1).areas.sum()
    assert a0 < a1 < a2 < np.pi


def test_refine_keeps_parent_vertices(coarse):
    fine = refine(coarse)
    assert np.array_equal(fine.vertices[:coarse.n_vertices], coarse.vertices)


def test_refine_inherits_tags(coarse):
    tagged = tag_boundary(coarse, GAMMA_MEDIUM)
    fine = refine(tagged)
    assert np.array_equal(fine.boundary_tags, np.repeat(tagged.boundary_tags, 2))


def test_refine_commutes_with_tagging(coarse):
    h = 0.2
    inherited = refine(tag_boundary(coarse, GAMMA_MEDIUM))
    retagged = tag_boundary(refine(coarse), GAMMA_MEDIUM)
    ends = canonical_angle(np.array([3 * np.pi / 4, 7 * np.pi / 4]))
    dist = np.abs(canonical_angle(inherited.edge_angles[:, None] - ends[None, :])).min(axis=1)
    away = dist > 2 * h
    assert np.array_equal(inherited.boundary_tags[away], retagged.boundary_tags[away])


def test_refine_stays_nonobtuse(coarse):
    assert max_interior_angle(refine(coarse)) <= np.pi / 2 + 1e-9


def test_edge_count_is_the_refinement_node_gain():
    # refine adds one node per edge, so the data mesh's size follows from
    # the reconstruction mesh alone
    mesh = tag_boundary(build_disk_mesh(0.3), GAMMA_MEDIUM)
    for _ in range(3):
        finer = refine(mesh)
        assert mesh.n_edges == edge_count(mesh)
        assert mesh.n_edges == finer.n_vertices - mesh.n_vertices
        mesh = finer


# -- geometry computed once ----------------------------------------------------

def test_geometry_cache_is_read_only_and_exact():
    mesh = build_disk_mesh(0.3)
    assert mesh.areas.tobytes() == signed_areas(mesh.vertices, mesh.triangles).tobytes()
    assert mesh.star_areas is mesh.star_areas
    for a in (mesh.areas, mesh.star_areas):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_derived_meshes_do_not_inherit_the_cache():
    mesh = build_disk_mesh(0.3)
    mesh.star_areas
    tagged, refined = tag_boundary(mesh, GAMMA_MEDIUM), refine(mesh)
    for child in (tagged, refined):
        assert "star_areas" not in vars(child)
        assert child.areas.tobytes() == signed_areas(child.vertices, child.triangles).tobytes()
    # tagging moves no vertex, so the tagged mesh keeps the input's areas
    assert tagged.areas is mesh.areas and refined.areas is not mesh.areas


def test_mesh_module_imports_no_scipy():
    # a mesh is geometry only: every matrix is assembled in aet2d.fem
    tree = ast.parse(Path(aet2d.mesh.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_tagging_checks_only_the_tags(monkeypatch):
    mesh = build_disk_mesh(0.3)
    edge_tables = []

    def edge_keys(*args):
        edge_tables.append(args)
        return _edge_keys(*args)

    monkeypatch.setattr(aet2d.mesh, "_edge_keys", edge_keys)
    tagged = tag_boundary(mesh, GAMMA_MEDIUM)
    assert edge_tables == []
    assert tagged.areas.tobytes() == mesh.areas.tobytes() and tagged.n_edges == mesh.n_edges
    # a mesh built from arrays still runs every check
    Mesh(tagged.vertices, tagged.triangles, tagged.boundary_edges, tagged.boundary_tags)
    assert len(edge_tables) == 1


def test_rim_angles_are_computed_on_first_read():
    mesh = refine(tag_boundary(build_disk_mesh(0.3), GAMMA_MEDIUM))
    assert "edge_angles" not in vars(mesh) and "loop_angles" not in vars(mesh)
    xy = mesh.vertices[mesh.boundary_loop]
    assert mesh.loop_angles.tobytes() == np.arctan2(xy[:, 1], xy[:, 0]).tobytes()
    v, be = mesh.vertices, mesh.boundary_edges
    mid = 0.5 * (v[be[:, 0]] + v[be[:, 1]])
    want = canonical_angle(np.arctan2(mid[:, 1], mid[:, 0]))
    assert mesh.edge_angles.tobytes() == want.tobytes()
    for a in (mesh.loop_angles, mesh.edge_angles):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


# -- checks on construction ---------------------------------------------------

@pytest.mark.parametrize("tag", [2, -1, 256, 257])
def test_read_mesh_rejects_unknown_tags(coarse, tag):
    # 256 and 257 would wrap to valid tags in a uint8 cast
    tags = coarse.boundary_tags.astype(np.int64)
    tags[-1] = tag
    with pytest.raises(ContractError, match="DIRICHLET or NEUMANN"):
        Mesh(coarse.vertices, coarse.triangles, coarse.boundary_edges, tags)


def test_read_mesh_accepts_zero_row_blocks():
    mesh = Mesh(np.empty((0, 2)), np.empty((0, 3), dtype=np.int64),
                np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
    assert mesh.vertices.shape == (0, 2) and mesh.triangles.shape == (0, 3)
    assert mesh.boundary_edges.shape == (0, 2) and mesh.boundary_tags.dtype == np.uint8
