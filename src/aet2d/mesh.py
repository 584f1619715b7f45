"""Triangulations of the unit disk with boundary-arc labeling.

The generator builds a deterministic, structured concentric-ring mesh: ring k
carries 6k vertices, so consecutive rings triangulate into near-equilateral
strips and the outermost triangles stay non-obtuse (which the discrete maximum
principle relies on). No external mesher is involved, so identical inputs give
identical meshes on every platform.

Angles are canonicalized to (-pi, pi] throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ParameterError

TWO_PI = 2.0 * math.pi

# Boundary edge tags.
NEUMANN = 0
DIRICHLET = 1


def canonical_angle(t):
    """Map angles (scalar or array) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(t, dtype=float), TWO_PI)


# ---------------------------------------------------------------------------
# Boundary arc specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySpec:
    """The controlled boundary arc, the half-open angle interval [start, end).

    The arc is read counterclockwise from `start`, which lies in [0, 2*pi);
    its width `end - start` lies in (0, 2*pi], so `end` passes 2*pi on an arc
    that crosses the positive x-axis.
    """

    start: float
    end: float

    def __post_init__(self):
        if not (0.0 <= self.start < TWO_PI and 0.0 < self.end - self.start <= TWO_PI):
            raise ParameterError(f"arc [{self.start}, {self.end}) must start in "
                                 "[0, 2*pi) and have width in (0, 2*pi]")

    def contains(self, t) -> np.ndarray:
        """Vectorized membership test for angles t (any canonical branch)."""
        t = np.asarray(t, dtype=float)
        width = self.end - self.start
        if width >= TWO_PI - 1e-15:
            return np.ones(t.shape, dtype=bool)
        return np.mod(t - self.start, TWO_PI) < width


GAMMA_FULL = BoundarySpec(0.0, TWO_PI)
GAMMA_LARGE = BoundarySpec(3 * math.pi / 8, 17 * math.pi / 8)
GAMMA_MEDIUM = BoundarySpec(3 * math.pi / 4, 7 * math.pi / 4)
GAMMA_SMALL = BoundarySpec(9 * math.pi / 8, 11 * math.pi / 8)

GAMMA_PRESETS = {
    "full": GAMMA_FULL,
    "large": GAMMA_LARGE,
    "medium": GAMMA_MEDIUM,
    "small": GAMMA_SMALL,
}


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation of the unit disk.

    vertices        (N, 2) float coordinates
    triangles       (T, 3) vertex indices, counterclockwise
    boundary_edges  (K, 2) vertex pairs walking the boundary counterclockwise
    boundary_tags   (K,)   DIRICHLET/NEUMANN per edge
    areas           (T,)   triangle areas (not a field)
    n_edges         number of unique edges (not a field)

    The triangle areas and the edge count are computed on construction, by
    the checks. The boundary edge and rim vertex angles and the vertex star
    areas are computed on first read, once per mesh. A mesh is geometry
    only: it assembles no matrix (`aet2d.fem` does).
    The P1 basis coefficients are not kept: each user computes them from
    `vertices` and `triangles` (`basis_column`, `basis_coefficients`). All
    arrays are read-only; operations return new meshes, each built by this
    constructor, so each runs every check and computes its own geometry.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 2)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        be = np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2)
        tags = np.asarray(self.boundary_tags).reshape(-1)
        areas, n_edges = self._validate(v, t, be, tags)  # before a cast could wrap a tag
        tags = tags.astype(np.uint8, copy=False)

        object.__setattr__(self, "vertices", _frozen(v))
        object.__setattr__(self, "triangles", _frozen(t))
        object.__setattr__(self, "boundary_edges", _frozen(be))
        object.__setattr__(self, "boundary_tags", _frozen(tags))
        # not fields: computed by the checks, never passed in
        object.__setattr__(self, "areas", _frozen(areas))
        object.__setattr__(self, "n_edges", n_edges)

    @staticmethod
    def _validate(v, t, be, tags) -> tuple[np.ndarray, int]:
        """Check the triangulation; returns the triangle areas and the
        unique edge count it computed."""
        if tags.shape[0] != be.shape[0]:
            raise ContractError("one tag per boundary edge required")
        if tags.size and not np.all((tags == NEUMANN) | (tags == DIRICHLET)):
            raise ContractError("tags must be DIRICHLET or NEUMANN")
        if not np.all(np.isfinite(v)):
            raise ContractError("vertex coordinates must be finite")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise ContractError("triangle indices out of range")
        if be.min(initial=0) < 0 or be.max(initial=-1) >= len(v):
            raise ContractError("boundary edge indices out of range")
        areas = signed_areas(v, t)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise ContractError(f"triangle {bad} is not counterclockwise (area {areas[bad]:g})")
        # Boundary edges must close into a single CCW loop.
        if np.any(be[:, 1] != np.roll(be[:, 0], -1)):
            raise ContractError("boundary edges do not form a closed loop")
        r = np.hypot(v[be[:, 0], 0], v[be[:, 0], 1])
        if np.any(np.abs(r - 1.0) > 1e-12):
            bad = int(np.argmax(np.abs(r - 1.0)))
            raise ContractError(f"boundary vertex {be[bad, 0]} is off the unit circle")
        # Each boundary edge belongs to exactly one triangle, and no interior
        # edge was mislabeled as boundary.
        uniq, counts = np.unique(_edge_keys(t, len(v)), return_counts=True)
        rim = np.sort(be, axis=1)
        rim = rim[:, 0] * len(v) + rim[:, 1]
        pos = np.searchsorted(uniq, rim)
        if np.any(pos >= len(uniq)) or np.any(uniq[np.minimum(pos, len(uniq) - 1)] != rim):
            raise ContractError("boundary edge missing from triangulation")
        if np.any(counts[pos] != 1):
            raise ContractError("boundary edge shared by more than one triangle")
        if np.sum(counts == 1) != len(rim):
            raise ContractError("triangulation has untagged boundary edges")
        return areas, len(uniq)

    # -- simple accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def boundary_loop(self) -> np.ndarray:
        """Boundary vertex indices in counterclockwise walk order."""
        return self.boundary_edges[:, 0]

    @property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique boundary vertex indices."""
        return np.unique(self.boundary_edges)

    @property
    def dirichlet_nodes(self) -> np.ndarray:
        """Sorted endpoints of DIRICHLET-tagged edges."""
        return np.unique(self.boundary_edges[self.boundary_tags == DIRICHLET])

    # -- geometry computed once per mesh --------------------------------------

    @cached_property
    def edge_angles(self) -> np.ndarray:
        """Polar angle of each boundary edge's midpoint, in (-pi, pi]."""
        v, be = self.vertices, self.boundary_edges
        mid = 0.5 * (v[be[:, 0]] + v[be[:, 1]])
        return _frozen(canonical_angle(np.arctan2(mid[:, 1], mid[:, 0])))

    @cached_property
    def loop_angles(self) -> np.ndarray:
        """Polar angle of each `boundary_loop` vertex, in that order."""
        xy = self.vertices[self.boundary_loop]
        return _frozen(np.arctan2(xy[:, 1], xy[:, 0]))

    @cached_property
    def star_areas(self) -> np.ndarray:
        """Total area of the triangles around each vertex."""
        return _frozen(star_sum(self, self.areas))


# triangles per `np.add.at` call in `star_sum`
_STAR_CHUNK = 4096


def star_sum(mesh: Mesh, weights: np.ndarray) -> np.ndarray:
    """Sum of a per-triangle weight over the triangles around each vertex, (N,).

    Added triangle by triangle in C order of the (T, 3) triangles, the order
    of `np.bincount` over the raveled triangles with 3T repeated weights, so
    every sum is that one's bit for bit.  A 1-D `np.add.at` per 4096-triangle
    chunk takes numpy's fast path and repeats only one chunk's weights.
    """
    tri = mesh.triangles
    total = np.zeros(mesh.n_vertices)
    for s in range(0, len(tri), _STAR_CHUNK):
        np.add.at(total, tri[s:s + _STAR_CHUNK].ravel(),
                  np.repeat(weights[s:s + _STAR_CHUNK], 3))
    return total


def _edge_keys(triangles: np.ndarray, n_vertices: int) -> np.ndarray:
    """Key lo * n_vertices + hi of each triangle's edges 01, 12, 20, row by row."""
    ahead = triangles[:, [1, 2, 0]]
    keys = np.minimum(triangles, ahead)
    keys *= n_vertices
    keys += np.maximum(triangles, ahead, out=ahead)
    return keys.ravel()


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed area of each triangle (positive for counterclockwise)."""
    x, y = vertices[:, 0], vertices[:, 1]
    i, j, k = triangles.T
    x0, y0 = x[i], y[i]
    return 0.5 * ((x[j] - x0) * (y[k] - y0) - (x[k] - x0) * (y[j] - y0))


def basis_coefficients(vertices: np.ndarray, triangles: np.ndarray):
    """P1 gradient coefficients (b, c), each (T, 3), of every triangle:
    grad phi_k = (b[:, k], c[:, k]) / (2 * area), column k from `basis_column`."""
    b, c = np.empty(triangles.shape), np.empty(triangles.shape)
    for k in range(3):
        b[:, k], c[:, k] = basis_column(vertices, triangles, k)
    return b, c


def basis_column(vertices: np.ndarray, triangles: np.ndarray, k: int):
    """Column k of `basis_coefficients`, (b[:, k], c[:, k]), alone.

    With i, j the next two corners after k, b_k = y_i - y_j and
    c_k = x_j - x_i, each (T,).
    """
    x, y = vertices[:, 0], vertices[:, 1]
    i, j = triangles[:, (k + 1) % 3], triangles[:, (k + 2) % 3]
    b = y[i]
    b -= y[j]
    c = x[j]
    c -= x[i]
    return b, c


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def _ring_start(k: int) -> int:
    # center vertex is index 0; ring k (k >= 1) holds 6k vertices
    return 1 + 3 * k * (k - 1)


def _ring_count(target_h: float) -> float:
    # a float, so a target_h too small for any ring count gives inf, not an error
    return max(2.0, round(2.5 / target_h, 0))


def disk_vertex_count(target_h: float, refinements: int) -> float:
    """Vertex count of `build_disk_mesh(target_h)` after `refinements` calls
    of `refine`, from closed forms alone, with no mesh built.

    n rings hold 1 + 3n(n + 1) vertices, 6n^2 triangles and 6n rim edges.
    `refine` adds one vertex on each of the (3T + K) / 2 edges of T
    triangles and K rim edges, quarters every triangle and halves every rim
    edge. Counted in floats: exact below 2**53, and inf for a target_h no
    ring count reaches.
    """
    n = _ring_count(target_h)
    vertices, triangles, rim = 1 + 3 * n * (n + 1), 6 * n * n, 6 * n
    for _ in range(refinements):
        vertices += (3 * triangles + rim) / 2
        triangles, rim = 4 * triangles, 2 * rim
    return vertices


def build_disk_mesh(target_h: float) -> Mesh:
    """Build a structured concentric-ring triangulation of the unit disk.

    Parameters
    ----------
    target_h : float
        Mesh size parameter in (0, 1). The ring count is max(2, round(2.5/h)),
        which keeps every triangle diameter below 1.5*target_h and places
        target_h = 0.03 near twenty thousand vertices.

    Returns
    -------
    Mesh
        All boundary edges tagged NEUMANN; apply `tag_boundary` to mark the
        controlled arc.
    """
    if not (0.0 < target_h < 1.0):
        raise ParameterError(f"target_h must lie in (0, 1), got {target_h!r}")
    n = int(_ring_count(target_h))

    verts = [np.zeros((1, 2))]
    for k in range(1, n + 1):
        phi = np.arange(6 * k) * (math.pi / (3 * k))
        r = k / n
        verts.append(np.column_stack((r * np.cos(phi), r * np.sin(phi))))
    vertices = np.vstack(verts)

    # the strip between rings k and k + 1 holds 6(2k + 1) triangles, so it
    # starts at row 6k^2 and the mesh has 6n^2
    triangles = np.empty((6 * n * n, 3), dtype=np.int64)
    hub = np.arange(6)
    triangles[:6] = np.column_stack((np.zeros_like(hub), 1 + hub, 1 + (hub + 1) % 6))
    sector = hub[:, None]
    for k in range(1, n):
        si, so = _ring_start(k), _ring_start(k + 1)
        mi, mo = 6 * k, 6 * (k + 1)
        # Each of the six sectors is the same strip: k steps along the inner
        # ring and k + 1 along the outer one, taken in the angular order of
        # the node each step reaches, (ji + 1) / k against (jo + 1) / (k + 1),
        # compared as integers. Exact ties (sector ends) go to the inner ring,
        # which avoids the obtuse kite at radially aligned node pairs.
        reach = np.concatenate((np.arange(1, k + 1) * (k + 1), np.arange(1, k + 2) * k))
        is_outer = np.lexsort((np.arange(2 * k + 1) >= k, reach)) >= k
        jo = np.cumsum(is_outer) - is_outer  # steps taken before this one
        ji = np.arange(2 * k + 1) - jo
        strip = triangles[6 * k * k:6 * (k + 1) ** 2].reshape(6, 2 * k + 1, 3)
        strip[..., 0] = si + (sector * k + ji) % mi
        strip[..., 1] = so + (sector * (k + 1) + jo) % mo
        strip[..., 2] = np.where(is_outer, so + (sector * (k + 1) + jo + 1) % mo,
                                 si + (sector * k + ji + 1) % mi)

    sb = _ring_start(n)
    idx = sb + np.arange(6 * n)
    boundary_edges = np.column_stack((idx, sb + (np.arange(6 * n) + 1) % (6 * n)))
    tags = np.full(6 * n, NEUMANN, dtype=np.uint8)
    return Mesh(vertices, triangles, boundary_edges, tags)


def tag_boundary(mesh: Mesh, gamma: BoundarySpec) -> Mesh:
    """Return a copy of `mesh` with edges tagged DIRICHLET iff their midpoint
    angle lies in `gamma`. The input mesh is untouched.

    The copy is a `Mesh` like any other: it runs every check and computes its
    own geometry. It shares the input's vertex, triangle and edge arrays.
    """
    inside = gamma.contains(mesh.edge_angles)
    return Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                np.where(inside, DIRICHLET, NEUMANN))


def refine(mesh: Mesh) -> Mesh:
    """Uniform midpoint refinement: every triangle splits into four.

    New boundary vertices are projected onto the unit circle; boundary tags
    are inherited by both child edges.
    """
    v, t = mesh.vertices, mesh.triangles
    nv = len(v)

    uniq, inverse = np.unique(_edge_keys(t, nv), return_inverse=True)
    ea, eb = uniq // nv, uniq % nv
    mids = 0.5 * (v[ea] + v[eb])

    rim = np.sort(mesh.boundary_edges, axis=1)
    rim_flat = rim[:, 0] * nv + rim[:, 1]
    rim_pos = np.searchsorted(uniq, rim_flat)
    norms = np.hypot(mids[rim_pos, 0], mids[rim_pos, 1])
    mids[rim_pos] /= norms[:, None]

    vertices = np.vstack((v, mids))
    m01, m12, m20 = (nv + inverse.reshape(-1, 3)[:, i] for i in range(3))
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    triangles = np.concatenate((
        np.column_stack((a, m01, m20)),
        np.column_stack((b, m12, m01)),
        np.column_stack((c, m20, m12)),
        np.column_stack((m01, m12, m20)),
    ))

    mid_idx = nv + rim_pos
    ba, bb = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    boundary_edges = np.empty((2 * len(ba), 2), dtype=np.int64)
    boundary_edges[0::2, 0], boundary_edges[0::2, 1] = ba, mid_idx
    boundary_edges[1::2, 0], boundary_edges[1::2, 1] = mid_idx, bb
    tags = np.repeat(mesh.boundary_tags, 2)
    # the edge table and the midpoints go before the new mesh validates
    del uniq, inverse, ea, eb, mids, m01, m12, m20
    return Mesh(vertices, triangles, boundary_edges, tags)

