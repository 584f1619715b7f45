"""Independent reference computations the tests compare the package against.

None of these run in the package: each is the plain, loop-by-loop or
closed-form reading of something the package computes another way, or a
measure only the tests need.
"""
import numpy as np
import scipy.sparse as sp

from aet2d import ScalarField, VectorField, l2_norm
from aet2d.errors import ContractError, DomainError
from aet2d.mesh import TWO_PI, Mesh, _ring_start


def ring_loop_triangles(target_h: float) -> np.ndarray:
    """`build_disk_mesh`'s triangles, built one triangle at a time.

    Walks each sector of each ring pair, advancing along the ring whose next
    node comes first in angle; exact integer ties (sector ends) go to the
    inner ring.
    """
    n = max(2, round(2.5 / target_h))
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    for k in range(1, n):
        si, so = _ring_start(k), _ring_start(k + 1)
        mi, mo = 6 * k, 6 * (k + 1)
        for s in range(6):
            ji, jo = 0, 0
            while ji < k or jo < k + 1:
                inner = si + (s * k + ji) % mi
                outer = so + (s * (k + 1) + jo) % mo
                if jo < k + 1 and (ji >= k or (jo + 1) * k < (ji + 1) * (k + 1)):
                    tris.append((inner, outer, so + (s * (k + 1) + jo + 1) % mo))
                    jo += 1
                else:
                    tris.append((inner, outer, si + (s * k + ji + 1) % mi))
                    ji += 1
    return np.array(tris, dtype=np.int64)


def coo_assembly(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """(T, 3, 3) element matrices summed the textbook way: one COO triplet
    per element entry, duplicates added by scipy's COO-to-CSR conversion."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def fancy_index_split(matrix: sp.csr_matrix, fixed: np.ndarray):
    """The free block and the free-to-`fixed` coupling by scipy's fancy
    indexing; `fixed` sorted and unique."""
    free = np.setdiff1d(np.arange(matrix.shape[0]), fixed)
    rows = matrix[free]
    return rows[:, free], rows[:, fixed]


def edge_count(mesh: Mesh) -> int:
    """Number of distinct triangle sides, collected as vertex pairs."""
    pairs = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    return len({tuple(sorted(p)) for p in pairs.tolist()})


def triangle_quality(mesh: Mesh) -> np.ndarray:
    """Aspect quality 2*inradius/circumradius per triangle (equilateral -> 1)."""
    p = mesh.vertices[mesh.triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    s = 0.5 * (a + b + c)
    return 8.0 * mesh.areas**2 / (s * a * b * c)


def l2_relative_error(a: ScalarField, b: ScalarField) -> float:
    """|a - b| / |b| in L2(Omega); both fields on the same mesh."""
    if a.mesh is not b.mesh and not np.array_equal(a.mesh.vertices, b.mesh.vertices):
        raise ContractError("fields live on different meshes")
    denom = l2_norm(ScalarField(a.mesh, b.values))
    if denom == 0.0:
        raise DomainError("reference field has zero L2 norm")
    return l2_norm(ScalarField(a.mesh, a.values - b.values)) / denom


def l2_norm_vector(field: VectorField) -> float:
    """L2(Omega) norm of a piecewise-constant vector field."""
    areas = field.mesh.areas
    return float(np.sqrt((areas * (field.vectors ** 2).sum(axis=1)).sum()))


def angle_gradient(mesh: Mesh, theta: ScalarField) -> VectorField:
    """Element gradient of an angle field, blind to the 2 pi branch cut.

    Differentiating principal-range values across the cut manufactures a
    spurious gradient of order 2 pi / h along it.  Folding each corner value
    onto the branch of its element's first corner changes nothing where the
    field is continuous and removes the cut where it is not.  Corners that
    genuinely spread more than pi within one element stay ambiguous; the
    folded reading is kept.
    """
    if theta.mesh is not mesh:
        raise ContractError("field lives on a different mesh")
    areas, (b, c) = mesh.areas, mesh.basis
    v = theta.values[mesh.triangles]
    d = v - v[:, :1]
    v = v[:, :1] + (d - TWO_PI * np.round(d / TWO_PI))
    gx = (v * b).sum(axis=1) / (2.0 * areas)
    gy = (v * c).sum(axis=1) / (2.0 * areas)
    return VectorField(mesh, np.column_stack((gx, gy)))
