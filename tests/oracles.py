"""Independent reference computations the tests compare the package against.

None of these run in the package: each is the plain, loop-by-loop or
closed-form reading of something the package computes another way, or a
measure only the tests need.
"""
import numpy as np
import scipy.sparse as sp

from aet2d.errors import ContractError, DomainError
from aet2d.fem import ScalarField, VectorField, l2_norm, project_to_nodes
from aet2d.forward import PowerDensity
from aet2d.mesh import TWO_PI, Mesh, _ring_start, basis_coefficients


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
    areas, (b, c) = mesh.areas, basis_coefficients(mesh.vertices, mesh.triangles)
    v = theta.values[mesh.triangles]
    d = v - v[:, :1]
    v = v[:, :1] + (d - TWO_PI * np.round(d / TWO_PI))
    gx = (v * b).sum(axis=1) / (2.0 * areas)
    gy = (v * c).sum(axis=1) / (2.0 * areas)
    return VectorField(mesh, np.column_stack((gx, gy)))


def liouville_phantom(mesh: Mesh):
    """Exact nodal (H, theta, sigma) of a Liouville-transform phantom.

    q = 4 + x + x^2 - y^2 is harmonic and at least 2.875 on the unit disk,
    sigma = q^2, and u_i = x_i / q solves div(sigma grad u) = 0.  With
    g_i = q^2 grad u_i, H_ij = g_i.g_j / q^2 and theta = arg g_1; the first
    component of g_1 is 4 - x^2 - y^2 > 0, so theta needs no unwrap.
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    q = 4.0 + x + x**2 - y**2
    g1 = (4.0 - x**2 - y**2, 2.0 * x * y)
    g2 = (-y * (1.0 + 2.0 * x), 4.0 + x + x**2 + y**2)

    def entry(a, b):
        return ScalarField(mesh, (a[0] * b[0] + a[1] * b[1]) / q**2)

    H = PowerDensity(entry(g1, g1), entry(g1, g2), entry(g2, g2))
    return H, ScalarField(mesh, np.arctan2(g1[1], g1[0])), ScalarField(mesh, q**2)


# -- the P1 basis over whole (T, 3) arrays --------------------------------------

def basis_by_gather(vertices: np.ndarray, triangles: np.ndarray):
    """P1 gradient coefficients (b, c), each (T, 3), from one (T, 3, 2)
    gather of every triangle's corners, all three columns at once."""
    p = vertices[triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack((y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]), axis=1)
    c = np.stack((x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]), axis=1)
    return b, c


def gradient_by_rows(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """(T, 2) element gradients of a nodal field: each component the row sum
    of the (T, 3) products of corner values and coefficients, over 2 * area."""
    b, c = basis_by_gather(mesh.vertices, mesh.triangles)
    u = values[mesh.triangles]
    two_area = 2.0 * mesh.areas
    return np.column_stack(((u * b).sum(axis=1) / two_area,
                            (u * c).sum(axis=1) / two_area))


def weak_div_load_by_rows(mesh: Mesh, vectors: np.ndarray) -> np.ndarray:
    """Nodal load of integral F.grad(phi_i), the (T, 3) element loads
    (b_i Fx + c_i Fy) / 2 summed into their vertices."""
    b, c = basis_by_gather(mesh.vertices, mesh.triangles)
    contrib = 0.5 * (b * vectors[:, 0, None] + c * vectors[:, 1, None])
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_vertices)


def true_theta_by_rows(mesh: Mesh, u1: ScalarField):
    """`aet2d.forward.true_theta`'s nodal angle and flagged nodes, with the
    gradient and its noise floor taken over whole (T, 3) arrays."""
    g = gradient_by_rows(mesh, u1.values)
    norms = np.hypot(g[:, 0], g[:, 1])
    b, c = basis_by_gather(mesh.vertices, mesh.triangles)
    weighted = np.abs(u1.values[mesh.triangles]) * np.hypot(b, c)
    noise_floor = weighted.sum(axis=1) * 1e-13 / (2.0 * mesh.areas)
    degenerate = norms <= noise_floor
    unit = np.divide(g, norms[:, None], out=np.zeros_like(g),
                     where=~degenerate[:, None])
    averaged = project_to_nodes(mesh, unit)
    flagged = np.zeros(mesh.n_vertices, dtype=bool)
    flagged[np.unique(mesh.triangles[degenerate])] = True
    flagged |= np.hypot(averaged[:, 0], averaged[:, 1]) <= 1e-12
    theta = np.arctan2(averaged[:, 1], averaged[:, 0])
    theta[theta <= -np.pi] = np.pi
    theta[flagged] = 0.0
    return theta, np.flatnonzero(flagged)
