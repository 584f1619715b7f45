"""P1 finite-element machinery on disk triangulations.

Gradients of P1 functions are constant per triangle, so vector data lives on
elements and scalar data on vertices. The conductivity enters assembly through
vertex quadrature, which is exact for P1 sigma against the constant gradient
products. Dirichlet conditions are eliminated symmetrically so the free block
stays positive definite for conjugate gradients; a `ConstrainedOperator` does
that split once and then serves every right-hand side with the same matrix
and fixed nodes.

A `ConstrainedOperator` is the one record of which nodes a solve fixes, and
boundary data are float arrays with one value per node of its `fixed`, in
that sorted order. The operators built here fix the mesh's `dirichlet_nodes`
for mixed solves and its `boundary_nodes` for Poisson ones; a caller may pass
any other nonempty set.

Data move between nodes and elements through three functions only:
`element_gradient` (nodal field to its constant gradient per triangle),
`element_mean` (nodal field to its centroid value per triangle) and
`project_to_nodes` (element values to nodes by lumped-mass averaging).

The stiffness matrix is the only matrix assembled, and it is summed as
scipy's COO-to-CSR conversion sums it, a block of rows at a time:
`assemble_conductivity` lays each block's `local_stiffness` rows out by row,
in element order, as that conversion does before it sums, and scipy's own
`sum_duplicates` adds them. A row's sum needs that row alone, so every sum is
taken in the same order, bit for bit, while only one block's element rows are
held. `l2_norm` needs no mass matrix: it sums the consistent-mass form per
triangle.

No P1 basis is kept per mesh. Assembly computes the gradient coefficients of
one block's triangles at a time, and `element_gradient` and the weak
divergence load one vertex column (b_k, c_k) at a time, with the same
subtractions and sums in the same order, so every value is the one the whole
(T, 3) coefficient arrays give.

Every constrained solve, whatever its size, runs Jacobi PCG to the relative
residual `TOL`; a solve that has not reached it after `MAX_ITER` iterations
raises NumericalError. Both are constants, read at call time, not
parameters. No solve loads scipy's direct solvers (SuperLU, LAPACK): loading
them alone raises a run's peak RSS by about 10 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    ContractError,
    DomainError,
    NumericalError,
    SingularSystemError,
)
from .mesh import Mesh, basis_coefficients, basis_column, star_sum

# Conjugate-gradient iterations before a solve is reported stalled; each
# h = 0.03 data solve takes about 1,400.
MAX_ITER = 20_000

# Relative residual every conjugate-gradient solve stops at.
TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One value per mesh vertex."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.shape[0] != self.mesh.n_vertices:
            raise ContractError(
                f"expected {self.mesh.n_vertices} nodal values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ContractError("nodal values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class VectorField:
    """One constant 2-vector per triangle."""

    mesh: Mesh
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64).reshape(-1, 2)
        if v.shape[0] != self.mesh.n_triangles:
            raise ContractError(
                f"expected {self.mesh.n_triangles} element vectors, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ContractError("element vectors must be finite")
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    relative_residual: float


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

# Matrix rows summed per block: a block's pre-sum arrays hold about 6 element
# rows of 3 entries per matrix row, so 512 rows keep them near 0.07 MB.
_BLOCK_ROWS = 512


def local_stiffness(b, c, scale, i) -> np.ndarray:
    """Rows of P1 element stiffness matrices, as `assemble_conductivity`
    sums them.

    Parameters
    ----------
    b, c : (S, 3) basis coefficients of each row's triangle, grad phi_j =
        (b_j, c_j) / (2 * area), as `aet2d.mesh.basis_coefficients` gives
        them for those triangles.
    scale : (S,) vertex mean of sigma over 4 * area of each row's triangle;
        vertex quadrature reduces to scaling the constant-sigma matrix by
        that mean.
    i : (S,) local rows (0, 1 or 2).

    Returns
    -------
    (S, 3) rows: entry [s, j] is (b_i b_j + c_i c_j) * scale of row s,
    with i = i[s], evaluated in that order; it couples vertex i and vertex
    j of row s's triangle.
    """
    pick = np.arange(0, 3 * len(i), 3) + i  # flat position of (b, c)[s, i[s]]
    K = b * np.take(b, pick)[:, None]
    cc = c * np.take(c, pick)[:, None]
    K += cc
    K *= scale[:, None]
    return K


def assemble_conductivity(sigma: ScalarField) -> sp.csr_matrix:
    """Assemble the stiffness matrix of -div(sigma grad u) on `sigma.mesh`.

    Entries are integral sigma grad(phi_i).grad(phi_j) with sigma interpolated
    P1 and integrated by vertex quadrature. Row sums are zero before
    constraints (the pure-Neumann operator annihilates constants).

    Slot 3t + i stands for row i of triangle t. A stable sort of the slots by
    vertex lays each matrix row out as scipy's COO-to-CSR conversion does
    before it sums: that row's element rows in element order. The matrix is
    then built `_BLOCK_ROWS` rows at a time: the `local_stiffness` rows of
    the block are computed from the basis of the block's triangles alone,
    laid out as a pre-sum CSR block, and added up by scipy's own
    `sum_duplicates`. A row's sum depends on that row's entries alone, so
    every sum is the conversion's, bit for bit, while only one block's
    entries are held at once and the COO row and column arrays never exist.

    Raises
    ------
    DomainError
        If sigma is not strictly positive at every node.
    """
    mesh = sigma.mesh
    if np.any(sigma.values <= 0.0):
        bad = np.flatnonzero(sigma.values <= 0.0)
        raise DomainError(f"sigma must be positive; offending nodes {bad[:10].tolist()}")
    scale = element_mean(mesh, sigma.values)
    scale /= 4.0 * mesh.areas
    n = mesh.n_vertices
    # the COO-to-CSR conversion picks int32 indices while the pre-sum count
    # 9T fits in them; the same arrays give the same sort and the same sums
    idx = np.int32 if 9 * mesh.n_triangles < 2**31 else np.int64
    tri = mesh.triangles.astype(idx)
    order = np.argsort(tri.ravel(), kind="stable")
    starts = np.zeros(n + 1, dtype=idx)  # row r holds slots starts[r]:starts[r + 1]
    np.cumsum(np.bincount(tri.ravel(), minlength=n), out=starts[1:])
    # Mesh's checks bound the entry count: every edge but the K rim ones lies
    # in at least two triangles, so there are at most (3T + K) / 2 edges, each
    # two entries, plus one diagonal entry per vertex
    size = n + 3 * mesh.n_triangles + len(mesh.boundary_edges)
    data, indices = np.empty(size), np.empty(size, dtype=idx)
    indptr = np.zeros(n + 1, dtype=idx)
    nnz = 0
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        slots = order[starts[r0]:starts[r1]]
        t = slots // 3
        ptr = 3 * (starts[r0:r1 + 1] - starts[r0])
        block_tri = np.take(tri, t, axis=0)
        rows = local_stiffness(*basis_coefficients(mesh.vertices, block_tri),
                               np.take(scale, t), slots - 3 * t)
        block = sp.csr_matrix((rows.ravel(), block_tri.ravel(), ptr), shape=(r1 - r0, n))
        del rows, block_tri  # else they live on into the next block and raise the peak
        block.sum_duplicates()
        data[nnz:nnz + block.nnz] = block.data
        indices[nnz:nnz + block.nnz] = block.indices
        np.add(block.indptr[1:], nnz, out=indptr[r0 + 1:r1 + 1])
        nnz += block.nnz
    A = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(n, n))
    A.has_canonical_format = True  # each block was summed and sorted
    return A


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------

def _pcg(A: sp.csr_matrix, rhs: np.ndarray):
    """Conjugate gradients with Jacobi preconditioning on an SPD matrix."""
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SingularSystemError("system diagonal has non-positive entries")
    inv_diag = 1.0 / diag
    with np.errstate(over="ignore"):  # a norm past float max is caught below
        bnorm = np.linalg.norm(rhs)
    if not math.isfinite(bnorm):  # a NaN or inf entry, or an overflowing norm
        raise NumericalError("right-hand side is not finite")
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    step = np.empty_like(rhs)
    rz = float(r @ z)
    # the updates run in place, each the textbook operation in the textbook
    # order, so the iterates equal the allocating form's bit for bit
    for it in range(1, MAX_ITER + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SingularSystemError("matrix is not positive definite")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        # sqrt(r @ r) is what `np.linalg.norm` computes for real 1-D input
        if math.sqrt(float(r @ r)) <= TOL * bnorm:
            return x, it
        np.multiply(inv_diag, r, out=z)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise NumericalError(
        f"conjugate gradients stalled: residual {np.linalg.norm(r) / bnorm:.3e} "
        f"(target {TOL:.1e}) after MAX_ITER = {MAX_ITER} iterations")


@dataclass(frozen=True, eq=False)
class ConstrainedOperator:
    """A symmetric stiffness matrix split once around its fixed nodes.

    Holds the free block A_ff and the coupling A_fc to the sorted `fixed`
    nodes, the only record of which nodes a solve fixes.  Every solve with
    the same matrix and fixed nodes (both forward potentials; the angle and
    log-conductivity solves) shares one operator; build it with `constrain`.
    """

    n: int
    fixed: np.ndarray
    free: np.ndarray
    free_block: sp.csr_matrix
    coupling: sp.csr_matrix

    def solve(self, values, load: np.ndarray | None = None):
        """All nodal values, given `values` at `fixed` (in its order) and an
        optional load vector over all nodes (zero when None).

        `values` must hold one finite value per fixed node and `load` one
        value per node (ContractError otherwise). Constraints are eliminated
        symmetrically and the free block is solved by Jacobi PCG, which
        takes no iteration when no node is free. Returns (values, SolveInfo).
        """
        values = fixed_values(self.fixed, values)
        if load is not None and load.shape != (self.n,):
            raise ContractError(f"expected a load on {self.n} nodes, got {load.shape}")
        x = np.zeros(self.n)
        x[self.fixed] = values
        b = np.zeros(self.n) if load is None else load
        b_f = b[self.free] - self.coupling @ values
        A_ff = self.free_block
        x_f, iterations = _pcg(A_ff, b_f)
        if not np.all(np.isfinite(x_f)):
            raise NumericalError("linear solve produced non-finite values")

        bnorm = np.linalg.norm(b_f)
        res = np.linalg.norm(A_ff @ x_f - b_f) / (bnorm if bnorm > 0 else 1.0)
        if res > 100.0 * TOL:
            raise NumericalError(f"linear solve inaccurate: relative residual {res:.3e}")
        x[self.free] = x_f
        return x, SolveInfo(iterations, float(res))


def constrain(matrix: sp.csr_matrix, fixed) -> ConstrainedOperator:
    """Split `matrix` around the node ids `fixed` (sorted and deduplicated).

    Raises SingularSystemError when `fixed` is empty: a stiffness matrix
    annihilates constants, so it needs at least one fixed node.
    """
    n = matrix.shape[0]
    fixed = np.unique(np.asarray(fixed, dtype=np.int64))
    if fixed.size == 0:
        raise SingularSystemError(
            "no fixed nodes: the pure-Neumann problem is singular")
    free_mask = np.ones(n, dtype=bool)
    free_mask[fixed] = False
    free = np.flatnonzero(free_mask)
    rows = matrix[free]
    del matrix  # a temporary argument is freed before the blocks are cut
    for a in (fixed, free):
        a.setflags(write=False)
    return ConstrainedOperator(n, fixed, free, rows[:, free].tocsr(), rows[:, fixed])


def laplacian_operator(mesh: Mesh) -> ConstrainedOperator:
    """The unit-conductivity stiffness matrix with every boundary node fixed."""
    ones = ScalarField(mesh, np.ones(mesh.n_vertices))
    return constrain(assemble_conductivity(ones), mesh.boundary_nodes)


def fixed_values(nodes: np.ndarray, values) -> np.ndarray:
    """`values` as floats; ContractError unless one finite value per node."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != nodes.shape or not np.isfinite(vals).all():
        raise ContractError(
            f"expected {nodes.size} finite values, one per fixed node; got "
            f"{vals.size}, {vals.size - np.count_nonzero(np.isfinite(vals))} not finite")
    return vals


def solve_mixed(sigma: ScalarField, dirichlet_values: np.ndarray,
                *, operator: ConstrainedOperator | None = None,
                return_info: bool = False):
    """Solve -div(sigma grad u) = 0 on `sigma.mesh`, u prescribed at the
    operator's nodes.

    The no-flux condition on unconstrained boundary edges is natural: it
    needs no boundary terms, only the absence of constraints there.

    Parameters
    ----------
    dirichlet_values : (len(operator.fixed),) array_like
        The prescribed value at each node of `operator.fixed`, in that sorted
        order.
    operator : ConstrainedOperator, optional
        Shared by solves with the same sigma and fixed nodes. When omitted it
        is ``constrain(assemble_conductivity(sigma), sigma.mesh.dirichlet_nodes)``,
        which raises SingularSystemError on a mesh without Dirichlet nodes.

    Returns
    -------
    ScalarField, or (ScalarField, SolveInfo) when return_info is set.
    """
    if operator is None:
        operator = constrain(assemble_conductivity(sigma), sigma.mesh.dirichlet_nodes)
    x, info = operator.solve(dirichlet_values)
    u = ScalarField(sigma.mesh, x)
    return (u, info) if return_info else u


def solve_poisson_weak_div(F: VectorField, boundary_values: np.ndarray,
                           *, operator: ConstrainedOperator | None = None,
                           return_info: bool = False):
    """Solve lap(w) = div(F) weakly on `F.mesh`, w given at the operator's nodes.

    The right-hand side uses integral F.grad(v) per element, so F is never
    differentiated, and where the operator leaves boundary nodes free the
    natural condition dw/dn = F.n holds. `boundary_values` holds one value
    per node of `operator.fixed`, in that sorted order. `operator` is shared
    between solves on one mesh; when omitted it is `laplacian_operator(F.mesh)`,
    which fixes the whole boundary.
    """
    mesh = F.mesh
    # integral over K of F.grad(phi_k) = (b_k Fx + c_k Fy)/2, one vertex
    # column at a time, laid out as the triangles are for the vertex sums
    Fx, Fy = F.vectors[:, 0], F.vectors[:, 1]
    contrib = np.empty((mesh.n_triangles, 3))
    for k in range(3):
        b, c = basis_column(mesh.vertices, mesh.triangles, k)
        b *= Fx
        c *= Fy
        b += c
        np.multiply(0.5, b, out=contrib[:, k])
    rhs = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                      minlength=mesh.n_vertices)
    if operator is None:
        operator = laplacian_operator(mesh)
    x, info = operator.solve(boundary_values, rhs)
    w = ScalarField(mesh, x)
    return (w, info) if return_info else w


# ---------------------------------------------------------------------------
# Derived fields and norms
# ---------------------------------------------------------------------------

def element_gradient(field: ScalarField) -> VectorField:
    """Exact gradient of the P1 interpolant, constant per triangle."""
    mesh = field.mesh
    tri = mesh.triangles
    # (p0 + p1) + p2, the order `.sum(axis=1)` takes over the (T, 3)
    # products, one vertex column at a time instead of all three
    for k in range(3):
        b, c = basis_column(mesh.vertices, tri, k)
        u = field.values[tri[:, k]]
        b *= u
        c *= u
        if k == 0:
            gx, gy = b, c
        else:
            gx += b
            gy += c
    two_area = 2.0 * mesh.areas
    g = np.empty((mesh.n_triangles, 2))
    np.divide(gx, two_area, out=g[:, 0])
    np.divide(gy, two_area, out=g[:, 1])
    return VectorField(mesh, g)


def element_mean(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Centroid value of a P1 field on each triangle: its vertex mean, (T,).

    Summed in the order numpy's `mean(axis=1)` of the gathered (T, 3) vertex
    values takes, (v0 + v1) + v2 over 3, so the result equals that mean bit
    for bit; one vertex column at a time, without the gather.
    """
    tri = mesh.triangles
    mean = values[tri[:, 0]] + values[tri[:, 1]]
    mean += values[tri[:, 2]]
    mean /= 3.0
    return mean


def project_to_nodes(mesh: Mesh, element_values: np.ndarray) -> np.ndarray:
    """Lumped-mass projection: area-weighted average over each vertex star.

    Accepts per-element scalars (T,) or vectors (T, 2); returns (N,) or (N, 2).
    """
    vals = np.asarray(element_values, dtype=np.float64)
    if vals.shape[0] != mesh.n_triangles:
        raise ContractError("expected one value per triangle")
    areas, den = mesh.areas, mesh.star_areas

    def spread(column):
        out = star_sum(mesh, areas * column)
        out /= den
        return out

    if vals.ndim == 1:
        return spread(vals)
    out = np.empty((mesh.n_vertices, vals.shape[1]))
    for j in range(vals.shape[1]):
        out[:, j] = spread(vals[:, j])
    return out


def l2_norm(field: ScalarField) -> float:
    """L2(Omega) norm of the P1 interpolant, exact for P1 fields.

    Each triangle adds its consistent-mass form,
    area / 12 * (v0^2 + v1^2 + v2^2 + (v0 + v1 + v2)^2), and numpy's
    pairwise `np.sum` adds the triangles: no matrix and no BLAS reduction,
    so the norm does not depend on the thread count.
    """
    tri, areas = field.mesh.triangles, field.mesh.areas
    v0, v1, v2 = (field.values[tri[:, k]] for k in range(3))
    form = v0 * v0 + v1 * v1 + v2 * v2 + (v0 + v1 + v2) ** 2
    return math.sqrt(np.sum(areas * form) / 12.0)
