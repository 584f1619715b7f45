import numpy as np
import pytest

import aet2d.mesh
from aet2d import fem
from aet2d import GAMMA_FULL, GAMMA_LARGE, GAMMA_MEDIUM, build_disk_mesh, refine, tag_boundary
from aet2d.errors import ContractError, DomainError, NumericalError, SingularSystemError
from aet2d.fem import (
    ScalarField,
    VectorField,
    assemble_conductivity,
    constrain,
    element_gradient,
    element_mean,
    l2_norm,
    local_stiffness,
    project_to_nodes,
    solve_mixed,
    solve_poisson_weak_div,
)
from aet2d.forward import CASE2, true_theta
from aet2d.mesh import basis_coefficients, signed_areas
from oracles import (
    basis_by_gather,
    coo_assembly,
    fancy_index_split,
    gradient_by_rows,
    l2_relative_error,
    true_theta_by_rows,
    weak_div_load_by_rows,
)


@pytest.fixture(scope="module")
def small():
    # full circle tagged: every boundary node available for Dirichlet data
    return tag_boundary(build_disk_mesh(0.25), GAMMA_FULL)


@pytest.fixture(scope="module")
def medium():
    return tag_boundary(build_disk_mesh(0.1), GAMMA_MEDIUM)


def coord_bc(mesh, component=0):
    return mesh.vertices[mesh.dirichlet_nodes, component]


def bump(mesh):
    xy = mesh.vertices
    return ScalarField(mesh, 1.0 + np.exp(-5.0 * (xy[:, 0] ** 2 + xy[:, 1] ** 2)))


# -- element kernel and assembly ----------------------------------------------

def element_stiffness(coords, sigma_vertices):
    """The kernel's three rows of one triangle, fed the mesh module's geometry."""
    tri = np.array([[0, 1, 2]])
    b, c = basis_coefficients(coords, tri)
    scale = sigma_vertices.mean(keepdims=True) / (4.0 * signed_areas(coords, tri))
    rows = np.zeros(3, dtype=np.int64)  # each row's triangle
    return local_stiffness(b[rows], c[rows], scale[rows], np.arange(3))


def test_reference_element_matrix():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = element_stiffness(coords, np.ones(3))
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert K == pytest.approx(expected, abs=1e-15)


def test_element_matrix_scales_linearly():
    coords = np.array([[0.2, -0.1], [1.1, 0.3], [0.4, 0.9]])
    base = element_stiffness(coords, np.ones(3))
    scaled = element_stiffness(coords, 3.0 * np.ones(3))
    assert scaled == pytest.approx(3.0 * base, rel=1e-14)


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda n: f"refine_levels={n}")
def nested(request):
    mesh = build_disk_mesh(0.2)
    for _ in range(request.param):
        mesh = refine(mesh)
    return tag_boundary(mesh, GAMMA_MEDIUM)


def csr_bytes(M):
    return [(a.dtype.str, a.tobytes()) for a in (M.indptr, M.indices, M.data)]


def coo_stiffness(mesh, sigma):
    """The conductivity matrix from broadcast element matrices and COO sums."""
    b, c = basis_coefficients(mesh.vertices, mesh.triangles)
    scale = sigma.values[mesh.triangles].mean(axis=1) / (4.0 * mesh.areas)
    local = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    return coo_assembly(mesh, local * scale[:, None, None])


def test_stiffness_is_the_coo_sum_bit_for_bit(nested):
    sigma = CASE2.on_mesh(nested)
    assert csr_bytes(assemble_conductivity(sigma)) == \
        csr_bytes(coo_stiffness(nested, sigma))


def coo_mass(mesh):
    """The mass matrix from broadcast element matrices and COO sums."""
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return coo_assembly(mesh, ref[None, :, :] * mesh.areas[:, None, None])


def test_mass_is_the_coo_sum_bit_for_bit(nested):
    assert csr_bytes(nested.mass) == csr_bytes(coo_mass(nested))


def test_constrained_blocks_are_the_coo_blocks_bit_for_bit(nested):
    sigma = CASE2.on_mesh(nested)
    fixed = nested.dirichlet_nodes
    operator = constrain(assemble_conductivity(sigma), fixed)
    free_block, coupling = fancy_index_split(coo_stiffness(nested, sigma), fixed)
    assert csr_bytes(operator.free_block) == csr_bytes(free_block)
    assert csr_bytes(operator.coupling) == csr_bytes(coupling)


class LoadProbe:
    """Stands in for a solve's operator and keeps the load it is given."""

    def solve(self, values, load):
        self.load = load
        return np.zeros(load.shape), None


def test_basis_columns_give_the_whole_array_values_bit_for_bit(nested):
    # the package takes the basis one vertex column (or one block) at a
    # time; every value must be the one the whole (T, 3) arrays give
    rng = np.random.default_rng(5)
    u = rng.standard_normal(nested.n_vertices)
    x, y = nested.vertices.T
    u[x < -0.5] = 0.0  # all-zero triangles: undefined angles
    # gradients from 1e-15 to 1e-9: some lie near the angle's noise floor
    near = x > 0.5
    u[near] = 1.0 + x[near] * 10.0 ** (-15.0 + 3.0 * (y[near] + 1.0))
    field = ScalarField(nested, u)
    F = rng.standard_normal((nested.n_triangles, 2))
    b, c = basis_coefficients(nested.vertices, nested.triangles)
    want_b, want_c = basis_by_gather(nested.vertices, nested.triangles)
    assert b.tobytes() == want_b.tobytes() and c.tobytes() == want_c.tobytes()
    assert element_gradient(field).vectors.tobytes() == \
        gradient_by_rows(nested, u).tobytes()
    probe = LoadProbe()
    solve_poisson_weak_div(VectorField(nested, F), None, operator=probe)
    assert probe.load.tobytes() == weak_div_load_by_rows(nested, F).tobytes()
    theta, flagged = true_theta(field)
    want_theta, want_flagged = true_theta_by_rows(nested, field)
    assert flagged.size and flagged.tolist() == want_flagged.tolist()
    assert theta.values.tobytes() == want_theta.tobytes()


@pytest.mark.parametrize("levels", [0, 1], ids=lambda n: f"refine_levels={n}")
@pytest.mark.parametrize("block_rows", [1, 7, "n"], ids=lambda r: f"block_rows={r}")
def test_block_edges_keep_every_sum(monkeypatch, block_rows, levels):
    # one row per block, blocks that split a vertex's neighbours, one block
    mesh = build_disk_mesh(0.2)
    for _ in range(levels):
        mesh = refine(mesh)
    mesh = tag_boundary(mesh, GAMMA_MEDIUM)  # new, so its mass is not cached
    rows = mesh.n_vertices if block_rows == "n" else block_rows
    monkeypatch.setattr(aet2d.mesh, "_BLOCK_ROWS", rows)
    sigma, fixed = CASE2.on_mesh(mesh), mesh.dirichlet_nodes
    A = assemble_conductivity(sigma)
    want = coo_stiffness(mesh, sigma)
    assert csr_bytes(A) == csr_bytes(want)
    assert csr_bytes(mesh.mass) == csr_bytes(coo_mass(mesh))
    operator = constrain(A, fixed)
    free_block, coupling = fancy_index_split(want, fixed)
    assert csr_bytes(operator.free_block) == csr_bytes(free_block)
    assert csr_bytes(operator.coupling) == csr_bytes(coupling)


def test_assembled_matrix_annihilates_constants(medium):
    A = assemble_conductivity(bump(medium))
    ones = np.ones(medium.n_vertices)
    assert np.abs(A @ ones).max() <= 1e-12
    asym = A - A.T
    assert np.abs(asym.data).max() if asym.nnz else 0.0 <= 1e-14


def test_assemble_rejects_nonpositive_sigma(small):
    vals = np.ones(small.n_vertices)
    vals[7] = 0.0
    with pytest.raises(DomainError, match="7"):
        assemble_conductivity(ScalarField(small, vals))


def test_offdiagonals_nonpositive(medium):
    # non-obtuse generator meshes give an M-matrix, the root of the
    # discrete maximum principle
    A = assemble_conductivity(bump(medium)).tocoo()
    off = A.data[A.row != A.col]
    assert off.max() <= 1e-14


# -- mixed solves --------------------------------------------------------------

def test_linear_solution_exact_small(small):
    # 271 free unknowns: PCG at the default TOL is 4e-12 from x
    sigma = ScalarField(small, np.ones(small.n_vertices))
    u, info = solve_mixed(sigma, coord_bc(small), return_info=True)
    assert info.method == "pcg"
    assert np.abs(u.values - small.vertices[:, 0]).max() <= 1e-10


def test_linear_solution_exact_pcg():
    mesh = tag_boundary(build_disk_mesh(0.04), GAMMA_FULL)
    sigma = ScalarField(mesh, np.ones(mesh.n_vertices))
    u, info = solve_mixed(sigma, coord_bc(mesh), return_info=True)
    assert info.method == "pcg"
    assert np.abs(u.values - mesh.vertices[:, 0]).max() <= 1e-7


def test_pcg_stops_at_the_iteration_cap(medium, monkeypatch):
    monkeypatch.setattr(fem, "MAX_ITER", 3)
    sigma = ScalarField(medium, np.ones(medium.n_vertices))
    with pytest.raises(NumericalError, match=r"stalled: .* after MAX_ITER = 3 iterations"):
        solve_mixed(sigma, coord_bc(medium))


def test_dirichlet_values_exact(medium):
    u = solve_mixed(bump(medium), coord_bc(medium))
    for node in medium.dirichlet_nodes[::5]:
        assert u.values[node] == medium.vertices[node, 0]


def test_no_free_node_takes_no_iteration():
    # one triangle inscribed in the unit circle, every edge controlled: all
    # nodes are fixed, and PCG on the empty free block returns at once
    angles = np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mesh = aet2d.mesh.Mesh(vertices, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]],
                           [aet2d.mesh.DIRICHLET] * 3)
    assert mesh.dirichlet_nodes.tolist() == [0, 1, 2]
    values = np.array([0.5, -1.0, 2.0])
    u, info = solve_mixed(bump(mesh), values, return_info=True)
    assert u.values.tolist() == values.tolist()
    assert info.iterations == 0
    assert info.relative_residual == 0.0


def test_maximum_principle_coordinate_data(medium):
    sigma = ScalarField(medium, np.ones(medium.n_vertices))
    u = solve_mixed(sigma, coord_bc(medium))
    fixed = u.values[medium.dirichlet_nodes]
    assert u.values.min() >= fixed.min() - 1e-9
    assert u.values.max() <= fixed.max() + 1e-9


def test_maximum_principle_random_data(medium):
    rng = np.random.default_rng(11)
    nodes = medium.dirichlet_nodes
    sigma = bump(medium)
    for _ in range(5):
        data = rng.normal(size=len(nodes))
        u = solve_mixed(sigma, data)
        fixed = u.values[nodes]
        assert u.values.min() >= fixed.min() - 1e-9
        assert u.values.max() <= fixed.max() + 1e-9


def test_sigma_scaling_invariance(medium):
    bc = coord_bc(medium)
    u1 = solve_mixed(bump(medium), bc)
    scaled = ScalarField(medium, 3.0 * bump(medium).values)
    u2 = solve_mixed(scaled, bc)
    assert np.abs(u1.values - u2.values).max() <= 1e-10


def test_self_convergence_one_refinement():
    coarse = tag_boundary(build_disk_mesh(0.1), GAMMA_LARGE)
    fine = refine(coarse)
    uc = solve_mixed(bump(coarse), coord_bc(coarse))
    uf = solve_mixed(bump(fine), coord_bc(fine))
    restricted = ScalarField(coarse, uf.values[:coarse.n_vertices])
    assert l2_relative_error(uc, restricted) <= 0.02


def test_free_rows_residual(medium):
    # Galerkin orthogonality: the residual vanishes on unconstrained rows
    sigma = bump(medium)
    bc = coord_bc(medium)
    u = solve_mixed(sigma, bc)
    res = assemble_conductivity(sigma) @ u.values
    free = np.setdiff1d(np.arange(medium.n_vertices), medium.dirichlet_nodes)
    assert np.abs(res[free]).max() <= 1e-9


def test_constraint_order_does_not_change_a_bit():
    # the operator sorts its fixed nodes; the eliminated load must equal,
    # bit for bit, elimination in boundary-walk order, which on a refined
    # mesh is not sorted
    mesh = refine(tag_boundary(build_disk_mesh(0.25), GAMMA_FULL))
    loop = mesh.boundary_loop
    assert np.any(np.diff(loop) < 0)
    A = assemble_conductivity(bump(mesh))
    g = np.cos(3.0 * np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0]))
    free = np.setdiff1d(np.arange(mesh.n_vertices), loop)
    operator = constrain(A, loop)
    assert np.array_equal(operator.free, free)
    order = np.argsort(loop)
    walked = A[free][:, loop] @ g
    assert (operator.coupling @ g[order]).tobytes() == walked.tobytes()
    # the data come in the sorted order of the mesh's Dirichlet nodes
    assert np.array_equal(loop[order], mesh.dirichlet_nodes)
    u = solve_mixed(bump(mesh), g[order], operator=operator)
    assert np.array_equal(u.values[loop], g)
    # an operator that fixes other nodes takes one value per node it fixes
    with pytest.raises(ContractError, match=rf"expected {loop.size - 1} finite .* "
                                            rf"got {loop.size},"):
        solve_mixed(bump(mesh), g[order], operator=constrain(A, loop[1:]))


def test_no_dirichlet_nodes_is_singular():
    untagged = build_disk_mesh(0.25)
    assert untagged.dirichlet_nodes.size == 0
    with pytest.raises(SingularSystemError):
        solve_mixed(bump(untagged), [])


def test_no_fixed_nodes_is_singular(small):
    with pytest.raises(SingularSystemError, match="no fixed nodes"):
        constrain(assemble_conductivity(bump(small)), [])


def test_mixed_rejects_wrong_length(small):
    n = small.dirichlet_nodes.size
    for values in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((n, 1)), []):
        with pytest.raises(ContractError, match=rf"expected {n} finite .* got "
                                                rf"{np.size(values)},"):
            solve_mixed(bump(small), values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mixed_rejects_non_finite_values(small, bad):
    values = coord_bc(small).copy()
    values[[2, 5]] = bad
    with pytest.raises(ContractError, match=rf"expected {values.size} finite .* "
                                            rf"got {values.size}, 2 not finite"):
        solve_mixed(bump(small), values)


# -- Poisson with weak divergence data ----------------------------------------

def full_bc(mesh, fn):
    return fn(*mesh.vertices[mesh.boundary_nodes].T)


def test_poisson_zero_data_constant(small, monkeypatch):
    # PCG at the default TOL is 6e-11 from the constant; a tighter residual
    # is what certifies 1e-12
    monkeypatch.setattr(fem, "TOL", 1e-13)
    F = VectorField(small, np.zeros((small.n_triangles, 2)))
    w = solve_poisson_weak_div(F, full_bc(small, lambda x, y: 2.5 + 0.0 * x))
    assert np.abs(w.values - 2.5).max() <= 1e-12


def test_poisson_reproduces_linear(small):
    F = VectorField(small, np.tile([1.0, 0.0], (small.n_triangles, 1)))
    w = solve_poisson_weak_div(F, full_bc(small, lambda x, y: x))
    assert np.abs(w.values - small.vertices[:, 0]).max() <= 1e-10


def test_poisson_reproduces_interpolated_product(small):
    xy = small.vertices
    product = ScalarField(small, xy[:, 0] * xy[:, 1])
    F = element_gradient(product)
    w = solve_poisson_weak_div(F, full_bc(small, lambda x, y: x * y))
    assert np.abs(w.values - product.values).max() <= 1e-10


def test_poisson_second_order_convergence():
    def run(mesh):
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        F = VectorField(mesh, 2.0 * cent)  # gradient of x^2 + y^2 at centroids
        w = solve_poisson_weak_div(F, full_bc(mesh, lambda x, y: x * x + y * y))
        exact = ScalarField(mesh, (mesh.vertices ** 2).sum(axis=1))
        return l2_relative_error(w, exact)

    coarse = tag_boundary(build_disk_mesh(0.2), GAMMA_FULL)
    errs = [run(coarse), run(refine(coarse))]
    assert errs[0] / errs[1] >= 2.5  # about 4 for an O(h^2) method


def test_poisson_requires_full_boundary(medium):
    # values on the Dirichlet nodes alone do not cover the Poisson solve's
    # fixed nodes, nor does the boundary data less one node
    F = VectorField(medium, np.zeros((medium.n_triangles, 2)))
    n = medium.boundary_nodes.size
    bc = full_bc(medium, lambda x, y: x)
    for short in (coord_bc(medium), np.delete(bc, 3)):
        with pytest.raises(ContractError, match=rf"expected {n} finite .* got "
                                                rf"{short.size},"):
            solve_poisson_weak_div(F, short)
    bc[7] = np.nan
    with pytest.raises(ContractError, match="1 not finite"):
        solve_poisson_weak_div(F, bc)


@pytest.mark.parametrize("h, solver_tol, tol", [(0.1, 1e-13, 1e-12), (0.04, fem.TOL, 1e-8)])
def test_poisson_on_the_arc_only_reproduces_linear(h, solver_tol, tol, monkeypatch):
    # fixed on the controlled arc alone, the solve keeps the natural condition
    # dw/dn = F.n on the no-flux arc, which w = x meets for F = grad x
    monkeypatch.setattr(fem, "TOL", solver_tol)
    mesh = tag_boundary(build_disk_mesh(h), GAMMA_MEDIUM)
    ones = ScalarField(mesh, np.ones(mesh.n_vertices))
    operator = constrain(assemble_conductivity(ones), mesh.dirichlet_nodes)
    assert operator.fixed.size < mesh.boundary_nodes.size
    F = VectorField(mesh, np.tile([1.0, 0.0], (mesh.n_triangles, 1)))
    w, info = solve_poisson_weak_div(F, coord_bc(mesh), operator=operator,
                                     return_info=True)
    assert info.method == "pcg"
    assert np.abs(w.values - mesh.vertices[:, 0]).max() <= tol


def test_operator_from_another_mesh_is_refused(small, medium):
    # the node counts differ both ways; each solve still takes one value per
    # node the operator fixes
    for mesh, other in ((small, medium), (medium, small)):
        operator = fem.laplacian_operator(other)
        values = np.zeros(operator.fixed.size)
        F = VectorField(mesh, np.zeros((mesh.n_triangles, 2)))
        with pytest.raises(ContractError):
            solve_poisson_weak_div(F, values, operator=operator)
        with pytest.raises(ContractError):
            solve_mixed(bump(mesh), values, operator=operator)


# -- gradients, projections, norms --------------------------------------------

def test_element_gradient_linear(small):
    xy = small.vertices
    f = ScalarField(small, xy[:, 0] + 2.0 * xy[:, 1])
    g = element_gradient(f)
    assert np.abs(g.vectors - [1.0, 2.0]).max() <= 1e-13


def test_element_gradient_constant(small):
    g = element_gradient(ScalarField(small, np.full(small.n_vertices, 4.2)))
    assert np.abs(g.vectors).max() <= 1e-12


def test_project_constant(small):
    proj = project_to_nodes(small, np.full(small.n_triangles, 3.3))
    assert proj == pytest.approx(3.3)


def test_project_centroid_coordinate(medium):
    cent = medium.vertices[medium.triangles].mean(axis=1)
    proj = project_to_nodes(medium, cent[:, 0])
    assert np.abs(proj - medium.vertices[:, 0]).max() <= 0.1  # O(h) accuracy


def test_project_vector_shape(small):
    cent = small.vertices[small.triangles].mean(axis=1)
    proj = project_to_nodes(small, cent)
    assert proj.shape == (small.n_vertices, 2)


@pytest.mark.parametrize("level", [0, 1])
def test_element_mean_is_the_gathered_mean_bit_for_bit(level):
    mesh = build_disk_mesh(0.2)
    for _ in range(level):
        mesh = refine(mesh)
    rng = np.random.default_rng(11)
    n = mesh.n_vertices
    for values in (rng.standard_normal(n), 1e-300 * rng.random(n),
                   np.arctan2(*rng.standard_normal((2, n)))):
        want = values[mesh.triangles].mean(axis=1)
        assert element_mean(mesh, values).tobytes() == want.tobytes()


def test_l2_relative_error_basics(small):
    xy = small.vertices
    b = ScalarField(small, 1.0 + xy[:, 0] ** 2)
    assert l2_relative_error(b, b) == 0.0
    doubled = ScalarField(small, 2.0 * b.values)
    assert l2_relative_error(doubled, b) == pytest.approx(1.0, rel=1e-12)


def test_l2_error_zero_reference(small):
    zero = ScalarField(small, np.zeros(small.n_vertices))
    one = ScalarField(small, np.ones(small.n_vertices))
    with pytest.raises(DomainError):
        l2_relative_error(one, zero)


def test_hat_function_norm_matches_quadrature(small):
    # independent oracle: integral of a squared hat is sum(area)/6 over its star
    node = int(np.argmin(np.hypot(*small.vertices.T)))  # center vertex
    hat = np.zeros(small.n_vertices)
    hat[node] = 1.0
    star = np.any(small.triangles == node, axis=1)
    expected = np.sqrt(small.areas[star].sum() / 6.0)
    assert l2_norm(ScalarField(small, hat)) == pytest.approx(expected, abs=1e-12)


def test_mass_matrix_total_area(small):
    M = small.mass
    ones = np.ones(small.n_vertices)
    assert ones @ (M @ ones) == pytest.approx(small.areas.sum(), rel=1e-12)
