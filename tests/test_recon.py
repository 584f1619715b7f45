import numpy as np
import pytest

from aet2d import fem, recon
from aet2d.errors import ContractError, DomainError
from aet2d.fem import (
    ScalarField,
    VectorField,
    assemble_conductivity,
    constrain,
    element_gradient,
    laplacian_operator,
    solve_poisson_weak_div,
)
from aet2d.forward import PowerDensity
from aet2d.mesh import GAMMA_FULL, GAMMA_MEDIUM, build_disk_mesh, refine, tag_boundary
from aet2d.recon import (
    TransferFields,
    boundary_theta,
    reconstruct_sigma,
    run_algorithm1,
    sigma_rhs,
    vector_fields,
)
from oracles import l2_norm_vector


@pytest.fixture(scope="module")
def disk():
    return tag_boundary(build_disk_mesh(0.1), GAMMA_FULL)


def field(mesh, fn):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return ScalarField(mesh, fn(x, y))


def matrix_data(mesh, f11, f12, f22, **kw):
    return PowerDensity(field(mesh, f11), field(mesh, f12), field(mesh, f22), **kw)


def full_boundary(mesh, fn):
    """`fn` at each node of `mesh.boundary_nodes`, in that sorted order."""
    return fn(*mesh.vertices[mesh.boundary_nodes].T)


def along_loop(mesh, values):
    """Boundary values given in sorted node order, read in walk order."""
    full = np.full(mesh.n_vertices, np.nan)
    full[mesh.boundary_nodes] = values
    return full[mesh.boundary_loop]


def from_loop(mesh, walked):
    """Boundary values given in walk order, in sorted node order."""
    full = np.full(mesh.n_vertices, np.nan)
    full[mesh.boundary_loop] = walked
    return full[mesh.boundary_nodes]


# Shifted-pole data: both potentials are harmonic conjugates of (z + 2i)^2,
# so the matrix is the scaled identity 4(x^2 + (y+2)^2) I and the gradient
# angle -atan2(y+2, x) stays clear of the branch cut on the disk.
def pole_data(mesh):
    return matrix_data(mesh,
                       lambda x, y: 4.0 * (x ** 2 + (y + 2.0) ** 2),
                       lambda x, y: 0.0 * x,
                       lambda x, y: 4.0 * (x ** 2 + (y + 2.0) ** 2))


def pole_theta(x, y):
    return -np.arctan2(y + 2.0, x)


# Layered data: an exponential depth profile conducted by the horizontal
# coordinate; the second potential balances it so the determinant is one.
def layered_data(mesh):
    return matrix_data(mesh,
                       lambda x, y: np.exp(y),
                       lambda x, y: 0.0 * x,
                       lambda x, y: np.exp(-y))


# -- vector field extraction -----------------------------------------------------

def test_constant_data_gives_zero_fields(disk):
    H = matrix_data(disk, lambda x, y: 1.0 + 0 * x, lambda x, y: 0 * x,
                    lambda x, y: 1.0 + 0 * x)
    fields = vector_fields(H)
    for v in (fields.v11, fields.v21, fields.v22, fields.f):
        assert np.abs(v.vectors).max() <= 1e-13


def test_exponential_first_diagonal(disk):
    # h11 = exp(2x) alone: v11 = (-1, 0) per element
    H = matrix_data(disk, lambda x, y: np.exp(2.0 * x), lambda x, y: 0 * x,
                    lambda x, y: np.exp(-2.0 * x))
    fields = vector_fields(H)
    assert np.abs(fields.v11.vectors - [-1.0, 0.0]).max() <= 1e-12


def test_affine_exponent_fields_exact(disk):
    # exponents and off-diagonal ratio affine, determinant exponent affine:
    # every extracted field is constant and known in closed form
    x, y = disk.vertices[:, 0], disk.vertices[:, 1]
    u = 0.3 * x - 0.2 * y + 0.1
    s = 0.5 * x + 0.7 * y - 0.2
    k = 0.4
    e2u = np.exp(2.0 * u)
    H = PowerDensity(ScalarField(disk, e2u),
                     ScalarField(disk, s * e2u),
                     ScalarField(disk, s ** 2 * e2u + np.exp(2.0 * (u - k))))
    fields = vector_fields(H)
    ek = np.exp(k)
    assert np.abs(fields.v11.vectors - [-0.3, 0.2]).max() <= 1e-12
    assert np.abs(fields.v21.vectors - [-0.5 * ek, -0.7 * ek]).max() <= 1e-11
    assert np.abs(fields.v22.vectors - [-0.3, 0.2]).max() <= 1e-11
    # f = (ek * grad(s) - rot90(2 grad(u))) / 2
    expected_f = 0.5 * np.array([0.5 * ek - 0.4, 0.7 * ek - 0.6])
    assert np.abs(fields.f.vectors - expected_f).max() <= 1e-11


def test_conjugate_pair_fields(disk):
    fields = vector_fields(pole_data(disk))
    # equal diagonal and zero off-diagonal: v21 vanishes and v11 == v22
    assert np.abs(fields.v21.vectors).max() == 0.0
    assert np.abs(fields.v11.vectors - fields.v22.vectors).max() <= 1e-12


def test_gradient_of_angle_matches_f(disk):
    def residual(mesh):
        fields = vector_fields(pole_data(mesh))
        g_theta = element_gradient(field(mesh, pole_theta))
        diff = VectorField(mesh, fields.f.vectors - g_theta.vectors)
        return l2_norm_vector(diff) / l2_norm_vector(g_theta)

    coarse = build_disk_mesh(0.1)
    r1 = residual(coarse)
    r2 = residual(refine(coarse))
    assert r1 <= 0.05
    assert r2 <= 0.6 * r1


def test_vector_fields_reject_bad_data(disk):
    n = disk.n_vertices
    h11 = np.ones(n)
    h11[0] = -1.0  # determinant negative there, so construction passes
    H = PowerDensity(ScalarField(disk, h11), ScalarField(disk, np.zeros(n)),
                     ScalarField(disk, np.ones(n)))
    with pytest.raises(DomainError, match="0"):
        vector_fields(H)


# -- boundary unwrapping ---------------------------------------------------------

def test_unwrap_constant_unchanged(disk):
    raw = np.full(disk.boundary_nodes.size, 0.25)
    out = boundary_theta(disk, raw)
    assert out.shape == raw.shape
    assert np.all(out == 0.25)


def test_unwrap_single_cut_crossing(disk):
    # continuous target t - pi/2 wraps once when stored in principal range
    loop = disk.boundary_loop
    xy = disk.vertices[loop]
    t = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
    target = t - 0.5 * np.pi
    raw_vals = np.mod(target + np.pi, 2.0 * np.pi) - np.pi
    out = boundary_theta(disk, from_loop(disk, raw_vals))
    recovered = along_loop(disk, out)
    start_shift = recovered[0] - target[0]
    assert np.abs(recovered - target - start_shift).max() <= 1e-12
    jumps = np.abs(np.diff(recovered))
    assert jumps.max() <= np.pi


def test_unwrap_exact_pi_jump_rejected(disk):
    loop = disk.boundary_loop
    walked = np.zeros(loop.size)
    walked[1] = np.pi
    raw = from_loop(disk, walked)
    with pytest.raises(DomainError, match=f"exactly pi between rim nodes {loop[0]} and {loop[1]}$"):
        boundary_theta(disk, raw)


def test_unwrap_requires_full_coverage(disk):
    n = disk.boundary_nodes.size
    with pytest.raises(ContractError, match=rf"expected {n} finite .* got {n - 1},"):
        boundary_theta(disk, np.zeros(n - 1))
    raw = np.zeros(n)
    raw[2] = np.nan
    with pytest.raises(ContractError, match="1 not finite"):
        boundary_theta(disk, raw)


def test_unwrap_rejects_out_of_range(disk):
    raw = np.full(disk.boundary_nodes.size, 4.0)
    with pytest.raises(ContractError, match="principal range"):
        boundary_theta(disk, raw)


# -- the two Poisson stages ------------------------------------------------------

def test_theta_constant_for_zero_f(disk, monkeypatch):
    # PCG at the default TOL is 3e-11 from the constant; a tighter residual
    # is what certifies 1e-12, here and in the two sigma solves below
    monkeypatch.setattr(fem, "TOL", 1e-13)
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    fields = TransferFields(v11=zero, v21=zero, v22=zero, f=zero)
    bc = np.full(disk.boundary_nodes.size, np.pi / 4)
    theta = solve_poisson_weak_div(fields.f, bc)
    assert np.abs(theta.values - np.pi / 4).max() <= 1e-12


def test_sigma_rhs_rotation_identities(disk):
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    v11 = VectorField(disk, np.tile([-0.4, 0.0], (disk.n_triangles, 1)))
    v22 = VectorField(disk, np.tile([0.0, 0.3], (disk.n_triangles, 1)))
    fields = TransferFields(v11=v11, v21=zero, v22=v22, f=zero)
    base = np.array([-0.4, 0.3])  # reflect y of (v11 - v22)

    n = disk.n_vertices
    G0 = sigma_rhs(ScalarField(disk, np.zeros(n)), fields)
    assert np.abs(G0.vectors - base).max() <= 1e-15
    G90 = sigma_rhs(ScalarField(disk, np.full(n, np.pi / 2)), fields)
    assert np.abs(G90.vectors + base).max() <= 1e-12
    G45 = sigma_rhs(ScalarField(disk, np.full(n, np.pi / 4)), fields)
    assert np.abs(G45.vectors - [-base[1], base[0]]).max() <= 1e-12


def test_sigma_rhs_zero_fields(disk):
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    fields = TransferFields(v11=zero, v21=zero, v22=zero, f=zero)
    G = sigma_rhs(field(disk, lambda x, y: x + y), fields)
    assert np.abs(G.vectors).max() == 0.0


def test_sigma_from_zero_rhs(disk, monkeypatch):
    monkeypatch.setattr(fem, "TOL", 1e-13)
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    for level in (1.0, np.e):
        sigma, _ = reconstruct_sigma(zero, np.full(disk.boundary_nodes.size, level),
                                     laplacian_operator(disk))
        assert np.abs(sigma.values - level).max() <= 1e-12 * level


def test_sigma_boundary_must_be_positive(disk):
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    nodes = disk.boundary_nodes
    bc = np.ones(nodes.size)
    bc[[0, 5]] = 0.0, -1.0
    with pytest.raises(DomainError, match=rf"\[{nodes[0]}, {nodes[5]}\]"):
        reconstruct_sigma(zero, bc, laplacian_operator(disk))


def test_sigma_boundary_must_cover_the_boundary(disk):
    zero = VectorField(disk, np.zeros((disk.n_triangles, 2)))
    n = disk.boundary_nodes.size
    with pytest.raises(ContractError, match=rf"expected {n} finite .* got {n + 1},"):
        reconstruct_sigma(zero, np.ones(n + 1), laplacian_operator(disk))
    bc = np.ones(n)
    bc[3] = np.inf
    with pytest.raises(ContractError, match="1 not finite"):
        reconstruct_sigma(zero, bc, laplacian_operator(disk))


def test_sigma_fixed_on_the_arc_only(monkeypatch):
    # an operator that fixes the controlled arc alone needs sigma there only
    monkeypatch.setattr(fem, "TOL", 1e-13)
    mesh = tag_boundary(build_disk_mesh(0.1), GAMMA_MEDIUM)
    ones = ScalarField(mesh, np.ones(mesh.n_vertices))
    operator = constrain(assemble_conductivity(ones), mesh.dirichlet_nodes)
    G = VectorField(mesh, np.tile([1.0, 0.0], (mesh.n_triangles, 1)))
    sigma_arc = np.exp(mesh.vertices[mesh.dirichlet_nodes, 0])
    sigma, _ = reconstruct_sigma(G, sigma_arc, operator)
    want = np.exp(mesh.vertices[:, 0])
    assert np.abs(sigma.values / want - 1.0).max() <= 1e-12


# -- end to end ------------------------------------------------------------------

def test_layered_medium_recovered_exactly(disk):
    H = layered_data(disk)
    theta_bc = np.zeros(disk.boundary_nodes.size)
    sigma_bc = full_boundary(disk, lambda x, y: np.exp(y))
    truth = (ScalarField(disk, np.zeros(disk.n_vertices)),
             field(disk, lambda x, y: np.exp(y)))
    result = run_algorithm1(H, theta_bc, sigma_bc, truth=truth)
    assert result.metrics.sigma_error <= 1e-8
    assert result.metrics.cos2theta_error <= 1e-12
    assert result.metrics.sin2theta_error <= 1e-10
    assert np.abs(result.theta.values).max() <= 1e-10
    assert result.sigma.values.min() > 0.0
    assert result.diagnostics.min_det == pytest.approx(1.0, rel=1e-12)


def test_conjugate_pair_recovers_unit_sigma(disk):
    H = pole_data(disk)
    theta_bc = boundary_theta(disk, full_boundary(disk, pole_theta))
    sigma_bc = np.ones(disk.boundary_nodes.size)
    truth = (field(disk, pole_theta), ScalarField(disk, np.ones(disk.n_vertices)))
    result = run_algorithm1(H, theta_bc, sigma_bc, truth=truth)
    assert result.metrics.sigma_error <= 1e-9
    assert result.metrics.cos2theta_error <= 0.01
    assert result.metrics.sin2theta_error <= 0.01


def test_both_solves_share_one_operator_bit_for_bit(disk, monkeypatch):
    # the angle and log-conductivity solves take one prebuilt Laplacian;
    # each must equal a solve that builds its own.  On a refined mesh the
    # boundary walk that unwraps the angle is not in sorted node order.
    mesh = refine(disk)
    calls = []

    def recording(*args, **kwargs):
        result = solve_poisson_weak_div(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(recon, "solve_poisson_weak_div", recording)
    assert np.any(np.diff(mesh.boundary_loop) < 0)
    theta_bc = boundary_theta(mesh, full_boundary(mesh, pole_theta))
    sigma_bc = full_boundary(mesh, lambda x, y: np.exp(y))
    run_algorithm1(pole_data(mesh), theta_bc, sigma_bc)
    assert len(calls) == 2
    assert calls[0][1]["operator"] is calls[1][1]["operator"]
    for (F, bc), kwargs, (shared, _) in calls:
        alone = solve_poisson_weak_div(F, bc)
        assert shared.values.tobytes() == alone.values.tobytes()


def test_scaling_invariance(disk):
    H = layered_data(disk)
    scaled = matrix_data(disk,
                         lambda x, y: 5.0 * np.exp(y),
                         lambda x, y: 0.0 * x,
                         lambda x, y: 5.0 * np.exp(-y))
    theta_bc = np.zeros(disk.boundary_nodes.size)
    sigma_bc = full_boundary(disk, lambda x, y: np.exp(y))
    a = run_algorithm1(H, theta_bc, sigma_bc)
    b = run_algorithm1(scaled, theta_bc, sigma_bc)
    assert np.abs(a.sigma.values - b.sigma.values).max() <= 1e-9
    assert a.metrics is None


def test_run_rejects_foreign_mesh(disk):
    # the data fix the mesh; boundary data sized for another mesh is refused
    other = tag_boundary(build_disk_mesh(0.3), GAMMA_FULL)
    assert other.boundary_nodes.size != disk.boundary_nodes.size
    H = layered_data(disk)
    with pytest.raises(ContractError):
        run_algorithm1(H, np.zeros(other.boundary_nodes.size),
                       np.ones(other.boundary_nodes.size))
