import numpy as np
import pytest

from aet2d import (
    CASE1,
    CASE2,
    GAMMA_FULL,
    GAMMA_SMALL,
    PowerDensity,
    ScalarField,
    build_disk_mesh,
    constant_conductivity,
    det_diagnostics,
    power_density,
    refine,
    solve_mixed,
    tag_boundary,
    true_theta,
)
from aet2d.errors import ContractError, DomainError, ParameterError
from aet2d.forward import EPS_D, restrict


@pytest.fixture(scope="module")
def disk():
    return tag_boundary(build_disk_mesh(0.25), GAMMA_FULL)


def coords(mesh):
    return mesh.vertices[:, 0], mesh.vertices[:, 1]


# -- conductivity phantoms ------------------------------------------------------

def test_centered_bump_values():
    assert CASE1(0.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert CASE1(1.0, 0.0) == pytest.approx(1.0 + np.exp(-5.0), rel=1e-15)


def test_three_bump_values():
    expected = 2.0 + np.exp(-10.0) + np.exp(-62.5)
    assert CASE2(-0.5, 0.0) == pytest.approx(expected, rel=1e-15)
    assert CASE2(0.5, 0.5) == pytest.approx(
        1.0 + np.exp(-20.0 * 1.25) + np.exp(-20.0 * 1.25) + 1.0, rel=1e-15)


def test_phantoms_within_bounds(disk):
    for case in (CASE1, CASE2):
        vals = case.on_mesh(disk).values
        assert vals.min() >= 1.0
        assert vals.max() <= 4.0


def test_constant_phantom(disk):
    sigma = constant_conductivity(2.5).on_mesh(disk)
    assert np.all(sigma.values == 2.5)
    with pytest.raises(ParameterError):
        constant_conductivity(-1.0)
    with pytest.raises(ParameterError):
        constant_conductivity(0.0)


def test_bounds_violation_raises(disk):
    from aet2d import TestCaseConductivity
    bad = TestCaseConductivity("bad", (1.0, 1.5), lambda x, y: 2.0 + 0.0 * x)
    with pytest.raises(DomainError, match="bad"):
        bad.on_mesh(disk)


# -- power density ---------------------------------------------------------------

def test_identity_data_from_linear_potentials(disk):
    x, y = coords(disk)
    one = constant_conductivity(1.0).on_mesh(disk)
    H = power_density(one, ScalarField(disk, x), ScalarField(disk, y))
    assert np.abs(H.h11.values - 1.0).max() <= 1e-12
    assert np.abs(H.h12.values).max() <= 1e-12
    assert np.abs(H.h22.values - 1.0).max() <= 1e-12
    assert np.abs(H.d.values - 1.0).max() <= 1e-12
    assert H.d_clamp_nodes.size == 0


def test_data_scales_with_sigma(disk):
    x, y = coords(disk)
    three = constant_conductivity(3.0).on_mesh(disk)
    H = power_density(three, ScalarField(disk, x), ScalarField(disk, y))
    assert np.abs(H.h11.values - 3.0).max() <= 1e-12
    assert np.abs(H.d.values - 3.0).max() <= 1e-12


def test_solved_constant_case_gives_scaled_identity(disk):
    sigma = constant_conductivity(2.0).on_mesh(disk)
    f1, f2 = disk.vertices[disk.dirichlet_nodes].T
    u1 = solve_mixed(sigma, f1)
    u2 = solve_mixed(sigma, f2)
    H = power_density(sigma, u1, u2)
    assert np.abs(H.h11.values - 2.0).max() <= 1e-9
    assert np.abs(H.h12.values).max() <= 1e-9
    assert np.abs(H.h22.values - 2.0).max() <= 1e-9


def test_determinant_clamp_recorded(disk):
    n = disk.n_vertices
    h11 = np.ones(n)
    h22 = np.ones(n)
    h12 = np.zeros(n)
    h12[5] = 1.5  # negative determinant at one node
    H = PowerDensity(ScalarField(disk, h11), ScalarField(disk, h12),
                     ScalarField(disk, h22))
    assert H.d_clamp_nodes.tolist() == [5]
    assert H.d.values[5] == EPS_D == 1e-14
    assert H.determinant()[5] == pytest.approx(-1.25)


def test_negative_diagonal_rejected(disk):
    n = disk.n_vertices
    with pytest.raises(DomainError):
        PowerDensity(ScalarField(disk, -np.ones(n)), ScalarField(disk, np.zeros(n)),
                     ScalarField(disk, -np.ones(n)))


def test_mismatched_meshes_rejected(disk):
    other = build_disk_mesh(0.3)
    with pytest.raises(ContractError):
        PowerDensity(ScalarField(disk, np.ones(disk.n_vertices)),
                     ScalarField(other, np.zeros(other.n_vertices)),
                     ScalarField(other, np.ones(other.n_vertices)))
    x, y = coords(disk)
    with pytest.raises(ContractError):
        power_density(constant_conductivity(1.0).on_mesh(other),
                      ScalarField(disk, x), ScalarField(disk, y))


def test_positive_semidefinite_up_to_projection(disk):
    sigma = CASE1.on_mesh(disk)
    f1, f2 = disk.vertices[disk.dirichlet_nodes].T
    u1 = solve_mixed(sigma, f1)
    u2 = solve_mixed(sigma, f2)
    H = power_density(sigma, u1, u2)
    h11, _, h22 = H.components()
    assert h11.min() >= 0.0
    assert h22.min() >= 0.0
    det = H.determinant()
    assert det.min() >= -1e-12 * ((h11 + h22) ** 2).max()


# -- gradient angle --------------------------------------------------------------

def test_theta_of_linear_potentials(disk):
    x, y = coords(disk)
    theta, flagged = true_theta(ScalarField(disk, x))
    assert flagged.size == 0
    assert np.abs(theta.values).max() <= 1e-12

    theta, _ = true_theta(ScalarField(disk, y))
    assert np.abs(theta.values - np.pi / 2).max() <= 1e-12

    theta, _ = true_theta(ScalarField(disk, x + y))
    assert np.abs(theta.values - np.pi / 4).max() <= 1e-12


def test_theta_range_half_open(disk):
    # at 180 degrees roundoff may land on either side of the cut; the
    # range contract and the direction are what hold
    x, _ = coords(disk)
    theta, _ = true_theta(ScalarField(disk, -x))
    assert np.all(theta.values > -np.pi)
    assert np.all(theta.values <= np.pi)
    assert np.abs(np.abs(theta.values) - np.pi).max() <= 1e-12


def test_theta_constant_potential_flagged(disk):
    theta, flagged = true_theta(ScalarField(disk, np.ones(disk.n_vertices)))
    assert flagged.size == disk.n_vertices
    assert np.all(theta.values == 0.0)


def test_theta_stable_across_branch_cut(disk):
    # gradient direction near 180 degrees alternates sign of the y component;
    # naive angle averaging would land near zero instead of pi
    x, y = coords(disk)
    theta, _ = true_theta(ScalarField(disk, -x + 1e-9 * y * y))
    assert np.abs(np.abs(theta.values) - np.pi).max() <= 1e-6


# -- restriction onto nested meshes ----------------------------------------------

@pytest.mark.parametrize("levels", [1, 2])
def test_restrict_equals_transfer_on_refined_meshes(levels):
    def g(mesh):
        x, y = coords(mesh)
        return np.exp(x) * np.cos(3.0 * y)

    coarse = tag_boundary(build_disk_mesh(0.2), GAMMA_SMALL)
    fine = coarse
    for _ in range(levels):
        fine = refine(fine)
    out = restrict(ScalarField(fine, g(fine)), coarse)
    assert out.mesh is coarse
    # the coarse vertices are bitwise the fine prefix, so the closed form
    # evaluated at them is what any exact pickup must return
    assert np.array_equal(out.values, g(coarse))


@pytest.mark.parametrize("src_h, dst_h", [(0.2, 0.25), (0.25, 0.2)])
def test_restrict_rejects_meshes_not_nested_by_prefix(src_h, dst_h):
    src, dst = build_disk_mesh(src_h), build_disk_mesh(dst_h)
    f = ScalarField(src, np.ones(src.n_vertices))
    with pytest.raises(ContractError,
                       match=f"{dst.n_vertices} vertices.*{src.n_vertices} vertices"):
        restrict(f, dst)


# -- determinant diagnostics -----------------------------------------------------

def test_det_diagnostics_identity(disk):
    n = disk.n_vertices
    H = PowerDensity(ScalarField(disk, np.ones(n)), ScalarField(disk, np.zeros(n)),
                     ScalarField(disk, np.ones(n)))
    min_det, log_det = det_diagnostics(H)
    assert min_det == 1.0
    assert np.abs(log_det.values).max() == 0.0


def test_det_diagnostics_floor(disk):
    n = disk.n_vertices
    h12 = np.zeros(n)
    h12[3] = 2.0  # det = -3 at node 3
    H = PowerDensity(ScalarField(disk, np.ones(n)), ScalarField(disk, h12),
                     ScalarField(disk, np.ones(n)))
    min_det, log_det = det_diagnostics(H)
    assert min_det == pytest.approx(-3.0)
    assert log_det.values[3] == pytest.approx(np.log(1e-28))
