import numpy as np
import pytest

from aet2d.errors import ParameterError
from aet2d.fem import ScalarField
from aet2d.forward import PowerDensity
from aet2d.mesh import GAMMA_FULL, build_disk_mesh, tag_boundary
from aet2d.noise import (
    NoiseSpec,
    _std_normals,
    clamp_eigenvalues,
    floor_symmetric_2x2,
    perturb,
)


@pytest.fixture(scope="module")
def disk():
    return tag_boundary(build_disk_mesh(0.2), GAMMA_FULL)


def matrix_field(mesh, h11, h12, h22):
    return PowerDensity(ScalarField(mesh, h11), ScalarField(mesh, h12),
                        ScalarField(mesh, h22))


def smooth_data(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return matrix_field(mesh, 2.0 + x, 0.3 + 0.1 * y, 2.0 - 0.5 * y)


def stacked(H):
    h11, h12, h22 = H.components()
    return np.stack([np.stack([h11, h12], axis=1),
                     np.stack([h12, h22], axis=1)], axis=1)


# -- generator -------------------------------------------------------------------

def test_normals_deterministic():
    assert np.array_equal(_std_normals(7, 0, 512), _std_normals(7, 0, 512))
    assert not np.array_equal(_std_normals(7, 0, 512), _std_normals(8, 0, 512))
    assert not np.array_equal(_std_normals(7, 0, 512), _std_normals(7, 1, 512))


def test_normals_prefix_stable():
    # counter construction: value i never depends on how many were asked for
    assert np.array_equal(_std_normals(3, 2, 100), _std_normals(3, 2, 4096)[:100])


def test_normals_moments():
    z = _std_normals(7, 0, 200_000)
    assert abs(z.mean()) <= 0.01
    assert abs(z.std() - 1.0) <= 0.01
    assert abs((z ** 3).mean()) <= 0.03
    assert abs((z ** 4).mean() - 3.0) <= 0.08


def test_normals_streams_uncorrelated():
    a = _std_normals(7, 0, 200_000)
    b = _std_normals(7, 1, 200_000)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 0.01


# -- spec validation -------------------------------------------------------------

def test_spec_rejects_bad_values():
    with pytest.raises(ParameterError):
        NoiseSpec(alpha_percent=-1.0)
    with pytest.raises(ParameterError):
        NoiseSpec(eig_floor=-1e-5)
    with pytest.raises(ParameterError):
        NoiseSpec(seed=-1)
    with pytest.raises(ParameterError):
        NoiseSpec(seed=2 ** 64)
    NoiseSpec(alpha_percent=5.0, seed=50, eig_floor=1e-5)  # valid


# -- perturbation ----------------------------------------------------------------

def test_zero_alpha_is_identity(disk):
    H = smooth_data(disk)
    assert perturb(H, NoiseSpec(alpha_percent=0.0, seed=50)) is H


def test_perturb_matches_formula(disk):
    H = smooth_data(disk)
    spec = NoiseSpec(alpha_percent=5.0, seed=50)
    noisy = perturb(H, spec)
    for stream, (new, old) in enumerate(zip(noisy.components(), H.components())):
        ratio = (new - old) / old
        e = _std_normals(spec.seed, stream, disk.n_vertices)
        expected = 0.05 * e / np.linalg.norm(e)
        assert np.abs(ratio - expected).max() <= 1e-13
        assert np.linalg.norm(ratio) == pytest.approx(0.05, rel=1e-12)


def test_perturb_deterministic(disk):
    H = smooth_data(disk)
    spec = NoiseSpec(alpha_percent=5.0, seed=50)
    a = perturb(H, spec)
    b = perturb(H, spec)
    assert np.array_equal(a.h11.values, b.h11.values)
    assert np.array_equal(a.h12.values, b.h12.values)
    assert np.array_equal(a.h22.values, b.h22.values)
    c = perturb(H, NoiseSpec(alpha_percent=5.0, seed=51))
    assert not np.array_equal(a.h11.values, c.h11.values)


# -- eigenvalue floor ------------------------------------------------------------

def test_clamp_leaves_definite_matrices_alone(disk):
    n = disk.n_vertices
    H = matrix_field(disk, np.ones(n), np.zeros(n), np.ones(n))
    out = clamp_eigenvalues(H, 1e-5)
    assert out is H


def test_clamp_diagonal_case(disk):
    n = disk.n_vertices
    h22 = np.ones(n)
    h22[4] = 1e-9
    H = matrix_field(disk, 2.0 * np.ones(n), np.zeros(n), h22)
    out = clamp_eigenvalues(H, 1e-5)
    assert out.eig_floor_nodes.tolist() == [4]
    assert out.h22.values[4] == pytest.approx(1e-5, rel=1e-12)
    assert out.h11.values[4] == pytest.approx(2.0, rel=1e-12)
    assert out.h12.values[4] == 0.0
    untouched = np.arange(n) != 4
    assert np.array_equal(out.h22.values[untouched], h22[untouched])


def as_matrices(a, b, c):
    return np.stack([np.stack([a, b], axis=1), np.stack([b, c], axis=1)], axis=1)


def test_floor_random_matrices_match_eigensolver():
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 5000))
    floor = 0.5
    na, nb, nc, mask = floor_symmetric_2x2(a, b, c, floor)
    got = np.linalg.eigvalsh(as_matrices(na, nb, nc))
    want = np.maximum(np.linalg.eigvalsh(as_matrices(a, b, c)), floor)
    assert np.abs(got - want).max() <= 1e-12
    # the correction itself is positive semidefinite
    diff = np.linalg.eigvalsh(as_matrices(na - a, nb - b, nc - c))
    assert diff.min() >= -1e-12
    assert mask.any() and not mask.all()
    assert np.array_equal(na[~mask], a[~mask])


def test_floor_invariants():
    rng = np.random.default_rng(5)
    a, b, c = rng.normal(size=(3, 5000))
    L = 1e-5
    na, nb, nc, _ = floor_symmetric_2x2(a, b, c, L)
    slack = L * (1.0 - 1e-9)
    assert na.min() >= slack
    assert nc.min() >= slack
    assert (na * nc - nb ** 2).min() >= L ** 2 * (1.0 - 1e-9)


def test_floor_idempotent_bitwise():
    rng = np.random.default_rng(9)
    a, b, c = rng.normal(size=(3, 5000))
    once = floor_symmetric_2x2(a, b, c, 1e-5)[:3]
    twice = floor_symmetric_2x2(*once, 1e-5)
    assert not twice[3].any()
    for x, y in zip(once, twice[:3]):
        assert np.array_equal(x, y)


def test_clamp_idempotent_on_field(disk):
    # valid data with tiny but positive determinants everywhere
    n = disk.n_vertices
    H = matrix_field(disk, np.ones(n), np.full(n, 1.0 - 1e-7), np.ones(n))
    once = clamp_eigenvalues(H, 1e-5)
    assert once.eig_floor_nodes.size == n
    assert clamp_eigenvalues(once, 1e-5) is once


def test_clamp_rejects_bad_floor(disk):
    H = smooth_data(disk)
    with pytest.raises(ParameterError):
        clamp_eigenvalues(H, 0.0)
    with pytest.raises(ParameterError):
        clamp_eigenvalues(H, -1.0)
