"""Seeded multiplicative corruption of power-density data.

Noise is generated by a counter hash: each value depends only on
(seed, stream, node index), never on draw order, so regeneration is
bit-stable under any evaluation schedule.  Corrupted matrices lose
positive definiteness near the uncontrolled boundary; an eigenvalue
floor restores it and doubles as the regularization knob.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .fem import ScalarField
from .forward import PowerDensity

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# streams 0, 1, 2 perturb h11, h12, h22 respectively
_COMPONENT_STREAMS = (0, 1, 2)


def is_count(value) -> bool:
    """An integer, and not a bool (which Python counts as one)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level in percent, generator seed, and eigenvalue floor."""

    alpha_percent: float = 0.0
    seed: int = 0
    eig_floor: float = 1e-5

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha_percent) and self.alpha_percent >= 0.0):
            raise ParameterError(
                f"noise level must be >= 0 percent, got {self.alpha_percent}")
        if not (np.isfinite(self.eig_floor) and self.eig_floor >= 0.0):
            raise ParameterError(
                f"eigenvalue floor must be >= 0, got {self.eig_floor}")
        if not (is_count(self.seed) and 0 <= int(self.seed) < 2 ** 64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _std_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """One standard normal per index from a hash of (seed, stream, index)."""
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is the point
        base = _finalize(np.uint64(seed) ^ _finalize((np.uint64(stream) + np.uint64(1)) * _GOLDEN))
        idx = np.arange(n, dtype=np.uint64)
        h1 = _finalize(base + (np.uint64(2) * idx + np.uint64(1)) * _GOLDEN)
        h2 = _finalize(base + (np.uint64(2) * idx + np.uint64(2)) * _GOLDEN)
        # 53-bit uniforms in [0, 1); the log1p form keeps the radius finite at 0
        u1 = (h1 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        u2 = (h2 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


def perturb(H: PowerDensity, spec: NoiseSpec) -> PowerDensity:
    """Multiplicative corruption: each entry scaled by 1 + (alpha/100) e/|e|.

    The three components get independent normal fields, each normalized by
    its Euclidean norm over the nodes.  alpha 0 returns the input object
    itself, bit for bit.
    """
    if spec.alpha_percent == 0.0:
        return H
    n = H.mesh.n_vertices
    level = spec.alpha_percent / 100.0
    noisy = []
    for stream, component in zip(_COMPONENT_STREAMS, (H.h11, H.h12, H.h22)):
        e = _std_normals(spec.seed, stream, n)
        e /= np.linalg.norm(e)
        noisy.append(ScalarField(H.mesh, component.values * (1.0 + level * e)))
    return replace(H, h11=noisy[0], h12=noisy[1], h22=noisy[2])


def floor_symmetric_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                        floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raise eigenvalues of symmetric matrices [[a, b], [b, c]] to `floor`.

    Closed-form eigendecomposition, total over all symmetric inputs
    (indefinite ones included).  Only entries below the floor are
    rewritten, everything else is carried over bit for bit.  A margin
    proportional to the matrix magnitude counts as already clamped:
    recompose-then-decompose roundoff is about eps times the entry scale,
    so without it the operation would not be idempotent.  Returns the
    three floored component arrays and the modified-entry mask.
    """
    if not (np.isfinite(floor) and floor > 0.0):
        raise ParameterError(f"eigenvalue floor must be positive, got {floor}")
    mean = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), b)
    low = mean - radius
    margin = 64.0 * np.finfo(float).eps * (np.abs(a) + 2.0 * np.abs(b) + np.abs(c) + floor)
    mask = low < floor - margin
    na, nb, nc = a.copy(), b.copy(), c.copy()
    if mask.any():
        high = np.maximum(mean + radius, floor)[mask]
        lo = np.maximum(low, floor)[mask]
        phi = 0.5 * np.arctan2(2.0 * b[mask], (a - c)[mask])
        cs, sn = np.cos(phi), np.sin(phi)
        na[mask] = high * cs ** 2 + lo * sn ** 2
        nb[mask] = (high - lo) * cs * sn
        nc[mask] = high * sn ** 2 + lo * cs ** 2
    return na, nb, nc, mask


def clamp_eigenvalues(H: PowerDensity, floor: float) -> PowerDensity:
    """Eigenvalue floor applied nodewise; modified nodes are recorded.

    Returns the input object itself when nothing is below the floor, so
    repeated application is a no-op.
    """
    a, b, c = H.components()
    na, nb, nc, mask = floor_symmetric_2x2(a, b, c, floor)
    if not mask.any():
        return H
    return replace(H,
                   h11=ScalarField(H.mesh, na),
                   h12=ScalarField(H.mesh, nb),
                   h22=ScalarField(H.mesh, nc),
                   eig_floor_nodes=np.flatnonzero(mask))
