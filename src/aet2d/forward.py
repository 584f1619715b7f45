"""Interior power-density data synthesized from boundary-driven potentials.

Two potentials, driven by the coordinate functions on the controlled arc,
are combined into the symmetric matrix field with entries
sigma * grad(u_i) . grad(u_j).  This module evaluates that field and its
determinant diagnostics, extracts the gradient angle of the first
potential, and restricts nodal fields from a data mesh to the mesh that
`refine` nested in it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError
from .fem import ScalarField, element_gradient, element_mean, project_to_nodes
from .mesh import Mesh, basis_column


@dataclass(frozen=True)
class Phantom:
    """Closed-form conductivity phantom with a guaranteed value range.

    `bounds` is checked on every mesh evaluation so a typo in a phantom
    definition fails loudly instead of producing a plausible field.
    """

    label: str
    bounds: tuple[float, float]
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def on_mesh(self, mesh: Mesh) -> ScalarField:
        values = self(mesh.vertices[:, 0], mesh.vertices[:, 1])
        lo, hi = self.bounds
        if values.min() < lo - 1e-9 or values.max() > hi + 1e-9:
            raise DomainError(
                f"conductivity '{self.label}' leaves [{lo}, {hi}]: "
                f"range [{values.min():.6g}, {values.max():.6g}]")
        return ScalarField(mesh, values)


def _single_bump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 + np.exp(-5.0 * (x * x + y * y))


def _three_bumps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (1.0
            + np.exp(-20.0 * ((x + 0.5) ** 2 + y * y))
            + np.exp(-20.0 * (x * x + (y + 0.5) ** 2))
            + np.exp(-50.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)))


def _two(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.full(np.broadcast(x, y).shape, 2.0)


# centered inclusion; off-center inclusions with a smaller feature scale
CASE1 = Phantom("case1", (1.0, 4.0), _single_bump)
CASE2 = Phantom("case2", (1.0, 4.0), _three_bumps)

# the level cancels out of the reconstruction, which reads only gradients of
# logs and ratios of the data plus the boundary trace
CONSTANT = Phantom("constant", (2.0, 2.0), _two)

# the phantoms a run names by `RunConfig.case`
CASES = {"case1": CASE1, "case2": CASE2, "constant": CONSTANT}

# floor of the determinant root `PowerDensity.d`
EPS_D = 1e-14


@dataclass(frozen=True, eq=False)
class PowerDensity:
    """Symmetric 2x2 matrix field stored by its three nodal components.

    The raw nodal determinant `det` is computed once, on construction, and
    is read-only. Its square root `d` is floored at `EPS_D`; nodes where the
    floor fired are recorded in `d_clamp_nodes` so silent data degradation
    stays visible.  `eig_floor_nodes` is filled by the noise stage when
    eigenvalue regularization modifies entries, empty otherwise.
    """

    h11: ScalarField
    h12: ScalarField
    h22: ScalarField
    eig_floor_nodes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp))

    det: np.ndarray = field(init=False)
    d: ScalarField = field(init=False)
    d_clamp_nodes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mesh = self.h11.mesh
        if self.h12.mesh is not mesh or self.h22.mesh is not mesh:
            raise ContractError("power density components live on different meshes")
        with np.errstate(over="ignore", invalid="ignore"):
            det = self.h11.values * self.h22.values - self.h12.values ** 2
        overflow = np.flatnonzero(~np.isfinite(det))
        if overflow.size:
            raise DomainError(f"determinant overflows at nodes {overflow[:8].tolist()}")
        floor = EPS_D ** 2
        definite = det >= floor
        bad = definite & ((self.h11.values <= 0.0) | (self.h22.values <= 0.0))
        if bad.any():
            raise DomainError(
                "nonpositive diagonal despite positive determinant at nodes "
                f"{np.flatnonzero(bad)[:8].tolist()}")
        clamped = np.flatnonzero(~definite)
        clamped.setflags(write=False)
        object.__setattr__(self, "d_clamp_nodes", clamped)
        det.setflags(write=False)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "d",
                           ScalarField(mesh, np.sqrt(np.maximum(det, floor))))
        hits = np.array(self.eig_floor_nodes, dtype=np.intp)
        hits.setflags(write=False)
        object.__setattr__(self, "eig_floor_nodes", hits)

    @property
    def mesh(self) -> Mesh:
        return self.h11.mesh

    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.h11.values, self.h12.values, self.h22.values


def power_density(sigma: ScalarField, u1: ScalarField,
                  u2: ScalarField) -> PowerDensity:
    """Nodal matrix data sigma * grad(u_i).grad(u_j) from two potentials.

    Gradients are constant per element; sigma is sampled at the element
    centroid, one value per constant-gradient cell.  Element products are
    carried to nodes by area-weighted projection.  Raises ContractError
    unless both potentials live on `sigma.mesh`.
    """
    mesh = sigma.mesh
    if u1.mesh is not mesh or u2.mesh is not mesh:
        raise ContractError("potentials must live on sigma's mesh")
    g1 = element_gradient(u1).vectors
    g2 = element_gradient(u2).vectors
    sig = element_mean(mesh, sigma.values)

    def projected(ga, gb):
        # sig * (ga * gb).sum(axis=1), its two-term sum taken column-wise,
        # carried to nodes before the next product is formed
        e = ga[:, 0] * gb[:, 0]
        e += ga[:, 1] * gb[:, 1]
        e *= sig
        return ScalarField(mesh, project_to_nodes(mesh, e))

    return PowerDensity(projected(g1, g1), projected(g1, g2), projected(g2, g2))


def true_theta(u1: ScalarField) -> tuple[ScalarField, np.ndarray]:
    """Angle of the first potential's gradient, carried to nodes.

    Unit directions are averaged componentwise and the angle re-extracted,
    which is stable across the branch cut at pi; averaging raw angles is
    not.  Returns the nodal angle field in (-pi, pi] together with the
    nodes where the direction is undefined (a zero-gradient element in the
    star, or cancellation in the average); flagged nodes carry angle 0.
    """
    mesh = u1.mesh
    g = element_gradient(u1).vectors
    norms = np.hypot(g[:, 0], g[:, 1])
    # a gradient below the roundoff bound of its own assembly has no
    # trustworthy direction; the bound scales with the nodal magnitudes,
    # sum_k |u_k| |(b_k, c_k)|, taken one vertex column at a time in
    # `.sum(axis=1)`'s order
    tri = mesh.triangles
    for k in range(3):
        weight = np.hypot(*basis_column(mesh.vertices, tri, k))
        weight *= np.abs(u1.values[tri[:, k]])
        if k == 0:
            noise_floor = weight
        else:
            noise_floor += weight
    noise_floor *= 1e-13
    noise_floor /= 2.0 * mesh.areas
    degenerate = norms <= noise_floor
    # the unit directions overwrite the gradients they come from; the rest
    # goes before the projection, which sets this function's peak
    unit = np.divide(g, norms[:, None], out=g, where=~degenerate[:, None])
    unit[degenerate] = 0.0
    del norms, weight, noise_floor
    averaged = project_to_nodes(mesh, unit)

    flagged = np.zeros(mesh.n_vertices, dtype=bool)
    flagged[np.unique(mesh.triangles[degenerate])] = True
    flagged |= np.hypot(averaged[:, 0], averaged[:, 1]) <= 1e-12

    theta = np.arctan2(averaged[:, 1], averaged[:, 0])
    theta[theta <= -np.pi] = np.pi
    theta[flagged] = 0.0
    return ScalarField(mesh, theta), np.flatnonzero(flagged)


def restrict(source: ScalarField, target: Mesh) -> ScalarField:
    """Nodal values of `source` at the vertices of a mesh nested in its own.

    `refine` keeps the parent vertices first and in order, so a coarse mesh's
    nodes are the first nodes of every refinement of it and restriction is an
    exact pickup of a value prefix.  Raises ContractError unless the target's
    vertices are exactly that prefix of the source mesh's vertices.
    """
    n = target.n_vertices
    if not np.array_equal(source.mesh.vertices[:n], target.vertices):
        raise ContractError(
            f"target mesh ({n} vertices) is not an index prefix of the source "
            f"mesh ({source.mesh.n_vertices} vertices)")
    # a copy, so the result does not keep the whole source array alive
    return ScalarField(target, source.values[:n].copy())


def det_diagnostics(H: PowerDensity) -> tuple[float, ScalarField]:
    """Minimum of the raw determinant `H.det` and the nodal log-determinant
    field.

    The log argument is floored at EPS_D^2 so collapsed regions render as
    a flat plateau instead of -inf.
    """
    log_det = np.log(np.maximum(H.det, EPS_D ** 2))
    return float(H.det.min()), ScalarField(H.mesh, log_det)
