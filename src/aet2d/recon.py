"""Angle and conductivity reconstruction from power-density data.

The matrix data is reduced to element vector fields.  The gradient angle
of the first potential solves a Poisson problem driven by those fields; the
log conductivity solves a second one whose right side rotates the same
fields by twice the angle.  Each solve takes an operator that names the
nodes it fixes, and data with one value per node of that operator's
`fixed`, in that sorted order.  The full reconstruction fixes the whole
boundary in both, through one shared Laplacian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, NumericalError
from .fem import (
    ScalarField,
    SolveInfo,
    ConstrainedOperator,
    VectorField,
    element_gradient,
    element_mean,
    fixed_values,
    l2_norm,
    laplacian_operator,
    solve_poisson_weak_div,
)
from .forward import PowerDensity
from .mesh import TWO_PI, Mesh


def _rot90(v: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn of stacked 2-vectors."""
    return np.stack([-v[:, 1], v[:, 0]], axis=1)


@dataclass(frozen=True)
class TransferFields:
    """Element vector fields extracted from the data matrix.

    `v12` vanishes identically for the orthonormalization chosen here and
    is not stored.  `f` is the field whose divergence drives the angle
    solve; it equals half of (-v21 - rot90(grad log d)).
    """

    v11: VectorField
    v21: VectorField
    v22: VectorField
    f: VectorField

    def __post_init__(self) -> None:
        mesh = self.f.mesh
        for v in (self.v11, self.v21, self.v22):
            if v.mesh is not mesh:
                raise ContractError("transfer fields live on different meshes")

    @property
    def mesh(self) -> Mesh:
        return self.f.mesh


def vector_fields(H: PowerDensity) -> TransferFields:
    """Reduce the matrix data to the fields the reconstruction needs.

    Rational and logarithmic compositions are formed nodally first and
    differentiated once; differentiating factors separately would amplify
    noise through the product rule.  The first-diagonal-over-root
    prefactor of `v21` is evaluated at element centroids, where the
    gradient it multiplies lives.
    """
    mesh = H.mesh
    h11, h12, _ = H.components()
    d = H.d.values
    bad = h11 <= 0.0
    if bad.any():
        raise DomainError(
            f"data matrix not usable at nodes {np.flatnonzero(bad)[:8].tolist()}: "
            "first diagonal entry is nonpositive")

    def grad(values: np.ndarray) -> np.ndarray:
        return element_gradient(ScalarField(mesh, values)).vectors

    log_h11 = np.log(h11)
    log_d = np.log(d)
    v11 = -0.5 * grad(log_h11)
    prefactor = element_mean(mesh, h11 / d)
    v21 = -prefactor[:, None] * grad(h12 / h11)
    v22 = grad(0.5 * log_h11 - log_d)
    f = 0.5 * (-v21 - _rot90(grad(log_d)))
    return TransferFields(
        v11=VectorField(mesh, v11),
        v21=VectorField(mesh, v21),
        v22=VectorField(mesh, v22),
        f=VectorField(mesh, f))


def boundary_theta(mesh: Mesh, raw: np.ndarray) -> np.ndarray:
    """Continuous representative of principal-range angles on the boundary.

    `raw` holds a value in [-pi, pi] at each node of `mesh.boundary_nodes`,
    in that sorted order, and the result comes in the same order.  The loop
    is walked counterclockwise and each jump larger than pi folds the running
    branch by 2 pi.  A jump of exactly pi is directionally ambiguous and
    raises DomainError naming the two rim nodes.
    """
    nodes = mesh.boundary_nodes
    raw = fixed_values(nodes, raw)
    if np.abs(raw).max() > np.pi + 1e-9:
        raise ContractError("raw angles must lie in the principal range")
    loop = mesh.boundary_loop
    # the walk is a permutation of the sorted boundary nodes
    walk = np.searchsorted(nodes, loop)
    values = raw[walk]
    jumps = np.diff(values)
    tie = np.flatnonzero(np.abs(jumps) == np.pi)
    if tie.size:
        a, b = loop[tie[0]], loop[tie[0] + 1]
        raise DomainError(f"boundary angle jumps by exactly pi between rim nodes {a} and {b}")
    folds = TWO_PI * ((jumps < -np.pi).astype(float) - (jumps > np.pi))
    unwrapped = values + np.concatenate([[0.0], np.cumsum(folds)])
    return unwrapped[np.argsort(walk)]


def sigma_rhs(theta: ScalarField, fields: TransferFields) -> VectorField:
    """Right-hand-side field for the log-conductivity solve.

    The base field combines the transfer fields through the reflection
    U = diag(1, -1); the angle enters only through cos/sin of its double,
    sampled at element centroids where the vector fields live.
    """
    mesh = fields.mesh
    if theta.mesh is not mesh:
        raise ContractError("angle field lives on a different mesh")
    dv = fields.v11.vectors - fields.v22.vectors
    v21 = fields.v21.vectors
    base = np.stack([dv[:, 0] + v21[:, 1], -dv[:, 1] + v21[:, 0]], axis=1)
    doubled = 2.0 * element_mean(mesh, theta.values)
    cos2 = np.cos(doubled)[:, None]
    sin2 = np.sin(doubled)[:, None]
    return VectorField(mesh, cos2 * base + sin2 * _rot90(base))


def reconstruct_sigma(G: VectorField, sigma_fixed: np.ndarray,
                      operator: ConstrainedOperator):
    """Conductivity on `G.mesh` from its values at the operator's nodes and div `G`.

    `operator` is a unit-conductivity stiffness matrix constrained on some
    nonempty node set, such as the mesh's `laplacian_operator`, and
    `sigma_fixed` holds the conductivity at each node of `operator.fixed`, in
    that sorted order.  Where the operator leaves boundary nodes free, the
    natural condition d(log sigma)/dn = G.n holds.  The solve runs in log
    space, so the returned field is positive by construction whatever the
    data quality; a log conductivity whose exp overflows raises
    NumericalError naming its nodes.  Returns (ScalarField, SolveInfo).
    """
    nodes = operator.fixed
    sigma_fixed = fixed_values(nodes, sigma_fixed)
    bad = nodes[sigma_fixed <= 0.0]
    if bad.size:
        raise DomainError("conductivity at fixed nodes must be positive, "
                          f"offending nodes {bad[:8].tolist()}")
    # math.log, not np.log: the two differ in the last bit on some values
    log_fixed = np.fromiter(map(math.log, sigma_fixed), np.float64, count=nodes.size)
    w, info = solve_poisson_weak_div(G, log_fixed, operator=operator,
                                     return_info=True)
    # past log(float max) the exp overflows to inf
    big = np.flatnonzero(w.values > math.log(np.finfo(np.float64).max))
    if big.size:
        raise NumericalError(f"conductivity overflows at nodes {big[:8].tolist()}")
    return ScalarField(G.mesh, np.exp(w.values)), info


@dataclass(frozen=True)
class ReconDiagnostics:
    min_det: float
    d_clamp_count: int
    eig_floor_count: int
    theta_solve: SolveInfo
    sigma_solve: SolveInfo


@dataclass(frozen=True)
class ReconMetrics:
    """L2 errors against supplied ground truth.

    The angle is compared through cos and sin of its double, which are
    blind to 2 pi branch choices.  Errors are relative; when a truth
    component vanishes up to solver roundoff (sin of a zero angle field,
    say) the absolute L2 norm of the difference is reported instead.
    """

    cos2theta_error: float
    sin2theta_error: float
    sigma_error: float


def _l2_error(mesh: Mesh, got: np.ndarray, want: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow is reported below
        error = l2_norm(ScalarField(mesh, got - want))
        reference = l2_norm(ScalarField(mesh, want))
    if not math.isfinite(error):
        raise NumericalError("L2 error overflows: the reconstruction is too large")
    # a unit field's norm on the disk is about 1.77, so a reference norm this
    # small is solver roundoff (up to 2e-9 for sin 2theta of the exact linear
    # case); report the absolute error instead of a ratio of noise
    return error if reference <= 1e-6 else error / reference


@dataclass(frozen=True)
class ReconResult:
    theta: ScalarField
    sigma: ScalarField
    diagnostics: ReconDiagnostics
    metrics: ReconMetrics | None


def run_algorithm1(H: PowerDensity, theta_boundary: np.ndarray,
                   sigma_boundary: np.ndarray,
                   truth: tuple[ScalarField, ScalarField] | None = None) -> ReconResult:
    """Full reconstruction: fields, angle solve, conductivity solve.

    The boundary angle and conductivity are given at each node of
    `H.mesh.boundary_nodes`, in that sorted order.  Both solves fix the whole
    boundary of a unit Laplacian, so they share one operator.
    Low-determinant regions are assumed handled upstream (the data's root
    floor and any eigenvalue regularization); here they only show up in the
    diagnostics, never as an abort.
    """
    mesh = H.mesh
    fields = vector_fields(H)
    laplacian = laplacian_operator(mesh)
    theta, theta_info = solve_poisson_weak_div(fields.f, theta_boundary,
                                               operator=laplacian, return_info=True)
    G = sigma_rhs(theta, fields)
    sigma, sigma_info = reconstruct_sigma(G, sigma_boundary, laplacian)
    diagnostics = ReconDiagnostics(
        min_det=float(H.determinant().min()),
        d_clamp_count=int(H.d_clamp_nodes.size),
        eig_floor_count=int(H.eig_floor_nodes.size),
        theta_solve=theta_info,
        sigma_solve=sigma_info)

    metrics = None
    if truth is not None:
        theta_true, sigma_true = truth
        doubled = 2.0 * theta.values
        doubled_true = 2.0 * theta_true.values
        metrics = ReconMetrics(
            cos2theta_error=_l2_error(mesh, np.cos(doubled), np.cos(doubled_true)),
            sin2theta_error=_l2_error(mesh, np.sin(doubled), np.sin(doubled_true)),
            sigma_error=_l2_error(mesh, sigma.values, sigma_true.values))
    return ReconResult(theta=theta, sigma=sigma, diagnostics=diagnostics,
                       metrics=metrics)
