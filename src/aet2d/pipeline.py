"""End-to-end experiment driver: synthesize, corrupt, reconstruct.

Data is synthesized on one refinement of the reconstruction mesh, so the
reconstruction nodes are the first data nodes and the data reach them by
prefix restriction, an exact pickup.  Noise and the eigenvalue floor are
applied after the restriction, to the matrix the reconstruction actually
consumes; a noiseless run touches neither.

Boundary data are arrays over the fixed nodes in sorted order: x and y at the
data mesh's `dirichlet_nodes`, the truths at the recon mesh's `boundary_nodes`.
"""
from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, ParameterError
from .fem import ScalarField, assemble_conductivity, constrain, solve_mixed
from .forward import (
    CASES,
    Phantom,
    PowerDensity,
    power_density,
    restrict,
    true_theta,
)
from .mesh import GAMMA_PRESETS, BoundarySpec, Mesh, build_disk_mesh, refine, tag_boundary
from .noise import NoiseSpec, clamp_eigenvalues, is_count, perturb
from .recon import ReconResult, boundary_theta, run_algorithm1

MAX_REFINE_LEVELS = 6


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; validated on construction.

    `gamma` names the preset of the controlled arc.  `refine_levels`
    counts extra refinements of the reconstruction mesh; the data mesh is
    always one refinement finer.  The boundary angle is always unwrapped
    along the rim (`boundary_theta`), so `unwrap_arcs` accepts only None.
    The slot stays because `bench/spans.py` passes `unwrap_arcs=None` to
    `dataclasses.replace` of every traced forward config; ROADMAP item 1's
    benchmark change deletes both.
    """

    case: str = "case1"
    gamma: str = "medium"
    target_h: float = 0.03
    refine_levels: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    unwrap_arcs: None = None

    def __post_init__(self):
        # every bound a stage checks is checked here, before anything runs
        if self.case not in CASES:
            raise ParameterError(f"unknown conductivity case {self.case!r}")
        if self.gamma not in GAMMA_PRESETS:
            raise ParameterError(f"unknown boundary preset {self.gamma!r}")
        if not 0.0 < self.target_h < 1.0:
            raise ParameterError("target_h must lie in (0, 1)")
        if not (is_count(self.refine_levels)
                and 0 <= self.refine_levels <= MAX_REFINE_LEVELS):
            raise ParameterError(f"refine_levels must be an integer in 0..{MAX_REFINE_LEVELS}")
        if not isinstance(self.noise, NoiseSpec):
            raise ParameterError("noise must be a NoiseSpec")
        if self.unwrap_arcs is not None:
            raise ParameterError("unwrap_arcs must be None: the boundary angle "
                                 "is always unwrapped along the rim")

    def boundary_spec(self) -> BoundarySpec:
        return GAMMA_PRESETS[self.gamma]

    def conductivity(self) -> Phantom:
        return CASES[self.case]


@dataclass(frozen=True)
class ForwardData:
    """Synthesized inputs for one reconstruction, on the reconstruction mesh."""

    sigma_true: ScalarField
    theta_true: ScalarField
    H: PowerDensity

    @property
    def recon_mesh(self) -> Mesh:
        return self.H.mesh

    @property
    def n_data(self) -> int:
        """Node count of the data mesh: `refine` adds one node per edge."""
        return self.recon_mesh.n_vertices + self.recon_mesh.n_edges


def _tangency_override(mesh: Mesh, u_rim: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Exact angle truth on the no-flux arc: the gradient is tangent there.

    Zero normal flux leaves only the tangential component, so the angle at an
    uncontrolled rim node is the tangent direction, oriented by the sign of
    the tangential derivative of the potential.  Near a rim stagnation point
    that sign is not resolvable and the averaged-gradient value is kept; it
    also bridges the genuine pi jump the angle makes there.  Returns the node
    ids that were overridden.
    """
    loop = mesh.boundary_loop
    off_gamma = ~np.isin(loop, mesh.dirichlet_nodes)
    if not off_gamma.any():
        return np.empty(0, dtype=np.intp)
    u_loop = u_rim[loop]
    ahead = np.roll(u_loop, -1) - u_loop
    behind = u_loop - np.roll(u_loop, 1)
    du = ahead + behind
    # a node straddling a tangential extremum of u reports disagreeing
    # one-sided slopes; orienting the tangent there is a coin flip that
    # can derail the boundary unwrap, so such nodes keep the data value
    scale = np.median(np.abs(du[off_gamma]))
    sure = (off_gamma & (np.abs(du) > 0.05 * scale)
            & (np.sign(ahead) == np.sign(behind)))
    if not sure.any():
        return np.empty(0, dtype=np.intp)
    t = mesh.loop_angles[sure]
    s = np.sign(du[sure])
    tangent_angle = np.arctan2(s * np.cos(t), -s * np.sin(t))
    tangent_angle[tangent_angle <= -np.pi] = np.pi
    theta[loop[sure]] = tangent_angle
    return loop[sure]


def base_mesh(config: RunConfig) -> Mesh:
    """The tagged reconstruction mesh the config describes."""
    mesh = build_disk_mesh(config.target_h)
    for _ in range(config.refine_levels):
        mesh = refine(mesh)
    return tag_boundary(mesh, config.boundary_spec())


def forward_stage(config: RunConfig) -> ForwardData:
    """Solve the two boundary problems on the data mesh and pull back the data.

    The matrix components and the angle truth reach the reconstruction mesh
    by prefix restriction (exact, since the grids are nested); the
    conductivity truth is re-evaluated there in closed form.  Raises
    NumericalError where the angle truth is undefined on the rim.
    """
    recon_mesh = base_mesh(config)
    data_mesh = refine(recon_mesh)

    case = config.conductivity()
    sigma_data = case.on_mesh(data_mesh)
    controlled = data_mesh.dirichlet_nodes
    x, y = data_mesh.vertices[controlled].T  # the potentials' Dirichlet data
    # one sigma and one set of Dirichlet nodes: both potentials share an operator
    operator = constrain(assemble_conductivity(sigma_data), controlled)
    u1 = solve_mixed(sigma_data, x, operator=operator)
    u2 = solve_mixed(sigma_data, y, operator=operator)
    del operator  # its matrix blocks are the data mesh's largest arrays

    H_data = power_density(sigma_data, u1, u2)
    theta_data, flagged = true_theta(u1)

    h11, h12, h22 = (restrict(c, recon_mesh) for c in (H_data.h11, H_data.h12, H_data.h22))
    H = PowerDensity(h11, h12, h22)

    theta = restrict(theta_data, recon_mesh).values

    u1_rim = restrict(u1, recon_mesh).values
    overridden = _tangency_override(recon_mesh, u1_rim, theta)

    # the angle truth on the rim is the angle solve's boundary data
    undefined = np.setdiff1d(np.intersect1d(flagged, recon_mesh.boundary_nodes),
                             overridden)
    if undefined.size:
        raise NumericalError("angle truth is undefined on reconstruction boundary "
                             f"nodes {undefined[:8].tolist()}")
    return ForwardData(
        sigma_true=case.on_mesh(recon_mesh),
        theta_true=ScalarField(recon_mesh, theta),
        H=H,
    )


def apply_noise(H: PowerDensity, spec: NoiseSpec) -> PowerDensity:
    """Corruption and regularization as one stage.

    Noiseless data passes through untouched; the eigenvalue floor exists to
    repair what the noise broke, so flooring exact data would only bias it.
    A positive alpha with a zero floor is allowed and means deliberate
    under-regularization.
    """
    if spec.alpha_percent == 0.0:
        return H
    H = perturb(H, spec)
    if spec.eig_floor > 0.0:
        H = clamp_eigenvalues(H, spec.eig_floor)
    return H


def recon_stage(config: RunConfig, fwd: ForwardData) -> ReconResult:
    """Corrupt per config, rebuild boundary data from the truth, reconstruct."""
    mesh = fwd.recon_mesh
    boundary = mesh.boundary_nodes
    H = apply_noise(fwd.H, config.noise)
    theta_bc = boundary_theta(mesh, fwd.theta_true.values[boundary])
    return run_algorithm1(H, theta_bc, fwd.sigma_true.values[boundary],
                          truth=(fwd.theta_true, fwd.sigma_true))


@dataclass(frozen=True)
class PipelineResult:
    forward: ForwardData
    recon: ReconResult
    forward_seconds: float
    recon_seconds: float


def run_sweep(configs: Iterable[RunConfig]) -> Iterator[PipelineResult]:
    """Both stages for each config in order, sharing forward stages.

    Consecutive configs with the same forward key (the config without
    `noise`) reconstruct from one `ForwardData`; the noise stage returns new
    objects, so the shared data is never mutated.  A config that reuses the
    previous forward reports `forward_seconds` 0.0, so summing over a sweep
    gives the real forward time.  At most one `ForwardData` is held here at
    a time.
    """
    key = fwd = None
    for config in configs:
        forward_seconds = 0.0
        this_key = replace(config, noise=NoiseSpec())
        if this_key != key:
            key, fwd = this_key, None
            t0 = time.perf_counter()
            fwd = forward_stage(config)
            forward_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = recon_stage(config, fwd)
        yield PipelineResult(fwd, result, forward_seconds, time.perf_counter() - t0)


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Both stages with wall-clock accounting."""
    return next(run_sweep([config]))
