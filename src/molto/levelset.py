"""Damped-wave evolution of the level set function.

One implicit step solves
    ((1 + B*ds) M + ds^2 K) phi_next = M (-F*b*ds^2 + (2 + B*ds) phi - phi_prev)
with prescribed values stamped on constrained nodes and the result clamped
to [-1, 1]. The constrained operator depends only on the wave matrices, the
damping, the step size and the constrained nodes; ``factorize`` builds its
factors, which every run with those inputs can share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgument, SolverFailure
from .fem import scalar_mass, scalar_stiffness
from .mesh import Mesh


@dataclass(frozen=True)
class WaveMatrices:
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix


def _speed_tensor(wave_speed) -> np.ndarray:
    c = np.asarray(wave_speed, dtype=float)
    if c.ndim == 0:
        c = c * np.eye(2)
    if c.shape != (2, 2) or abs(c[0, 1] - c[1, 0]) > 1e-12:
        raise InvalidArgument("wave speed must be a scalar or symmetric 2x2 tensor")
    if c[0, 0] <= 0.0 or c[1, 1] <= 0.0:
        raise InvalidArgument("wave speed diagonal must be positive")
    squared = c ** 2  # componentwise, the operator tensor
    if np.linalg.det(squared) < -1e-15:
        raise InvalidArgument("squared wave-speed tensor must be positive semidefinite")
    return squared


def assemble_wave(mesh: Mesh, wave_speed) -> WaveMatrices:
    """Mass and (squared-speed) stiffness matrices on the design mesh."""
    squared = _speed_tensor(wave_speed)
    return WaveMatrices(mass=scalar_mass(mesh),
                        stiffness=scalar_stiffness(mesh, squared))


@dataclass(frozen=True)
class WaveFactors:
    """LU factors of the free-node block of (1 + B*ds) M + ds^2 K, and its
    coupling to the constrained nodes."""

    free: np.ndarray
    coupling: sp.csr_matrix
    lu: object


def factorize(matrices: WaveMatrices, damping: float, ds: float,
              dirichlet_nodes: np.ndarray) -> WaveFactors:
    """Factorize the step operator with ``dirichlet_nodes`` held fixed."""
    a = (1.0 + damping * ds) * matrices.mass + ds ** 2 * matrices.stiffness
    free = np.setdiff1d(np.arange(a.shape[0]), dirichlet_nodes)
    return WaveFactors(free=free,
                       coupling=a[free][:, dirichlet_nodes].tocsr(),
                       lu=spla.splu(a[free][:, free].tocsc()))


@dataclass
class LevelSetState:
    phi: np.ndarray
    phi_prev: np.ndarray
    matrices: WaveMatrices
    damping: float
    width: float
    ds: float
    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray
    factors: WaveFactors = field(repr=False)
    clamp_events: int = 0

    def velocity(self) -> np.ndarray:
        return (self.phi - self.phi_prev) / self.ds

    def energy(self) -> float:
        """Discrete kinetic + potential energy of the current state pair."""
        vel = self.velocity()
        m, k = self.matrices.mass, self.matrices.stiffness
        return float(0.5 * vel @ (m @ vel) + 0.5 * self.phi @ (k @ self.phi))


def initialize(mesh: Mesh, phi0: np.ndarray, phi_prev: np.ndarray,
               matrices: WaveMatrices, damping: float, width: float,
               ds: float = 1.0, dirichlet=None,
               factors: WaveFactors | None = None) -> LevelSetState:
    """Set up the evolution state; out-of-range initial data is rejected.

    ``factors`` must come from ``factorize`` with the same matrices, damping,
    step size and constrained nodes; without them, they are built here.
    """
    phi0 = np.asarray(phi0, dtype=float).copy()
    phi_prev = np.asarray(phi_prev, dtype=float).copy()
    for name, arr in (("phi0", phi0), ("phi_prev", phi_prev)):
        if arr.shape != (mesh.num_nodes,):
            raise InvalidArgument(f"{name} has wrong shape")
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise InvalidArgument(f"{name} must lie in [-1, 1]")
    if damping < 0.0:
        raise InvalidArgument("damping must be non-negative")
    if width <= 0.0 or ds <= 0.0:
        raise InvalidArgument("interface width and step size must be positive")

    if dirichlet is None:
        nodes = np.empty(0, dtype=np.int64)
        values = np.empty(0)
    else:
        nodes = np.asarray(dirichlet[0], dtype=np.int64)
        values = np.asarray(dirichlet[1], dtype=float)
    phi0[nodes] = values
    phi_prev[nodes] = values

    if factors is None:
        factors = factorize(matrices, damping, ds, nodes)
    return LevelSetState(phi=phi0, phi_prev=phi_prev, matrices=matrices,
                         damping=float(damping), width=float(width), ds=float(ds),
                         dirichlet_nodes=nodes, dirichlet_values=values,
                         factors=factors)


def step(state: LevelSetState, forcing: np.ndarray) -> np.ndarray:
    """Advance one iteration; rotates the history and returns the new field."""
    b_ds = state.damping * state.ds
    rhs_field = (-forcing * state.width * state.ds ** 2
                 + (2.0 + b_ds) * state.phi - state.phi_prev)
    rhs = state.matrices.mass @ rhs_field
    factors = state.factors
    rhs_free = rhs[factors.free]
    if state.dirichlet_nodes.size:
        rhs_free = rhs_free - factors.coupling @ state.dirichlet_values

    phi_new = np.empty_like(state.phi)
    phi_new[factors.free] = factors.lu.solve(rhs_free)
    phi_new[state.dirichlet_nodes] = state.dirichlet_values
    if not np.all(np.isfinite(phi_new)):
        raise SolverFailure("level set update produced non-finite values")

    clipped = np.clip(phi_new, -1.0, 1.0)
    state.clamp_events += int(np.count_nonzero(clipped != phi_new))
    state.phi_prev = state.phi
    state.phi = clipped
    return state.phi
