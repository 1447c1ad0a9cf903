"""Damped-wave evolution of the level set function.

One implicit step solves
    ((1 + B*ds) M + ds^2 K) phi_next = M (-F*b*ds^2 + (2 + B*ds) phi - phi_prev)
with prescribed values stamped on constrained nodes and the result clamped
to [-1, 1]. M is the mesh's mass matrix and K = c^2 times its Laplacian, for
a wave speed c > 0. The operator is fixed by the two matrices, the damping,
the step size and the prescribed nodes, so it is built once and holds them
all:

    factors = factorize(mesh.mass, assemble_wave(mesh, c), B, ds, (nodes, values))
    state = initialize(mesh, phi0, phi_prev, factors, width)
    step(state, F)          # as often as needed

Every run with the same inputs can share one ``WaveFactors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgument, SolverFailure
from .mesh import Mesh


def assemble_wave(mesh: Mesh, wave_speed: float) -> sp.csr_matrix:
    """The wave stiffness c^2 K on the design mesh, K its Laplacian."""
    if not wave_speed > 0.0:
        raise InvalidArgument("wave speed must be positive")
    return wave_speed ** 2 * mesh.laplacian


@dataclass(frozen=True)
class WaveFactors:
    """The step operator (1 + B*ds) M + ds^2 K with its constants: the mass
    and wave stiffness, the damping B, the step ds and the prescribed nodes
    and values. Its free-node block is LU-factorized, ordered by minimum
    degree on its symmetric pattern; ``lift`` is what the prescribed values
    contribute to the free rows of a step."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    damping: float
    ds: float
    fixed_nodes: np.ndarray
    fixed_values: np.ndarray
    free: np.ndarray
    lift: np.ndarray
    lu: object = field(repr=False)


def factorize(mass: sp.csr_matrix, stiffness: sp.csr_matrix, damping: float,
              ds: float, dirichlet) -> WaveFactors:
    """Factorize the step operator with the level set prescribed on
    ``dirichlet`` = (nodes, values); an empty pair prescribes no node."""
    if damping < 0.0:
        raise InvalidArgument("damping must be non-negative")
    if ds <= 0.0:
        raise InvalidArgument("step size must be positive")
    nodes = np.asarray(dirichlet[0], dtype=np.int64)
    values = np.asarray(dirichlet[1], dtype=float)
    a = (1.0 + damping * ds) * mass + ds ** 2 * stiffness
    free = np.setdiff1d(np.arange(a.shape[0]), nodes)
    rows = a[free]
    return WaveFactors(mass=mass, stiffness=stiffness, damping=float(damping),
                       ds=float(ds), fixed_nodes=nodes, fixed_values=values, free=free,
                       lift=rows[:, nodes] @ values,
                       lu=spla.splu(rows[:, free].tocsc(), permc_spec="MMD_AT_PLUS_A"))


@dataclass
class LevelSetState:
    phi: np.ndarray
    phi_prev: np.ndarray
    factors: WaveFactors = field(repr=False)
    width: float
    clamp_events: int = 0

    def velocity(self) -> np.ndarray:
        return (self.phi - self.phi_prev) / self.factors.ds

    def energy(self) -> float:
        """Discrete kinetic + potential energy of the current state pair."""
        vel = self.velocity()
        m, k = self.factors.mass, self.factors.stiffness
        return float(0.5 * vel @ (m @ vel) + 0.5 * self.phi @ (k @ self.phi))


def initialize(mesh: Mesh, phi0: np.ndarray, phi_prev: np.ndarray,
               factors: WaveFactors, width: float) -> LevelSetState:
    """Set up the evolution state, with the prescribed values of ``factors``
    stamped on both fields; out-of-range initial data is rejected."""
    phi0 = np.asarray(phi0, dtype=float).copy()
    phi_prev = np.asarray(phi_prev, dtype=float).copy()
    for name, arr in (("phi0", phi0), ("phi_prev", phi_prev)):
        if arr.shape != (mesh.num_nodes,):
            raise InvalidArgument(f"{name} has wrong shape")
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise InvalidArgument(f"{name} must lie in [-1, 1]")
    if width <= 0.0:
        raise InvalidArgument("interface width must be positive")
    phi0[factors.fixed_nodes] = factors.fixed_values
    phi_prev[factors.fixed_nodes] = factors.fixed_values
    return LevelSetState(phi=phi0, phi_prev=phi_prev, factors=factors,
                         width=float(width))


def step(state: LevelSetState, forcing: np.ndarray) -> np.ndarray:
    """Advance one iteration; rotates the history and returns the new field."""
    factors = state.factors
    ds = factors.ds
    b_ds = factors.damping * ds
    rhs_field = (-forcing * state.width * ds ** 2
                 + (2.0 + b_ds) * state.phi - state.phi_prev)
    rhs = factors.mass @ rhs_field
    phi_new = np.empty_like(state.phi)
    phi_new[factors.free] = factors.lu.solve(rhs[factors.free] - factors.lift)
    phi_new[factors.fixed_nodes] = factors.fixed_values
    if not np.all(np.isfinite(phi_new)):
        raise SolverFailure("level set update produced non-finite values")

    clipped = np.clip(phi_new, -1.0, 1.0)
    state.clamp_events += int(np.count_nonzero(clipped != phi_new))
    state.phi_prev = state.phi
    state.phi = clipped
    return state.phi
