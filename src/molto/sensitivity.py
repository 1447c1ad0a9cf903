"""Objective functionals, constraints, and the aggregated perturbation field
that forces the level set evolution.

The objectives enter as a weighted sum, so every objective a adds one term of
the same form to the forcing:

    f_a = k_a + (e_a - a_a) / c_a

with k_a the constraint part (multiplier pressure or aggregated stress term,
never normalized), e_a the explicit part of the objective's shape derivative,
a_a = dtau * C eps(u_a) : eps(v_a) the part carried by the adjoint v_a of the
state u_a, and c_a the constant that scales the objective part to mean
magnitude w_a. Each problem family has one builder that only supplies k_a,
e_a and the strains of each (state, adjoint) pair:

* ``perturbation_compliance``     -- any number of mean-compliance load cases
                                     sharing a volume constraint
* ``perturbation_mechanism``      -- output displacement vs. strain energy
                                     (spring-loaded mechanism) with a volume
                                     constraint
* ``perturbation_stress_volume``  -- material volume vs. strain energy with
                                     aggregated stress constraints
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import elasticity as el
from .errors import DegenerateSensitivityError, InvalidArgument
from .fem import element_to_nodes, scalar_stiffness
from .mesh import Mesh

NORMALIZATION_FLOOR = 1e-12


def reference_values(j) -> np.ndarray:
    """J* frozen from the initial design's objectives; values too small to
    normalize by fall back to 1."""
    j_star = np.array(j, dtype=float)
    for a in np.flatnonzero(np.abs(j_star) < 1e-12):
        warnings.warn(f"initial value {j_star[a]:.3e} of objective {a + 1} is "
                      "too small to normalize by; using 1")
        j_star[a] = 1.0
    return j_star


def volume_integral(mesh: Mesh, theta_e: np.ndarray, mask: np.ndarray) -> float:
    """integral theta over the elements of the design domain ``mask``."""
    return float(np.sum(theta_e[mask] * mesh.element_areas[mask]))


def strain_energy(mesh: Mesh, density: np.ndarray, tau_e: np.ndarray) -> float:
    """(1/2) integral tau * eps(u):C:eps(u), from the solid density."""
    return float(0.5 * np.sum(tau_e * density * mesh.element_areas))


def update_multipliers(lam: np.ndarray, g: np.ndarray, penalty: float) -> np.ndarray:
    """Projected augmented-Lagrangian update, once per outer iteration."""
    return np.maximum(0.0, lam + penalty * g)


def normalize(field_e: np.ndarray, w_alpha: float, volume_ref: float,
              areas: np.ndarray) -> float:
    """Mean-absolute-sensitivity scale (1 / (w V0)) * integral |field|, floored."""
    if w_alpha <= 0.0:
        raise InvalidArgument("objective weight must be positive")
    c = float(np.sum(np.abs(field_e) * areas)) / (w_alpha * volume_ref)
    return max(c, NORMALIZATION_FLOOR)


@dataclass
class PerturbationResult:
    """Per-objective contributions on elements and their aggregate on
    elements and nodes."""

    f_alpha_elem: list
    c_norm: tuple
    total_elem: np.ndarray
    total: np.ndarray


def _combine(mesh: Mesh, mat: el.MaterialParams, dtau, constraint, explicit,
             strains, adjoint_strains, w, volume_ref: float,
             c_override) -> PerturbationResult:
    """f_a = k_a + (e_a - a_a) / c_a for every objective a, with a_a formed
    from the strains of state a and of its adjoint.

    c_a scales the whole objective part e_a - a_a, not the adjoint part
    alone: with stiff boundary springs the governing-equation part can be
    orders of magnitude below an explicit energy term.
    """
    contributions, c_norm = [], []
    for alpha, (k, e, eps_u, eps_v) in enumerate(zip(constraint, explicit, strains,
                                                     adjoint_strains)):
        objective = e - dtau * el.mutual_energy_density(mat, eps_u, eps_v)
        c = (normalize(objective, w[alpha], volume_ref, mesh.element_areas)
             if c_override is None else c_override[alpha])
        contributions.append(k + objective / c)
        c_norm.append(c)
    total_e = np.sum(contributions, axis=0)
    if not np.all(np.isfinite(total_e)):
        raise DegenerateSensitivityError("perturbation field is non-finite")
    return PerturbationResult(f_alpha_elem=contributions, c_norm=tuple(c_norm),
                              total_elem=total_e,
                              total=element_to_nodes(mesh, total_e))


def perturbation_compliance(mesh: Mesh, mat: el.MaterialParams, dtau,
                            strains, adjoint_strains, multiplier: float,
                            volume_ref: float, w, mask: np.ndarray,
                            c_override=None) -> PerturbationResult:
    """k_a = lambda / (m V0) and e_a = 0 for each of the m load cases.

    ``dtau`` and k_a are zero off the design domain ``mask``. The strains are
    those of the m states and of their adjoints, which carry their w_a / J*_a
    scaling. The shared volume multiplier is split evenly over the m load
    cases.
    """
    m = len(strains)
    pressure = np.where(mask, multiplier / (m * volume_ref), 0.0)
    return _combine(mesh, mat, dtau, [pressure] * m, [0.0] * m, strains,
                    adjoint_strains, w, volume_ref, c_override)


def perturbation_mechanism(mesh: Mesh, mat: el.MaterialParams, dtau, density,
                           eps, adjoint_strains, multiplier: float,
                           volume_ref: float, w, j_star, mask: np.ndarray,
                           c_override=None) -> PerturbationResult:
    """Output displacement and strain energy sharing a volume constraint,
    k_a = lambda / (2 V0); the energy objective has the explicit self-term
    e_2 = (w2 / 2 J*2) dtau * density, with density = C eps(u) : eps(u) of
    the one state, whose strains are ``eps``; both adjoints, whose strains
    are ``adjoint_strains``, pair with that state."""
    pressure = np.where(mask, multiplier / (2.0 * volume_ref), 0.0)
    self2 = (w[1] / (2.0 * j_star[1])) * dtau * density
    return _combine(mesh, mat, dtau, [pressure, pressure], [0.0, self2], [eps, eps],
                    adjoint_strains, w, volume_ref, c_override)


def perturbation_stress_volume(mesh: Mesh, mat: el.MaterialParams, dtau,
                               density, eps, adjoint_strains,
                               stress: el.StressAggregate, multipliers,
                               volume_ref: float, w, j_star, mask: np.ndarray,
                               c_override=None) -> PerturbationResult:
    """Volume and strain energy with one stress constraint per objective, all
    on the aggregate ``stress`` of the one state, whose strains are ``eps``
    and whose solid density C eps(u) : eps(u) is ``density``; both adjoints
    pair with that state:

        k_a = (lambda_a / (p V0)) * S^(1/p - 1) * (vm/f_y)^p * dtau
            = (lambda_a / (p V0)) * total^(1/p - 1) * peak * rel^p * dtau,
        e_1 = w1 / J*1,  e_2 = (w2 / 2 J*2) dtau * density.
    """
    p, total = stress.exponent, stress.total
    unit = (total ** (1.0 / p - 1.0) * stress.peak / (p * volume_ref) * stress.rel ** p * dtau
            if total > 0.0 else np.zeros(mesh.num_triangles))
    explicit = [np.where(mask, w[0] / j_star[0], 0.0),
                (w[1] / (2.0 * j_star[1])) * dtau * density]
    return _combine(mesh, mat, dtau, [lam * unit for lam in multipliers], explicit,
                    [eps, eps], adjoint_strains, w, volume_ref, c_override)


# ---------------------------------------------------------------------------
# Helmholtz regularization with arsinh amplitude compression

def helmholtz_operator(mesh: Mesh, eta: float):
    """LU factors of eta * K + M_L, the filter's left-hand side, ordered by
    minimum degree on its symmetric pattern."""
    a = scalar_stiffness(mesh, eta * np.eye(2)).tolil()
    a.setdiag(a.diagonal() + mesh.node_areas)
    return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")


def helmholtz_filter(forcing: np.ndarray, eta: float, gamma: float,
                     mesh: Mesh, operator) -> np.ndarray:
    """Solve (eta * K + M_L) F_bar = M_L * arsinh(gamma F) / gamma.

    The lumped mass matrix keeps the discrete maximum principle, so the
    output max-norm never exceeds arsinh(gamma |F|_max) / gamma. With
    eta = 0 this reduces to the pointwise scaled field. ``operator`` must
    come from ``helmholtz_operator(mesh, eta)``.
    """
    if eta < 0.0:
        raise InvalidArgument("filter length parameter must be non-negative")
    if gamma <= 0.0:
        raise InvalidArgument("scaling parameter must be positive")
    scaled = np.arcsinh(gamma * np.asarray(forcing, dtype=float)) / gamma
    if eta == 0.0:
        return scaled
    return operator.solve(mesh.node_areas * scaled)
