"""Objective functionals, constraints, and the aggregated perturbation field
that forces the level set evolution.

Each problem family contributes one perturbation builder:

* ``perturbation_compliance``     -- any number of mean-compliance load cases
                                     sharing a volume constraint
* ``perturbation_mechanism``      -- output displacement vs. strain energy
                                     (spring-loaded mechanism) with a volume
                                     constraint
* ``perturbation_stress_volume``  -- material volume vs. strain energy with
                                     aggregated stress constraints

The objective-related part of every contribution is scaled by a per-objective
normalization constant so that its mean magnitude equals the objective's
weight; constraint pressure terms are not normalized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import elasticity as el
from .errors import DegenerateSensitivityError, InvalidArgument
from .fem import element_to_nodes, scalar_stiffness
from .mesh import Mesh

NORMALIZATION_FLOOR = 1e-12

OBJECTIVE_KINDS = ("mean_compliance", "volume", "strain_energy", "output_displacement")
CONSTRAINT_KINDS = ("volume_fraction", "stress_pnorm")


@dataclass
class ObjectiveSpec:
    kind: str
    tag: str = ""
    j_star: float | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidArgument(f"unknown objective kind '{self.kind}'")

    def capture_reference(self, value: float) -> None:
        """Freeze J* from the initial design; tiny values fall back to 1."""
        if abs(value) < 1e-12:
            warnings.warn(f"initial {self.kind} value {value:.3e} is too small "
                          "to normalize by; using 1")
            self.j_star = 1.0
        else:
            self.j_star = float(value)


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str
    limit: float
    multiplier: float = 0.0
    penalty: float = 10.0
    p: float | None = None
    yield_stress: float | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise InvalidArgument(f"unknown constraint kind '{self.kind}'")
        if self.multiplier < 0.0:
            raise InvalidArgument("multiplier must be non-negative")
        if self.penalty <= 0.0:
            raise InvalidArgument("penalty must be positive")


def volume_integral(mesh: Mesh, theta_e: np.ndarray, mask=None) -> float:
    areas = mesh.element_areas
    if mask is not None:
        return float(np.sum(theta_e[mask] * areas[mask]))
    return float(np.sum(theta_e * areas))


def strain_energy(mesh: Mesh, mat: el.MaterialParams, u: np.ndarray,
                  tau_eff_e: np.ndarray) -> float:
    density = el.mutual_energy_density(mesh, mat, u, u)
    return float(0.5 * np.sum(tau_eff_e * density * mesh.element_areas))


def eval_objective(spec: ObjectiveSpec, *, mesh=None, mat=None, u=None,
                   theta_e=None, tau_eff_e=None, load_vector=None,
                   mask=None) -> float:
    """Evaluate one objective functional at the current state."""
    if spec.kind == "volume":
        return volume_integral(mesh, theta_e, mask)
    if spec.kind == "mean_compliance":
        if load_vector is None:
            raise InvalidArgument("mean compliance needs the traction load vector")
        return float(load_vector @ u)
    if spec.kind == "output_displacement":
        if load_vector is None:
            raise InvalidArgument("output displacement needs the direction boundary vector")
        return -float(load_vector @ u)
    return strain_energy(mesh, mat, u, tau_eff_e)


def eval_constraint(spec: ConstraintSpec, *, volume=None, stress_agg=None,
                    volume_ref: float) -> float:
    """Constraint value G; feasible iff G <= 0."""
    if spec.kind == "volume_fraction":
        return volume / volume_ref - spec.limit
    return stress_agg / volume_ref - spec.limit


def update_multiplier(spec: ConstraintSpec, g: float) -> ConstraintSpec:
    """Projected augmented-Lagrangian update, once per outer iteration."""
    return replace(spec, multiplier=max(0.0, spec.multiplier + spec.penalty * g))


def normalize(field_e: np.ndarray, w_alpha: float, volume_ref: float,
              areas: np.ndarray) -> float:
    """Mean-absolute-sensitivity scale (1 / (w V0)) * integral |field|, floored."""
    if w_alpha <= 0.0:
        raise InvalidArgument("objective weight must be positive")
    c = float(np.sum(np.abs(field_e) * areas)) / (w_alpha * volume_ref)
    return max(c, NORMALIZATION_FLOOR)


@dataclass
class PerturbationResult:
    """Per-objective contributions and their aggregate, on elements and nodes."""

    f_alpha_elem: list
    c_norm: tuple
    f_alpha: list
    total_elem: np.ndarray
    total: np.ndarray

    @classmethod
    def from_elements(cls, mesh: Mesh, contributions, c_norm):
        total_e = np.sum(contributions, axis=0)
        if not np.all(np.isfinite(total_e)):
            raise DegenerateSensitivityError("perturbation field is non-finite")
        return cls(f_alpha_elem=list(contributions), c_norm=tuple(c_norm),
                   f_alpha=[element_to_nodes(mesh, f) for f in contributions],
                   total_elem=total_e, total=element_to_nodes(mesh, total_e))


def _masked_dtau(theta_e, mat, mask):
    dtau = el.ersatz_dtau(theta_e, mat)
    if mask is not None:
        dtau = np.where(mask, dtau, 0.0)
    return dtau


def _masked_pressure(value, mesh, mask):
    """Constraint pressure field; zero on non-design elements."""
    if mask is None:
        return np.full(mesh.num_triangles, value)
    return np.where(mask, value, 0.0)


def perturbation_compliance(mesh: Mesh, mat: el.MaterialParams, theta_e,
                            states, adjoints, multiplier: float,
                            volume_ref: float, w, mask=None,
                            c_override=None) -> PerturbationResult:
    """Contributions lambda/(m V0) - (1/C_a) dtau * C eps(u_a) : eps(v_a).

    The adjoints already carry their w_a / J*_a scaling. The shared volume
    multiplier is split evenly over the m load cases.
    """
    m = len(states)
    dtau = _masked_dtau(theta_e, mat, mask)
    pressure = _masked_pressure(multiplier / (m * volume_ref), mesh, mask)
    contributions, c_norm = [], []
    for alpha, (u, v) in enumerate(zip(states, adjoints)):
        sens = dtau * el.mutual_energy_density(mesh, mat, u, v)
        c = (normalize(sens, w[alpha], volume_ref, mesh.element_areas)
             if c_override is None else c_override[alpha])
        contributions.append(pressure - sens / c)
        c_norm.append(c)
    return PerturbationResult.from_elements(mesh, contributions, c_norm)


def perturbation_mechanism(mesh: Mesh, mat: el.MaterialParams, theta_e,
                           u, v_out, v_energy, multiplier: float,
                           volume_ref: float, w, j_energy_star: float,
                           mask=None, c_override=None) -> PerturbationResult:
    """Output-displacement and strain-energy contributions of the mechanism
    problem; the energy objective adds its explicit self-term
    (w2 / 2 J*2) dtau * C eps(u) : eps(u)."""
    dtau = _masked_dtau(theta_e, mat, mask)
    pressure = _masked_pressure(multiplier / (2.0 * volume_ref), mesh, mask)

    sens1 = dtau * el.mutual_energy_density(mesh, mat, u, v_out)
    sens2_adj = dtau * el.mutual_energy_density(mesh, mat, u, v_energy)
    self2 = (w[1] / (2.0 * j_energy_star)) * dtau * el.mutual_energy_density(mesh, mat, u, u)
    if c_override is None:
        # scale by the full objective-related field; with stiff boundary
        # springs the governing-equation part alone can be orders of
        # magnitude below the explicit energy term
        c1 = normalize(sens1, w[0], volume_ref, mesh.element_areas)
        c2 = normalize(self2 - sens2_adj, w[1], volume_ref, mesh.element_areas)
    else:
        c1, c2 = c_override
    f1 = pressure - sens1 / c1
    f2 = pressure + (self2 - sens2_adj) / c2
    return PerturbationResult.from_elements(mesh, [f1, f2], (c1, c2))


def perturbation_stress_volume(mesh: Mesh, mat: el.MaterialParams, theta_e,
                               tau_e, states, adjoints, multipliers,
                               volume_ref: float, w, j_star, p: float,
                               yield_stress: float, mask=None,
                               c_override=None) -> PerturbationResult:
    """Volume and strain-energy contributions with per-case aggregated
    stress constraints; the constraint part is

        (lambda_a / (p V0)) * S^(1/p - 1) * (vm/f_y)^p * dtau.
    """
    dtau = _masked_dtau(theta_e, mat, mask)
    areas = mesh.element_areas
    stress = {}  # (vm/f_y)^p and its tau-weighted integral, per distinct state
    contributions, c_norm = [], []
    for alpha, (u, v) in enumerate(zip(states, adjoints)):
        stress_term = np.zeros(mesh.num_triangles)
        if multipliers[alpha] != 0.0:
            if id(u) not in stress:
                ratio_p = (el.von_mises(mesh, u, mat) / yield_stress) ** p
                stress[id(u)] = ratio_p, float(np.sum(ratio_p * tau_e * areas))
            ratio_p, agg_int = stress[id(u)]
            if agg_int > 0.0:
                stress_term = (multipliers[alpha] / (p * volume_ref)
                               * agg_int ** (1.0 / p - 1.0) * ratio_p * dtau)
        if alpha == 0:
            obj_term = np.full(mesh.num_triangles, w[0] / j_star[0])
            if mask is not None:
                obj_term = np.where(mask, obj_term, 0.0)
        else:
            obj_term = (w[1] / (2.0 * j_star[1])) * dtau * el.mutual_energy_density(mesh, mat, u, u)
        sens_adj = dtau * el.mutual_energy_density(mesh, mat, u, v)
        c = (normalize(sens_adj - obj_term, w[alpha], volume_ref, areas)
             if c_override is None else c_override[alpha])
        contributions.append(stress_term + (obj_term - sens_adj) / c)
        c_norm.append(c)
    return PerturbationResult.from_elements(mesh, contributions, c_norm)


# ---------------------------------------------------------------------------
# Helmholtz regularization with arsinh amplitude compression

def helmholtz_operator(mesh: Mesh, eta: float):
    """LU factors of eta * K + M_L, the filter's left-hand side."""
    a = scalar_stiffness(mesh, eta * np.eye(2)).tolil()
    a.setdiag(a.diagonal() + mesh.node_areas)
    return spla.splu(a.tocsc())


def helmholtz_filter(forcing: np.ndarray, eta: float, gamma: float,
                     mesh: Mesh, operator=None) -> np.ndarray:
    """Solve (eta * K + M_L) F_bar = M_L * arsinh(gamma F) / gamma.

    The lumped mass matrix keeps the discrete maximum principle, so the
    output max-norm never exceeds arsinh(gamma |F|_max) / gamma. With
    eta = 0 this reduces to the pointwise scaled field. ``operator`` must
    come from ``helmholtz_operator(mesh, eta)``; without one, it is built
    for this call.
    """
    if eta < 0.0:
        raise InvalidArgument("filter length parameter must be non-negative")
    if gamma <= 0.0:
        raise InvalidArgument("scaling parameter must be positive")
    scaled = np.arcsinh(gamma * np.asarray(forcing, dtype=float)) / gamma
    if eta == 0.0:
        return scaled
    if operator is None:
        operator = helmholtz_operator(mesh, eta)
    return operator.solve(mesh.node_areas * scaled)
