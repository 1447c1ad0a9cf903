"""Benchmark problem definitions.

Each FEM problem owns its mesh, boundary tagging, load cases (a traction
and its supports each) and boundary springs, and the wiring between
elasticity solves, adjoint solves, and the perturbation builders. The
``FEMProblem`` constructor owns the design domain: the design mask, the
reference volume (its area) and the level set anchors. All of them expose
the same small interface consumed by the optimizer, with objectives,
constraint values and multipliers as plain arrays:

    solve_states(theta_e) -> StateBundle
    objectives(bundle) -> J
    constraint_values(bundle) -> G  (feasible iff G <= 0)
    solve_adjoints(bundle, w, j_star, multipliers) -> adjoint strains
    perturbation(bundle, adjoints, w, j_star, multipliers,
                 c_override=None) -> sensitivity.PerturbationResult

plus theta_elements / wave_factors / filter_forcing. Only
``solve_states`` sees the design's element material fraction theta; the
``StateBundle`` it returns carries everything derived from it once, which
the other four methods read. ``FEMProblem`` derives tau, dtau and one state,
factorization and strain field per load case; a family's ``solve_states``
adds only its own fields. An adjoint enters the perturbation only through
its strains, so ``solve_adjoints`` returns those, one field per objective.
The multipliers are one per entry of G; the optimizer owns them and J*.

Operators that depend only on the problem (stiffness patterns, the level set
step operator, Helmholtz factors) are built on first use and shared
by concurrent candidates.

The surrogate problem replaces the whole inner loop by an analytic mapping
from reference weights to objective values; it exists so the outer
refinement loop can be exercised and tested without any FEM work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import elasticity as el
from . import levelset
from . import sensitivity as sens
from .errors import InvalidArgument
from .fem import element_means
from .mesh import Mesh, build_lshape_mesh, build_rect_mesh, tag_boundary


@dataclass
class StateBundle:
    """One design, its states and their element fields, derived once."""

    theta: np.ndarray  # element material fraction
    tau: np.ndarray  # relative stiffness, 1 off the design domain
    dtau: np.ndarray  # its derivative, 0 off the design domain
    states: list  # displacement per load case
    facts: list  # factorization per load case (shared objects allowed)
    strains: list  # element strains per load case
    stress: el.StressAggregate | None = None  # stress family only
    density: np.ndarray | None = None  # eps(u):C:eps(u); mechanism and stress


@dataclass
class LoadCase:
    """A constant traction on a tagged boundary, held by its supports."""

    traction_tag: str
    traction: tuple
    supports: tuple


class FEMProblem:
    """Shared plumbing for the concrete benchmark problems: a mesh, load
    cases, the boundary springs every case shares and the design domain,
    ``design_mask`` (bool per element; None = every element). The level set
    is held at +1 on every traction node, then at the (nodes, value) pairs
    of ``phi_fixed``; the first value listed for a node wins."""

    def __init__(self, mesh: Mesh, mat: el.MaterialParams, cases, springs=(),
                 design_mask=None, phi_fixed=()):
        if not cases:
            raise InvalidArgument("at least one load case required")
        self.mesh = mesh
        self.mat = mat
        self.cases = list(cases)
        self.springs = tuple(springs)
        self.traction_vectors = [el.boundary_vector(mesh, c.traction_tag, c.traction)
                                 for c in self.cases]
        self.design_mask = design_mask
        areas = mesh.element_areas if design_mask is None else mesh.element_areas[design_mask]
        self.volume_ref = float(areas.sum())
        pairs = [(mesh.nodes_with_tag(c.traction_tag), 1.0)
                 for c in self.cases] + list(phi_fixed)
        nodes = np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _ in pairs])
        values = np.concatenate([np.full(len(idx), float(val)) for idx, val in pairs])
        nodes, keep = np.unique(nodes, return_index=True)
        self.phi_fixed = (nodes, values[keep])
        self._operators = {}
        self._operators_lock = threading.Lock()

    # -- precomputed operators ------------------------------------------
    def _operator(self, key, build):
        """The operator stored under ``key``, built by ``build()`` on first
        use rather than with the problem, and under a lock, so concurrent
        candidates share a single build."""
        with self._operators_lock:
            op = self._operators.get(key)
            if op is None:
                op = self._operators[key] = build()
        return op

    def _solve_cases(self, tau):
        """The state and factorization of every load case; cases with equal
        supports share one assembly, one factorization and one blocked
        solve."""
        groups = {}
        for k, case in enumerate(self.cases):
            groups.setdefault(case.supports, []).append(k)
        states, facts = [None] * len(self.cases), [None] * len(self.cases)
        for supports, members in groups.items():
            pattern = self._operator(
                ("stiffness", supports),
                lambda: el.StiffnessPattern(self.mesh, self.mat, self.springs, supports))
            fact = el.FactorizedSystem(el.assemble_state(
                self.mesh, tau, self.mat, self.springs, supports, pattern=pattern))
            solved = fact.solve(np.column_stack([self.traction_vectors[k] for k in members]))
            for k, u in zip(members, solved.T):
                states[k], facts[k] = u, fact
        return states, facts

    def _states(self, theta_e) -> StateBundle:
        """The design's tau and dtau, held solid (1 and 0) off the design
        domain, and the state, factorization and strains of every load case."""
        tau = el.ersatz_tau(theta_e, self.mat)
        dtau = el.ersatz_dtau(theta_e, self.mat)
        if self.design_mask is not None:
            tau = np.where(self.design_mask, tau, 1.0)
            dtau = np.where(self.design_mask, dtau, 0.0)
        states, facts = self._solve_cases(tau)
        return StateBundle(theta_e, tau, dtau, states=states, facts=facts,
                           strains=[el.element_strains(self.mesh, u) for u in states])

    def _volume_constraint(self, bundle, fraction) -> np.ndarray:
        """G = V(theta) / V0 - fraction, V taken over the design domain."""
        vol = sens.volume_integral(self.mesh, bundle.theta, self.design_mask)
        return np.array([vol / self.volume_ref - fraction])

    def wave_factors(self, wave_speed, damping, ds) -> levelset.WaveFactors:
        """The level set step operator, with the level set held at the
        problem's prescribed values on its prescribed nodes."""
        return self._operator(
            ("wave_factors", float(wave_speed), float(damping), float(ds)),
            lambda: levelset.factorize(levelset.assemble_wave(self.mesh, wave_speed),
                                       damping, ds, self.phi_fixed))

    def filter_forcing(self, forcing: np.ndarray) -> np.ndarray:
        """The nodal forcing the level set step sees; unfiltered here."""
        return forcing

    # -- design field handling ------------------------------------------
    def theta_elements(self, phi: np.ndarray, width: float) -> np.ndarray:
        return element_means(self.mesh, el.heaviside(phi, width))

    def initial_phi(self) -> np.ndarray:
        return np.ones(self.mesh.num_nodes)


# ---------------------------------------------------------------------------
# mean-compliance family (simply supported girder, clamped girder, ...)

class ComplianceProblem(FEMProblem):
    """Any number of mean-compliance load cases with a shared volume budget."""

    def __init__(self, mesh, mat, cases, volume_fraction):
        super().__init__(mesh, mat, cases)
        self.volume_fraction = float(volume_fraction)

    @property
    def num_objectives(self) -> int:
        return len(self.cases)

    def solve_states(self, theta_e) -> StateBundle:
        return self._states(theta_e)

    def objectives(self, bundle) -> np.ndarray:
        return np.array([tvec @ u for u, tvec in zip(bundle.states,
                                                     self.traction_vectors)])

    def constraint_values(self, bundle) -> np.ndarray:
        return self._volume_constraint(bundle, self.volume_fraction)

    def solve_adjoints(self, bundle, w, j_star, multipliers):
        # mean compliance is self-adjoint: v_a = (w_a / J*_a) u_a
        return [(w[a] / j_star[a]) * eps for a, eps in enumerate(bundle.strains)]

    def perturbation(self, bundle, adjoints, w, j_star, multipliers,
                     c_override=None):
        return sens.perturbation_compliance(
            self.mesh, self.mat, bundle.dtau, bundle.strains, adjoints,
            multipliers[0], self.volume_ref, w,
            mask=self.design_mask, c_override=c_override)


def make_girder(nx=60, ny=30, traction=1.0, length=1.0, num_cases=2,
                volume_fraction=0.45,
                mat: el.MaterialParams | None = None) -> ComplianceProblem:
    """Simply supported girder: rollers on bottom corner patches, downward
    load patches on the top edge (two mirrored cases by default)."""
    mat = mat or el.MaterialParams()
    w, h = length, 0.5 * length
    mesh = build_rect_mesh(w, h, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.05 * w, 0.0), "roller_left")
    mesh = tag_boundary(mesh, (0.95 * w, 0.0), (w, 0.0), "roller_right")
    if num_cases == 1:
        patches = [(0.45 * w, 0.55 * w)]
    elif num_cases == 2:
        patches = [(0.2 * w, 0.3 * w), (0.7 * w, 0.8 * w)]
    else:
        raise InvalidArgument("girder supports one or two load cases")
    supports = (el.FixedBoundary("roller_left", "y"),
                el.FixedBoundary("roller_right", "y"),
                el.PointConstraint(mesh.nearest_node(0.0, 0.0), 0))
    cases = []
    for i, (x0, x1) in enumerate(patches, start=1):
        tag = f"traction_{i}"
        mesh = tag_boundary(mesh, (x0, h), (x1, h), tag)
        cases.append(LoadCase(tag, (0.0, -traction), supports))
    return ComplianceProblem(mesh, mat, cases, volume_fraction)


def make_clamped_tri(nx=60, ny=30, traction=1.0, length=1.0,
                     volume_fraction=0.45,
                     mat: el.MaterialParams | None = None) -> ComplianceProblem:
    """Clamped girder with three load cases under different loading and
    supporting conditions (tip bending, propped mid-span bending, axial pull)."""
    mat = mat or el.MaterialParams()
    w, h = length, 0.5 * length
    mesh = build_rect_mesh(w, h, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, h), "clamp")
    mesh = tag_boundary(mesh, (w, 0.2 * h), (w, 0.6 * h), "traction_1")
    mesh = tag_boundary(mesh, (0.45 * w, h), (0.55 * w, h), "traction_2")
    mesh = tag_boundary(mesh, (0.9 * w, 0.0), (w, 0.0), "prop")
    mesh = tag_boundary(mesh, (w, 0.8 * h), (w, h), "traction_3")
    clamp = el.FixedBoundary("clamp", "both")
    cases = [
        LoadCase("traction_1", (0.0, -traction), (clamp,)),
        LoadCase("traction_2", (0.0, -traction),
                 (clamp, el.FixedBoundary("prop", "y"))),
        LoadCase("traction_3", (traction, 0.0), (clamp,)),
    ]
    return ComplianceProblem(mesh, mat, cases, volume_fraction)


# ---------------------------------------------------------------------------
# compliant mechanism (gripper) family

class MechanismProblem(FEMProblem):
    """Output displacement vs. strain energy with boundary springs and a
    fixed solid block carrying the output face."""

    num_objectives = 2

    def __init__(self, mesh, mat, *, traction, spring_in, spring_out,
                 dir_in, dir_out, volume_fraction, solid_box):
        (x0, y0), (x1, y1) = solid_box
        cent = mesh.nodes[mesh.triangles].mean(axis=1)
        solid = ((cent[:, 0] >= x0) & (cent[:, 0] <= x1)
                 & (cent[:, 1] >= y0) & (cent[:, 1] <= y1))
        supports = (el.FixedBoundary("clamp", "both"),
                    el.FixedBoundary("symmetry", "y"))
        super().__init__(mesh, mat, [LoadCase("input", traction, supports)],
                         springs=(el.Spring("input", spring_in, dir_in),
                                  el.Spring("output", spring_out, dir_out)),
                         design_mask=~solid,
                         phi_fixed=[(np.unique(mesh.triangles[solid]), 1.0)])
        self.volume_fraction = float(volume_fraction)
        self.output_vector = el.boundary_vector(mesh, "output", dir_out)
        self._spring_matrix = el.spring_matrix(mesh, self.springs)

    def solve_states(self, theta_e) -> StateBundle:
        bundle = self._states(theta_e)
        eps = bundle.strains[0]
        bundle.density = el.mutual_energy_density(self.mat, eps, eps)
        return bundle

    def objectives(self, bundle) -> np.ndarray:
        energy = sens.strain_energy(self.mesh, bundle.density, bundle.tau)
        return np.array([-(self.output_vector @ bundle.states[0]), energy])

    def constraint_values(self, bundle) -> np.ndarray:
        return self._volume_constraint(bundle, self.volume_fraction)

    def solve_adjoints(self, bundle, w, j_star, multipliers):
        u, fact = bundle.states[0], bundle.facts[0]
        # strain-energy load is the elastic (spring-free) part of K times u,
        # read on the free rows, the only ones a solve reads
        free = fact.system.free_dofs
        bulk = np.zeros_like(u)
        bulk[free] = fact.system.matrix @ u[free] - (self._spring_matrix @ u)[free]
        loads = np.column_stack([-(w[0] / j_star[0]) * self.output_vector,
                                 (w[1] / j_star[1]) * bulk])
        return [el.element_strains(self.mesh, v) for v in fact.solve(loads).T]

    def perturbation(self, bundle, adjoints, w, j_star, multipliers,
                     c_override=None):
        return sens.perturbation_mechanism(
            self.mesh, self.mat, bundle.dtau, bundle.density, bundle.strains[0],
            adjoints, multipliers[0], self.volume_ref, w, j_star,
            mask=self.design_mask, c_override=c_override)


def make_gripper(nx=40, ny=20, traction=1.0, spring_in=1e5, spring_out=1e3,
                 dir_in=(1.0, 0.0), dir_out=(0.0, -1.0), volume_fraction=0.30,
                 mat: el.MaterialParams | None = None) -> MechanismProblem:
    """Half-model gripper: input push on the lower left edge, clamped upper
    left corner, symmetry rollers along the closed part of the bottom edge,
    and a fixed solid jaw tip above the output face."""
    mat = mat or el.MaterialParams()
    w, h = 1.0, 0.5
    mesh = build_rect_mesh(w, h, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.1 * h), "input")
    mesh = tag_boundary(mesh, (0.0, 0.9 * h), (0.0, h), "clamp")
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.7 * w, 0.0), "symmetry")
    mesh = tag_boundary(mesh, (0.95 * w, 0.0), (w, 0.0), "output")
    return MechanismProblem(
        mesh, mat, traction=(traction * dir_in[0], traction * dir_in[1]),
        spring_in=spring_in, spring_out=spring_out, dir_in=dir_in, dir_out=dir_out,
        volume_fraction=volume_fraction, solid_box=((0.95 * w, 0.0), (w, 0.1 * h)))


# ---------------------------------------------------------------------------
# stress-constrained volume / strain-energy family (L-bracket)

class StressVolumeProblem(FEMProblem):
    """Material volume vs. strain energy under aggregated stress limits,
    with the level set forcing Helmholtz-filtered."""
    num_objectives = 2

    def __init__(self, mesh, mat, *, traction, stress_exponent, yield_stress,
                 stress_limit, filter_eta=1e-4, filter_gamma=2.0):
        clamp = (el.FixedBoundary("clamp", "both"),)
        super().__init__(mesh, mat, [LoadCase("traction", traction, clamp)],
                         phi_fixed=[(mesh.nodes_with_tag("void_a"), -1.0),
                                    (mesh.nodes_with_tag("void_b"), -1.0)])
        self.stress_exponent = float(stress_exponent)
        self.yield_stress = float(yield_stress)
        self.stress_limit = float(stress_limit)
        self.filter_eta = float(filter_eta)
        self.filter_gamma = float(filter_gamma)

    def solve_states(self, theta_e) -> StateBundle:
        bundle = self._states(theta_e)
        eps = bundle.strains[0]
        bundle.stress = el.stress_aggregate(self.mesh, self.mat, eps, bundle.tau,
                                            self.stress_exponent, self.yield_stress)
        bundle.density = el.mutual_energy_density(self.mat, eps, eps)
        return bundle

    def objectives(self, bundle) -> np.ndarray:
        j1 = sens.volume_integral(self.mesh, bundle.theta)
        j2 = sens.strain_energy(self.mesh, bundle.density, bundle.tau)
        return np.array([j1, j2])

    def constraint_values(self, bundle) -> np.ndarray:
        # both constraints limit the same aggregate of the one state
        g = bundle.stress.value / self.volume_ref - self.stress_limit
        return np.array([g, g])

    def solve_adjoints(self, bundle, w, j_star, multipliers):
        """Both constraints differentiate the same aggregate of the one state,
        so by linearity each stress adjoint is lambda_a / V0 times one
        solution z of K z = dS/du, whose strains are taken once; z is not
        solved for while every lambda_a is zero."""
        eps = bundle.strains[0]
        eps_z = np.zeros_like(eps)
        if any(multipliers):
            eps_z = el.element_strains(self.mesh, bundle.facts[0].solve(
                el.deviator_adjoint_load(self.mesh, self.mat, bundle.stress,
                                         bundle.tau)))
        adjoints = [(lam / self.volume_ref) * eps_z for lam in multipliers]
        # the strain-energy objective is self-adjoint
        adjoints[1] = adjoints[1] + (w[1] / j_star[1]) * eps
        return adjoints

    def perturbation(self, bundle, adjoints, w, j_star, multipliers,
                     c_override=None):
        return sens.perturbation_stress_volume(
            self.mesh, self.mat, bundle.dtau, bundle.density, bundle.strains[0],
            adjoints, bundle.stress, multipliers, self.volume_ref, w, j_star,
            mask=self.design_mask, c_override=c_override)

    def filter_forcing(self, forcing):
        eta = self.filter_eta
        operator = None
        if eta > 0.0:
            operator = self._operator(
                "helmholtz", lambda: sens.helmholtz_operator(self.mesh, eta))
        return sens.helmholtz_filter(forcing, eta, self.filter_gamma, self.mesh,
                                     operator)


def make_lbracket(nx=40, outer=1.0, cut=0.6, traction=1.0,
                  stress_exponent=5.0, yield_stress=42.0, stress_limit=0.05,
                  filter_eta=1e-4, filter_gamma=2.0,
                  mat: el.MaterialParams | None = None) -> StressVolumeProblem:
    """L-bracket: clamped along the top edge, downward load near the top of
    the right edge, level set held at -1 along the re-entrant void walls."""
    mat = mat or el.MaterialParams()
    h = outer / nx
    mesh = build_lshape_mesh(outer, cut, h)
    leg = outer - cut
    mesh = tag_boundary(mesh, (0.0, outer), (leg, outer), "clamp")
    mesh = tag_boundary(mesh, (outer, max(0.0, leg - 0.125 * outer)), (outer, leg),
                        "traction")
    return StressVolumeProblem(mesh, mat, traction=(0.0, -traction),
                               stress_exponent=stress_exponent,
                               yield_stress=yield_stress,
                               stress_limit=stress_limit,
                               filter_eta=filter_eta, filter_gamma=filter_gamma)


# ---------------------------------------------------------------------------
# analytic surrogate (no FEM)

class SurrogateProblem:
    """Analytic mapping from reference weights to objective values."""

    def __init__(self, num_objectives: int):
        self.num_objectives = int(num_objectives)

    def evaluate(self, w_star) -> np.ndarray:
        j = convex_quadratic_map(np.asarray(w_star, dtype=float))
        if j.shape != (self.num_objectives,):
            raise InvalidArgument("reference weight has the wrong dimension")
        return j


def convex_quadratic_map(w: np.ndarray) -> np.ndarray:
    """Smooth convex frontier: J_a = (1 - w_a)^2 + 0.01."""
    return (1.0 - w) ** 2 + 0.01
