"""Inner loop: evolve one solution candidate for a fixed reference weight.

Per iteration the weights advance one oscillator step, the state problem is
solved when the design has changed, the adjoint problems are solved on the
current design, the multipliers are updated, and the aggregated perturbation
forces one level set step. The loop exits on a windowed stationarity test or
at the iteration cap.

The state bundle, factorizations included, is a deterministic function of
the element material fraction theta, so an iteration whose theta equals the
previous one bit for bit keeps the previous bundle, with unchanged results.
That happens while the level set sits on its clamp, as it does for the
first iterations from the solid start. A changed design drops the previous
bundle before the new one is derived, so one bundle, and one set of
factorizations, is alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import levelset, sensitivity, weights
from .errors import InvalidArgument, MoltoError
from .problems import SurrogateProblem


@dataclass
class RunConfig:
    """Every numerical knob of one candidate run; the configuration reads
    each key's default, and with it its type, from here."""

    max_iterations: int = 800
    window: int = 5
    tol_objective: float = 1e-4
    tol_constraint: float = 1e-3

    wave_speed: float = 0.2
    wave_damping: float = 0.1
    interface_width: float = 0.3
    step_size: float = 1.0

    weight_inertia: float = 0.5
    weight_damping: float = 6.0
    weight_stiffness: float = 10.0
    weight_clamp: float = 1e-3
    weight_ratio: float = 1.0

    multiplier_init: float = 0.0
    penalty: float = 0.05

    def __post_init__(self):
        if self.window < 2 or self.max_iterations < self.window:
            raise InvalidArgument("need max_iterations >= window >= 2")
        if min(self.tol_objective, self.tol_constraint) <= 0.0:
            raise InvalidArgument("tolerances must be positive")
        if self.multiplier_init < 0.0:
            raise InvalidArgument("multiplier_init must be non-negative")
        if self.penalty <= 0.0:
            raise InvalidArgument("penalty must be positive")


@dataclass
class SolutionCandidate:
    """Outcome of one candidate run (reference weight -> objective vector)."""

    w_star: tuple
    w_final: tuple
    objectives: tuple
    normalized: tuple
    feasible: tuple
    converged: bool
    iterations: int
    phi: np.ndarray | None = None
    history: list = field(default_factory=list)
    weight_clamps: int = 0
    levelset_clamps: int = 0
    failed: bool = False
    error: str = ""


def stationarity(j_history, g, window: int, tol_objective: float,
                 tol_constraint: float) -> bool:
    """Windowed objective stability gated by constraint feasibility."""
    if len(j_history) < window:
        return False
    block = np.asarray(j_history[-window:], dtype=float)
    scale = np.max(np.abs(block), axis=0)
    scale[scale == 0.0] = 1.0
    rel = (block.max(axis=0) - block.min(axis=0)) / scale
    feasible = bool(np.all(np.asarray(g) <= tol_constraint))
    return bool(rel.max() <= tol_objective) and feasible


def _surrogate_candidate(problem, w_star) -> SolutionCandidate:
    j = problem.evaluate(w_star)
    m = problem.num_objectives
    return SolutionCandidate(
        w_star=tuple(np.asarray(w_star, dtype=float)),
        w_final=tuple(np.asarray(w_star, dtype=float)),
        objectives=tuple(j), normalized=tuple(j),
        feasible=(True,) * m, converged=True, iterations=0)


def run_candidate(problem, w_star, cfg: RunConfig) -> SolutionCandidate:
    """Run the coupled evolution for one reference weight; numerical failures
    are captured in the candidate instead of aborting a sweep."""
    try:
        if isinstance(problem, SurrogateProblem):
            return _surrogate_candidate(problem, w_star)
        return _run_fem_candidate(problem, w_star, cfg)
    except (MoltoError, RuntimeError, ArithmeticError) as exc:  # singular factors, overflow
        m = problem.num_objectives
        return SolutionCandidate(
            w_star=tuple(np.asarray(w_star, dtype=float)), w_final=(float("nan"),) * m,
            objectives=(float("nan"),) * m, normalized=(float("nan"),) * m,
            feasible=(False,) * m, converged=False, iterations=0,
            failed=True, error=f"{type(exc).__name__}: {exc}")


def _run_fem_candidate(problem, w_star, cfg: RunConfig) -> SolutionCandidate:
    wstate = weights.make_state(
        w_star, inertia=cfg.weight_inertia, damping=cfg.weight_damping,
        stiffness=cfg.weight_stiffness, clamp_margin=cfg.weight_clamp,
        start_ratio=cfg.weight_ratio, ds=cfg.step_size)
    phi0 = problem.initial_phi()
    lstate = levelset.initialize(
        problem.mesh, phi0, phi0.copy(),
        problem.wave_factors(cfg.wave_speed, cfg.wave_damping, cfg.step_size),
        cfg.interface_width)

    j_history: list[np.ndarray] = []
    j_star = lam = None
    history_rows = []
    converged = False
    bundle = None

    for s in range(cfg.max_iterations + 1):
        if s > 0:
            j_prev = j_history[-2] if len(j_history) >= 2 else None
            fq = weights.forcing(wstate.q, wstate.q_prev, j_history[-1], j_prev,
                                 j_star, ds=cfg.step_size)
            weights.step(wstate, fq)
        w_now = wstate.weights

        theta = problem.theta_elements(lstate.phi, lstate.width)
        if bundle is not None and not np.array_equal(theta, bundle.theta):
            bundle = None   # free its factorizations before new ones are made
        if bundle is None:
            bundle = problem.solve_states(theta)
        j_now = problem.objectives(bundle)
        g_now = problem.constraint_values(bundle)
        if j_star is None:
            j_star = sensitivity.reference_values(j_now)
            lam = np.full(len(g_now), cfg.multiplier_init)
        lam = sensitivity.update_multipliers(lam, g_now, cfg.penalty)

        adjoints = problem.solve_adjoints(bundle, w_now, j_star, lam)
        pert = problem.perturbation(bundle, adjoints, w_now, j_star, lam)
        levelset.step(lstate, problem.filter_forcing(pert.total))

        j_history.append(j_now)
        history_rows.append((s, tuple(j_now), tuple(g_now), tuple(w_now)))
        if s > 0 and stationarity(j_history, g_now, cfg.window,
                                  cfg.tol_objective, cfg.tol_constraint):
            converged = True
            break

    return SolutionCandidate(
        w_star=tuple(np.asarray(w_star, dtype=float)),
        w_final=tuple(w_now),
        objectives=tuple(j_now),
        normalized=tuple(j_now / j_star),
        feasible=tuple(bool(g <= cfg.tol_constraint) for g in g_now),
        converged=converged, iterations=s, phi=lstate.phi.copy(),
        history=history_rows, weight_clamps=wstate.clamp_events,
        levelset_clamps=lstate.clamp_events)
