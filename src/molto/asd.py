"""Outer loop: adaptive simplex decomposition of the weight space.

Candidates are vertices of a simplicial complex over the reference weights;
edge lengths are measured between normalized objective vectors. Simplices
whose longest edge exceeds the tolerance are refined by emitting the weight
midpoints of their edges. The refinement stops once the mean edge length
drops below the tolerance or the level cap is reached; the final register is
thinned by a distance tolerance and filtered for Pareto efficiency.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, SolverFailure
from .optimizer import RunConfig, SolutionCandidate, run_candidate

WEIGHT_DEDUP_TOL = 1e-9


def same_weight(a, b):
    """Whether reference weights agree to WEIGHT_DEDUP_TOL in every
    component, so they name the same candidate; broadcast over rows, so one
    weight is asked against a whole (n, m) array at once."""
    return np.all(np.abs(np.subtract(a, b)) <= WEIGHT_DEDUP_TOL, axis=-1)


def dominates(a, b):
    """Componentwise a <= b with at least one strict inequality; broadcast
    over rows like same_weight."""
    return np.all(np.less_equal(a, b), axis=-1) & np.any(np.less(a, b), axis=-1)


@dataclass
class SolutionRegister:
    """Stored candidates; row k of the (n, m) weight and objective arrays
    holds candidate k's reference weight and objective vector."""

    candidates: list = field(default_factory=list)
    weights: np.ndarray = field(init=False, default_factory=lambda: np.empty((0, 0)))
    objectives: np.ndarray = field(init=False, default_factory=lambda: np.empty((0, 0)))

    def __len__(self):
        return len(self.candidates)

    def add(self, candidate: SolutionCandidate) -> None:
        w, j = candidate.w_star, candidate.objectives
        held = self.weights.reshape(-1, len(w))
        if same_weight(w, held).any():
            raise InvalidArgument("duplicate reference weight in register")
        self.candidates.append(candidate)
        self.weights = np.vstack([held, w])
        self.objectives = np.vstack([self.objectives.reshape(-1, len(j)), j])


def normalize_objectives(objectives: np.ndarray) -> np.ndarray:
    """Min-max rescaling per objective; flat objectives collapse to zero."""
    obj = np.asarray(objectives, dtype=float)
    lo, hi = obj.min(axis=0), obj.max(axis=0)
    span = hi - lo
    out = np.zeros_like(obj)
    ok = span > 0.0
    out[:, ok] = (obj[:, ok] - lo[ok]) / span[ok]
    return out


@dataclass
class SimplexComplex:
    simplices: np.ndarray      # (S, m) candidate indices, one simplex per row
    sides: np.ndarray          # (S, P) row of ``edges`` of each vertex pair
    edges: np.ndarray          # (E, 2) unique index pairs, sorted
    edge_lengths: np.ndarray   # normalized objective-space lengths


def build_complex(register: SolutionRegister, m: int) -> SimplexComplex:
    """Path graph for two objectives; Delaunay over the first m-1 weight
    coordinates otherwise (lexicographic fan fallback on degeneracy)."""
    n = len(register)
    if n < m:
        raise InvalidArgument(f"need at least {m} candidates, have {n}")
    wpts = register.weights
    if m == 2:
        order = np.argsort(wpts[:, 0], kind="stable")
        verts = np.column_stack([order[:-1], order[1:]])
    else:
        # qhull is loaded only here, so a bi-objective sweep never imports it
        from scipy.spatial import Delaunay, QhullError
        chart = wpts[:, : m - 1]
        try:
            verts = Delaunay(chart).simplices
        except QhullError:
            warnings.warn("degenerate weight set; falling back to a "
                          "lexicographic fan triangulation")
            order = np.lexsort(chart.T[::-1])
            verts = np.column_stack([np.full(n - 2, order[0]), order[1:-1], order[2:]])

    slots = np.transpose(np.triu_indices(verts.shape[1], 1))  # (P, 2) vertex pairs
    ends = np.sort(verts.astype(np.int64), axis=1)[:, slots]
    # the inverse's shape varies across numpy versions when axis is given
    edges, sides = np.unique(ends.reshape(-1, 2), axis=0, return_inverse=True)
    coords = normalize_objectives(register.objectives)
    lengths = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)
    return SimplexComplex(simplices=verts, sides=sides.reshape(ends.shape[:2]),
                          edges=edges, edge_lengths=lengths)


def mean_edge_length(complex_: SimplexComplex):
    """Mean and population standard deviation over unique edges."""
    if complex_.edges.shape[0] == 0:
        raise InvalidArgument("complex has no edges")
    lengths = complex_.edge_lengths
    return float(lengths.mean()), float(lengths.std())


def mark_and_refine(complex_: SimplexComplex, register: SolutionRegister,
                    edge_tolerance: float, known=()) -> list:
    """New reference weights: the edge midpoints of every poor simplex (one
    whose longest edge exceeds the tolerance), in simplex order. A midpoint
    is dropped if it names a weight already held, in ``known`` (weights run
    before, such as failures) or emitted before it."""
    verts = complex_.simplices
    first, second = np.triu_indices(verts.shape[1], 1)
    a, b = verts[:, first], verts[:, second]
    poor = complex_.edge_lengths[complex_.sides].max(axis=1) > edge_tolerance

    held = register.weights
    seen = np.vstack([held, np.reshape(known, (-1, held.shape[1]))])
    emitted = []
    for mid in (0.5 * (held[a[poor]] + held[b[poor]])).reshape(-1, held.shape[1]):
        if not same_weight(mid, seen).any():
            emitted.append(mid)
            seen = np.vstack([seen, mid])
    return emitted


def pareto_filter(candidates) -> list:
    """Candidates not strictly dominated by any other (duplicates survive)."""
    objs = np.array([c.objectives for c in candidates], dtype=float)
    return [c for c, j in zip(candidates, objs) if not dominates(objs, j).any()]


def dedup(candidates, tol: float) -> list:
    """Greedy pass keeping candidates whose normalized objective distance to
    every kept candidate exceeds tol."""
    if tol < 0.0:
        raise InvalidArgument("dedup tolerance must be non-negative")
    if not candidates:
        return []
    coords = normalize_objectives(np.array([c.objectives for c in candidates]))
    kept = []
    for i, x in enumerate(coords):
        if np.all(np.linalg.norm(coords[kept] - x, axis=1) > tol):
            kept.append(i)
    return [candidates[i] for i in kept]


@dataclass
class ASDConfig:
    edge_tolerance: float = 0.04
    max_levels: int = 3
    dedup_tolerance: float = 1e-3
    jobs: int = 1
    run: RunConfig = field(default_factory=RunConfig)


@dataclass
class ASDResult:
    register: SolutionRegister
    pareto: list
    history: list           # (level, candidate count, mean, std)
    failures: list = field(default_factory=list)


def _run_batch(problem, weights_batch, cfg: ASDConfig) -> list:
    if cfg.jobs > 1 and len(weights_batch) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            # map cancels the queued runs when its wait is interrupted
            return list(pool.map(lambda w: run_candidate(problem, w, cfg.run),
                                 weights_batch))
    return [run_candidate(problem, w, cfg.run) for w in weights_batch]


def run_asd(problem, initial_weights, cfg: ASDConfig) -> ASDResult:
    """Refine the weight discretization until the mean normalized edge length
    of the objective-space complex drops below the tolerance."""
    m = problem.num_objectives
    pending = [np.asarray(w, dtype=float) for w in initial_weights]
    if len(pending) < m:
        raise InvalidArgument("not enough initial reference weights")

    register = SolutionRegister()
    history, failures = [], []
    level = 0
    while pending:
        batch = _run_batch(problem, pending, cfg)
        for cand in batch:
            if cand.failed:
                failures.append(cand)
            else:
                register.add(cand)
        if len(register) == 0:
            raise SolverFailure(f"all {len(batch)} candidates failed at level 0; "
                               f"first: {batch[0].error}")
        if len(register) < m:
            break
        complex_ = build_complex(register, m)
        mean, std = mean_edge_length(complex_)
        history.append((level, len(register), mean, std))
        if mean <= cfg.edge_tolerance or level >= cfg.max_levels:
            break
        # candidate runs are deterministic: a weight that failed is known too,
        # and a level that emits nothing new ends the refinement
        pending = mark_and_refine(complex_, register, cfg.edge_tolerance,
                                  known=[f.w_star for f in failures])
        level += 1

    final = pareto_filter(dedup(register.candidates, cfg.dedup_tolerance))
    return ASDResult(register=register, pareto=final, history=history,
                     failures=failures)
