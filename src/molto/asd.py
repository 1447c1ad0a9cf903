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
from scipy.spatial import Delaunay, QhullError

from .errors import InvalidArgument
from .optimizer import RunConfig, SolutionCandidate, run_candidate

WEIGHT_DEDUP_TOL = 1e-9


def same_weight(a, b) -> bool:
    """Whether two reference weights agree to WEIGHT_DEDUP_TOL in every
    component, so they name the same candidate."""
    return np.allclose(a, b, rtol=0.0, atol=WEIGHT_DEDUP_TOL)


@dataclass
class SolutionRegister:
    """Stored candidates plus per-objective normalization bounds."""

    candidates: list = field(default_factory=list)

    def __len__(self):
        return len(self.candidates)

    def add(self, candidate: SolutionCandidate) -> None:
        for existing in self.candidates:
            if same_weight(existing.w_star, candidate.w_star):
                raise InvalidArgument("duplicate reference weight in register")
        self.candidates.append(candidate)

    def weight_array(self) -> np.ndarray:
        return np.array([c.w_star for c in self.candidates])

    def objective_array(self) -> np.ndarray:
        return np.array([c.objectives for c in self.candidates])


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
    simplices: list            # tuples of candidate indices, m vertices each
    edges: np.ndarray          # (E, 2) unique index pairs, sorted
    edge_lengths: np.ndarray   # normalized objective-space lengths


def _fan_triangulation(order: np.ndarray, m: int) -> list:
    return [tuple(int(order[k]) for k in (0, i, i + 1))
            for i in range(1, len(order) - 1)]


def build_complex(register: SolutionRegister, m: int) -> SimplexComplex:
    """Path graph for two objectives; Delaunay over the first m-1 weight
    coordinates otherwise (lexicographic fan fallback on degeneracy)."""
    n = len(register)
    if n < m:
        raise InvalidArgument(f"need at least {m} candidates, have {n}")
    wpts = register.weight_array()
    if m == 2:
        order = np.argsort(wpts[:, 0], kind="stable")
        simplices = [(int(order[i]), int(order[i + 1])) for i in range(n - 1)]
    else:
        chart = wpts[:, : m - 1]
        try:
            tri = Delaunay(chart)
            simplices = [tuple(int(v) for v in s) for s in tri.simplices]
        except QhullError:
            warnings.warn("degenerate weight set; falling back to a "
                          "lexicographic fan triangulation")
            order = np.lexsort(chart.T[::-1])
            simplices = _fan_triangulation(order, m)

    pairs = set()
    for simplex in simplices:
        verts = sorted(simplex)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                pairs.add((verts[i], verts[j]))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    coords = normalize_objectives(register.objective_array())
    lengths = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)
    return SimplexComplex(simplices=simplices, edges=edges, edge_lengths=lengths)


def mean_edge_length(complex_: SimplexComplex):
    """Mean and population standard deviation over unique edges."""
    if complex_.edges.shape[0] == 0:
        raise InvalidArgument("complex has no edges")
    lengths = complex_.edge_lengths
    return float(lengths.mean()), float(lengths.std())


def mark_and_refine(complex_: SimplexComplex, register: SolutionRegister,
                    edge_tolerance: float) -> list:
    """New reference weights: edge midpoints of every poor simplex."""
    length = {(int(a), int(b)): float(l)
              for (a, b), l in zip(complex_.edges, complex_.edge_lengths)}
    poor = []
    for simplex in complex_.simplices:
        longest = max(length[min(i, j), max(i, j)]
                      for k, i in enumerate(simplex) for j in simplex[k + 1:])
        poor.append(longest > edge_tolerance)

    existing = [np.asarray(c.w_star) for c in register.candidates]
    emitted: list[np.ndarray] = []
    for simplex, is_poor in zip(complex_.simplices, poor):
        if not is_poor:
            continue
        for k, i in enumerate(simplex):
            for j in simplex[k + 1:]:
                mid = 0.5 * (np.asarray(register.candidates[i].w_star)
                             + np.asarray(register.candidates[j].w_star))
                known = existing + emitted
                if not any(same_weight(mid, other) for other in known):
                    emitted.append(mid)
    return emitted


def dominates(a, b) -> bool:
    """Componentwise a <= b with at least one strict inequality."""
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_filter(candidates) -> list:
    """Candidates not strictly dominated by any other (duplicates survive)."""
    objs = [np.asarray(c.objectives) for c in candidates]
    kept = []
    for i, c in enumerate(candidates):
        if not any(dominates(objs[j], objs[i]) for j in range(len(candidates)) if j != i):
            kept.append(c)
    return kept


def dedup(candidates, tol: float) -> list:
    """Greedy pass keeping candidates whose normalized objective distance to
    every kept candidate exceeds tol."""
    if tol < 0.0:
        raise InvalidArgument("dedup tolerance must be non-negative")
    if not candidates:
        return []
    coords = normalize_objectives(np.array([c.objectives for c in candidates]))
    kept, kept_coords = [], []
    for c, x in zip(candidates, coords):
        if all(np.linalg.norm(x - y) > tol for y in kept_coords):
            kept.append(c)
            kept_coords.append(x)
    return kept


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
            futures = [pool.submit(run_candidate, problem, w, cfg.run)
                       for w in weights_batch]
            return [f.result() for f in futures]
    return [run_candidate(problem, w, cfg.run) for w in weights_batch]


def run_asd(problem, initial_weights, cfg: ASDConfig) -> ASDResult:
    """Refine the weight discretization until the mean normalized edge length
    of the objective-space complex drops below the tolerance."""
    m = problem.num_objectives
    pending = [np.asarray(w, dtype=float) for w in initial_weights]
    if len(pending) < min(2, m) or (m > 2 and len(pending) < m):
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
            raise RuntimeError(f"all {len(batch)} candidates failed at level 0; "
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
        pending = [w for w in mark_and_refine(complex_, register, cfg.edge_tolerance)
                   if not any(same_weight(w, f.w_star) for f in failures)]
        level += 1

    final = pareto_filter(dedup(register.candidates, cfg.dedup_tolerance))
    return ASDResult(register=register, pareto=final, history=history,
                     failures=failures)
