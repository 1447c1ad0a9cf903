"""In-memory span tracing of molto's layers, installed from outside the program.

``install`` replaces the public functions of each module with timing
wrappers. A wrapper must replace the name the caller looks up: ``asd``
imports ``run_candidate`` by name, ``sensitivity`` imports
``element_to_nodes`` by name and ``problems`` imports the mesh builders by
name, so those are patched on the importing module; methods are patched on
their class. Spans carry a name, start, end, parent, thread and candidate id;
parents are tracked per thread, so spans of concurrent candidates under
``jobs > 1`` never nest into each other.

``layer_metrics`` turns the spans of the traced sweeps into the per-layer
table. A span's self time is its duration minus its direct children's; the
``*_ms*`` metrics below are self times, so they add up, together with the
uncovered time, to the sweep's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

# (module, class or None, attribute, span name)
_PROBLEM_METHODS = ("solve_states", "objectives", "constraint_values",
                    "solve_adjoints", "perturbation")
WRAPS = [
    ("molto.cli", None, "load_config", "config.load"),
    ("molto.config", "ProblemConfig", "build_problem", "problems.build"),
    ("molto.problems", None, "build_rect_mesh", "mesh.build"),
    ("molto.problems", None, "build_lshape_mesh", "mesh.build"),
    ("molto.problems", None, "tag_boundary", "mesh.build"),
    ("molto.cli", None, "run_asd", "asd.run_asd"),
    ("molto.asd", None, "_run_batch", "asd.batch"),
    ("molto.asd", None, "run_candidate", "optimizer.candidate"),
    ("molto.asd", "SolutionRegister", "add", "asd.register_add"),
    ("molto.asd", None, "build_complex", "asd.build_complex"),
    ("molto.asd", None, "mean_edge_length", "asd.mean_edge_length"),
    ("molto.asd", None, "mark_and_refine", "asd.mark_and_refine"),
    ("molto.asd", None, "dedup", "asd.dedup"),
    ("molto.asd", None, "pareto_filter", "asd.pareto_filter"),
    ("molto.elasticity", None, "assemble_state", "elasticity.assemble"),
    ("molto.elasticity", "FactorizedSystem", "__init__", "elasticity.factorize"),
    ("molto.elasticity", "FactorizedSystem", "solve", "elasticity.solve"),
    ("molto.elasticity", "FactorizedSystem", "_cg_fallback",
     "elasticity.cg_fallback"),
    *[("molto.problems", cls, method, f"problems.{method}")
      for cls in ("ComplianceProblem", "MechanismProblem", "StressVolumeProblem")
      for method in _PROBLEM_METHODS],
    ("molto.sensitivity", None, "perturbation_compliance",
     "sensitivity.perturbation"),
    ("molto.sensitivity", None, "perturbation_mechanism",
     "sensitivity.perturbation"),
    ("molto.sensitivity", None, "perturbation_stress_volume",
     "sensitivity.perturbation"),
    ("molto.sensitivity", None, "helmholtz_filter", "sensitivity.filter"),
    ("molto.sensitivity", None, "element_to_nodes", "fem.element_to_nodes"),
    ("molto.levelset", None, "assemble_wave", "levelset.init"),
    ("molto.levelset", None, "initialize", "levelset.init"),
    ("molto.levelset", None, "step", "levelset.step"),
    ("molto.weights", None, "forcing", "weights.step"),
    ("molto.weights", None, "step", "weights.step"),
    ("molto.cli", None, "_write_outputs", "cli.write"),
]

BOOKKEEPING = ("asd.run_asd", "asd.register_add", "asd.build_complex",
               "asd.mean_edge_length", "asd.mark_and_refine", "asd.dedup",
               "asd.pareto_filter")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    candidate: int | None
    note: float | None = None   # LU fill for factorize, emitted weights for refine

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note(name, args, result):
    if name == "elasticity.factorize":
        return float(args[0]._lu.nnz)
    if name == "asd.mark_and_refine":
        return float(len(result))
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._candidates = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        new_candidate = name == "optimizer.candidate"
        previous = getattr(self._local, "candidate", None)
        candidate = next(self._candidates) if new_candidate else previous
        self._local.candidate = candidate
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._local.candidate = previous
        self.spans.append(Span(sid, name, start, end, parent,
                               threading.get_ident(), candidate,
                               _note(name, args, result)))
        return result

    def root(self, fn):
        """Run ``fn`` as a root ``sweep`` span; returns (result, span)."""
        result = self.call("sweep", fn, (), {})
        return result, self.spans[-1]

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    for module_name, cls_name, attr, span_name in WRAPS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]   # the class's own method, not inherited
        else:
            fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(fn, span_name))


# -- per-layer table ---------------------------------------------------------

def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, roots, candidates, jobs: int) -> dict:
    """Per-layer metrics of the traced sweeps.

    roots      : the root ``sweep`` span of each traced sweep
    candidates : every SolutionCandidate the traced sweeps produced
    """
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    self_s = {}
    by_name = {}
    for s in spans:
        own = s.duration - sum(c.duration for c in children.get(s.id, ()))
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        by_name.setdefault(s.name, []).append(s)

    n_sweeps = len(roots)
    n_cands = max(len(candidates), 1)
    n_iter = max(sum(c.iterations + 1 for c in candidates), 1)
    wall = sum(r.duration for r in roots)

    def per_sweep_ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / n_sweeps

    def per_iter_ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / n_iter

    def count(name):
        return len(by_name.get(name, ()))

    factorize = by_name.get("elasticity.factorize", [])
    cand_spans = by_name.get("optimizer.candidate", [])
    batch_wall = sum(s.duration for s in by_name.get("asd.batch", ()))
    busy = sum(s.duration for s in cand_spans)
    refine = by_name.get("asd.mark_and_refine", [])

    # an iteration ends with its level set step; the first one starts when
    # the candidate's level set is initialised
    iteration_ms = []
    marks = {}
    for name in ("levelset.init", "levelset.step"):
        for s in by_name.get(name, ()):
            marks.setdefault(s.candidate, []).append((s.end, name))
    for events in marks.values():
        events.sort()
        last = None
        for end, name in events:
            if name == "levelset.step" and last is not None:
                iteration_ms.append(1000.0 * (end - last))
            last = end

    return {
        "config.load_ms": per_sweep_ms("config.load"),
        "problems.build_ms": per_sweep_ms("problems.build"),
        "mesh.build_ms": per_sweep_ms("mesh.build"),
        "elasticity.assemble_ms_per_iter": per_iter_ms("elasticity.assemble"),
        "elasticity.factorize_ms_per_iter": per_iter_ms("elasticity.factorize"),
        "elasticity.solve_ms_per_iter": per_iter_ms("elasticity.solve",
                                                    "elasticity.cg_fallback"),
        "elasticity.factorizations_per_iter": count("elasticity.factorize") / n_iter,
        "elasticity.solves_per_factorization":
            count("elasticity.solve") / max(len(factorize), 1),
        "elasticity.cg_fallback_share":
            count("elasticity.cg_fallback") / max(count("elasticity.solve"), 1),
        "elasticity.lu_fill_nnz":
            statistics.median(s.note for s in factorize) if factorize else 0.0,
        **{f"problems.{m}_ms_per_iter": per_iter_ms(f"problems.{m}")
           for m in _PROBLEM_METHODS},
        "sensitivity.perturbation_ms_per_iter":
            per_iter_ms("sensitivity.perturbation"),
        "sensitivity.filter_ms_per_iter": per_iter_ms("sensitivity.filter"),
        "fem.element_to_nodes_ms_per_iter": per_iter_ms("fem.element_to_nodes"),
        "levelset.step_ms_per_iter": per_iter_ms("levelset.step"),
        "levelset.init_ms_per_candidate":
            1000.0 * self_s.get("levelset.init", 0.0) / n_cands,
        "levelset.clamps_per_candidate":
            sum(c.levelset_clamps for c in candidates) / n_cands,
        "weights.step_ms_per_iter": per_iter_ms("weights.step"),
        "weights.clamps_per_candidate":
            sum(c.weight_clamps for c in candidates) / n_cands,
        "optimizer.candidate_s_p50":
            statistics.median(s.duration for s in cand_spans) if cand_spans else 0.0,
        "optimizer.candidate_s_max": max((s.duration for s in cand_spans), default=0.0),
        "optimizer.self_ms_per_iter": per_iter_ms("optimizer.candidate"),
        "optimizer.iteration_ms_p50": _quantile(iteration_ms, 50),
        "optimizer.iteration_ms_p99": _quantile(iteration_ms, 99),
        "optimizer.iteration_samples": len(iteration_ms),
        "optimizer.converged_share": sum(c.converged for c in candidates) / n_cands,
        "asd.register_add_ms": per_sweep_ms("asd.register_add"),
        "asd.build_complex_ms": per_sweep_ms("asd.build_complex"),
        "asd.mark_and_refine_ms": per_sweep_ms("asd.mark_and_refine"),
        "asd.dedup_ms": per_sweep_ms("asd.dedup"),
        "asd.pareto_filter_ms": per_sweep_ms("asd.pareto_filter"),
        "asd.bookkeeping_share":
            sum(self_s.get(n, 0.0) for n in BOOKKEEPING) / wall,
        "asd.emitted_per_level":
            statistics.fmean(s.note for s in refine) if refine else 0.0,
        # one worker never waits for another; with a pool, idle is the
        # capacity the level barrier leaves unused
        "asd.worker_idle_share":
            0.0 if jobs == 1 else 1.0 - busy / (jobs * batch_wall),
        "cli.write_ms": per_sweep_ms("cli.write"),
        "trace.uncovered_ms": per_sweep_ms("sweep"),
        "trace.uncovered_share": self_s.get("sweep", 0.0) / wall,
        "trace.spans_per_sweep": (len(spans) - n_sweeps) / n_sweeps,
    }
