import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

import molto.asd as asd
from molto.asd import (ASDConfig, SolutionRegister, build_complex, dedup,
                       dominates, mark_and_refine, mean_edge_length,
                       normalize_objectives, pareto_filter, run_asd)
from molto.errors import InvalidArgument
from molto.optimizer import RunConfig, SolutionCandidate
from molto.problems import SurrogateProblem, convex_quadratic_map


def make_candidate(w_star, objectives):
    m = len(objectives)
    return SolutionCandidate(
        w_star=tuple(w_star), w_final=tuple(w_star), objectives=tuple(objectives),
        normalized=tuple(objectives), feasible=(True,) * m, converged=True,
        iterations=1)


def register_from(pairs):
    reg = SolutionRegister()
    for w, j in pairs:
        reg.add(make_candidate(w, j))
    return reg


def test_normalize_objectives():
    coords = normalize_objectives(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
    assert np.allclose(coords, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    two = normalize_objectives(np.array([[1.0, 5.0], [3.0, 2.0]]))
    assert set(map(tuple, two)) == {(0.0, 1.0), (1.0, 0.0)}
    flat = normalize_objectives(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(flat, 0.0)


def test_register_rejects_duplicate_weights():
    reg = register_from([((0.5, 0.5), (1.0, 2.0))])
    with pytest.raises(InvalidArgument):
        reg.add(make_candidate((0.5, 0.5), (3.0, 4.0)))


def test_build_complex_path_m2():
    reg = register_from([((0.1, 0.9), (2.0, 0.1)),
                         ((0.9, 0.1), (0.1, 2.0)),
                         ((0.5, 0.5), (1.0, 1.0))])
    cx = build_complex(reg, 2)
    assert cx.simplices.tolist() == [[0, 2], [2, 1]]
    assert cx.edges.shape[0] == 2


def test_build_complex_single_triangle_m3():
    reg = register_from([((0.7, 0.15, 0.15), (1.0, 2.0, 2.0)),
                         ((0.15, 0.7, 0.15), (2.0, 1.0, 2.0)),
                         ((0.15, 0.15, 0.7), (2.0, 2.0, 1.0))])
    cx = build_complex(reg, 3)
    assert len(cx.simplices) == 1
    assert sorted(cx.simplices[0]) == [0, 1, 2]
    assert cx.edges.shape[0] == 3


def _circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
          + (cx ** 2 + cy ** 2) * (ay - by)) / d
    uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
          + (cx ** 2 + cy ** 2) * (bx - ax)) / d
    r = np.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def test_delaunay_empty_circumcircle():
    weights = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6), (0.4, 0.35, 0.25)]
    reg = register_from([(w, (1.0 + i, 2.0 - i, float(i))) for i, w in enumerate(weights)])
    cx = build_complex(reg, 3)
    assert len(cx.simplices) == 3  # interior point in the triangle: 3 simplices
    chart = reg.weights[:, :2]
    for simplex in cx.simplices:
        center, radius = _circumcircle(*[chart[v] for v in simplex])
        for other in range(len(weights)):
            if other in simplex:
                continue
            dist = np.hypot(chart[other, 0] - center[0], chart[other, 1] - center[1])
            assert dist >= radius - 1e-12


def test_build_complex_degenerate_fallback():
    # collinear weight points for m = 3 fall back to a fan with a warning
    weights = [(0.2 + 0.1 * i, 0.3, 0.5 - 0.1 * i) for i in range(4)]
    reg = register_from([(w, (float(i), 1.0, 2.0)) for i, w in enumerate(weights)])
    with pytest.warns(UserWarning):
        cx = build_complex(reg, 3)
    assert len(cx.simplices) >= 1
    covered = {v for s in cx.simplices for v in s}
    assert covered == set(range(4))


def test_vertex_coverage():
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(12):
        w = rng.dirichlet([2.0, 2.0, 2.0])
        pairs.append((tuple(w), tuple(rng.uniform(0.0, 5.0, 3))))
    reg = register_from(pairs)
    cx = build_complex(reg, 3)
    covered = {v for s in cx.simplices for v in s}
    assert covered == set(range(12))


def test_mean_edge_length():
    reg = register_from([((0.1, 0.9), (0.0, 1.0)), ((0.9, 0.1), (1.0, 0.5))])
    cx = build_complex(reg, 2)
    mean, std = mean_edge_length(cx)
    assert mean == pytest.approx(np.sqrt(2.0))
    assert std == 0.0
    # lengths {0.2, 0.4} -> mean 0.3, population std 0.1
    lengths = np.array([0.2, 0.4])
    cx.edge_lengths = lengths
    mean, std = mean_edge_length(cx)
    assert (mean, std) == (pytest.approx(0.3), pytest.approx(0.1))


def test_mark_and_refine_midpoints():
    reg = register_from([((0.9, 0.1), (0.0, 1.0)), ((0.1, 0.9), (1.0, 0.0))])
    cx = build_complex(reg, 2)
    emitted = mark_and_refine(cx, reg, 0.04)
    assert len(emitted) == 1
    assert np.allclose(emitted[0], [0.5, 0.5])
    # all edges below tolerance: nothing emitted
    cx2 = build_complex(reg, 2)
    assert mark_and_refine(cx2, reg, 10.0) == []


def test_mark_and_refine_reads_the_complex_edge_lengths():
    # the refinement reads the lengths the complex holds now, as
    # mean_edge_length does: a short edge is not refined
    reg = register_from([((0.9, 0.1), (0.0, 1.0)), ((0.1, 0.9), (1.0, 0.0))])
    cx = build_complex(reg, 2)
    cx.edge_lengths = np.array([0.01])
    assert mark_and_refine(cx, reg, 0.04) == []


def test_mark_and_refine_memory_does_not_grow_with_the_register_squared():
    # each simplex reads its edge lengths through the complex's sides; a
    # table over candidate pairs would take 2 x 32 MB at 2,000 candidates
    reg = register_from([(w, convex_quadratic_map(w)) for w in
                         np.column_stack([np.linspace(0.0, 1.0, 2000),
                                          np.linspace(1.0, 0.0, 2000)])])
    cx = build_complex(reg, 2)
    tracemalloc.start()
    try:
        emitted = mark_and_refine(cx, reg, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(emitted) == 1999
    assert peak < 4 * 2 ** 20, peak


def test_mark_and_refine_triangle_barycenters():
    reg = register_from([((0.7, 0.15, 0.15), (0.0, 1.0, 1.0)),
                         ((0.15, 0.7, 0.15), (1.0, 0.0, 1.0)),
                         ((0.15, 0.15, 0.7), (1.0, 1.0, 0.0))])
    cx = build_complex(reg, 3)
    emitted = mark_and_refine(cx, reg, 0.1)
    assert len(emitted) == 3
    for w in emitted:
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0.0)


def test_mark_and_refine_dedupes_emissions():
    # two poor simplices sharing an edge emit its midpoint once
    reg = register_from([((0.1, 0.9), (0.0, 4.0)), ((0.5, 0.5), (1.0, 1.0)),
                         ((0.9, 0.1), (4.0, 0.0))])
    cx = build_complex(reg, 2)
    emitted = mark_and_refine(cx, reg, 0.04)
    assert len(emitted) == 2
    stacked = np.array(emitted)
    assert np.unique(np.round(stacked, 12), axis=0).shape[0] == 2


def test_dominates():
    assert dominates((1.0, 2.0), (2.0, 2.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))
    assert not dominates((2.0, 1.0), (1.0, 2.0))


def test_pareto_filter_examples():
    cands = [make_candidate((0.5, 0.5), j) for j in ((1, 2), (2, 1), (2, 2))]
    kept = pareto_filter(cands)
    assert [c.objectives for c in kept] == [(1, 2), (2, 1)]
    single = [make_candidate((0.5, 0.5), (3, 3))]
    assert pareto_filter(single) == single
    dupes = [make_candidate((0.4, 0.6), (1, 1)), make_candidate((0.6, 0.4), (1, 1))]
    assert len(pareto_filter(dupes)) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 60))
def test_pareto_filter_matches_bruteforce(seed, m, n):
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 6, size=(n, m)).astype(float)
    cands = [make_candidate(tuple(rng.dirichlet(np.ones(m))), tuple(j))
             for j in objs]
    kept = pareto_filter(cands)
    brute = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i == j:
                continue
            if (np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i])):
                dominated = True
                break
        if not dominated:
            brute.append(i)
    assert [id(c) for c in kept] == [id(cands[i]) for i in brute]


def test_dedup():
    cands = [make_candidate((0.1, 0.9), (0.0, 1.0)),
             make_candidate((0.2, 0.8), (1e-5, 1.0 - 1e-5)),
             make_candidate((0.9, 0.1), (1.0, 0.0))]
    kept = dedup(cands, 1e-3)
    assert len(kept) == 2
    assert kept[0] is cands[0] and kept[1] is cands[2]
    assert len(dedup(cands, 0.0)) == 3
    identical = [make_candidate((0.3, 0.7), (1.0, 1.0)),
                 make_candidate((0.7, 0.3), (1.0, 1.0))]
    assert len(dedup(identical, 1e-3)) == 1


def test_run_asd_surrogate_biobjective():
    problem = SurrogateProblem(2)
    cfg = ASDConfig(edge_tolerance=0.05, max_levels=6, dedup_tolerance=1e-6,
                    run=RunConfig())
    result = run_asd(problem, [(0.9, 0.1), (0.1, 0.9)], cfg)
    means = [row[2] for row in result.history]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[-1] <= 0.05
    assert len(result.history) <= 7
    assert len(result.pareto) >= 8
    # refinement emissions strictly inside the simplex
    for cand in result.register.candidates:
        w = np.asarray(cand.w_star)
        assert np.all(w > 0.0) and np.all(w < 1.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_asd_surrogate_triobjective():
    problem = SurrogateProblem(3)
    cfg = ASDConfig(edge_tolerance=0.15, max_levels=6, dedup_tolerance=1e-6,
                    run=RunConfig())
    initial = [(0.70, 0.15, 0.15), (0.15, 0.70, 0.15), (0.15, 0.15, 0.70)]
    result = run_asd(problem, initial, cfg)
    assert result.history[0][1] == 3  # level 0: one triangle over 3 vertices
    means = [row[2] for row in result.history]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert len(result.history) - 1 <= 6


def test_run_asd_max_level_cap():
    problem = SurrogateProblem(2)
    cfg = ASDConfig(edge_tolerance=1e-9, max_levels=3, run=RunConfig())
    result = run_asd(problem, [(0.9, 0.1), (0.1, 0.9)], cfg)
    assert result.history[-1][0] == 3


def test_run_asd_refinement_matches_midpoint_oracle():
    problem = SurrogateProblem(2)
    cfg = ASDConfig(edge_tolerance=0.05, max_levels=2, run=RunConfig())
    result = run_asd(problem, [(0.9, 0.1), (0.1, 0.9)], cfg)
    weights = sorted(c.w_star[0] for c in result.register.candidates)
    # two binary refinements of [0.1, 0.9] in the first weight coordinate
    assert np.allclose(weights, [0.1, 0.3, 0.5, 0.7, 0.9], atol=1e-12)


def test_run_asd_parallel_jobs_deterministic():
    problem = SurrogateProblem(2)
    initial = [(0.9, 0.1), (0.1, 0.9)]
    serial = run_asd(problem, initial,
                     ASDConfig(edge_tolerance=0.05, max_levels=4, jobs=1,
                               run=RunConfig()))
    threaded = run_asd(problem, initial,
                       ASDConfig(edge_tolerance=0.05, max_levels=4, jobs=4,
                                 run=RunConfig()))
    assert ([c.w_star for c in serial.register.candidates]
            == [c.w_star for c in threaded.register.candidates])
    assert serial.history == threaded.history


class _ExplodingSurrogate(SurrogateProblem):
    def evaluate(self, w):
        from molto.errors import SolverFailure
        raise SolverFailure("synthetic")


def test_an_interrupted_batch_starts_no_queued_candidate(monkeypatch):
    # the interrupt lands in the main thread, as Ctrl-C does, while it waits
    # on the batch; both workers are busy and two weights are queued
    main = threading.main_thread().ident
    called = []

    def fake_run_candidate(problem, w, cfg):
        called.append(float(w[0]))
        if len(called) == 1:
            time.sleep(0.05)
            signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.5)

    monkeypatch.setattr(asd, "run_candidate", fake_run_candidate)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            asd._run_batch(None, [np.array([x, 1.0 - x]) for x in (0.2, 0.4, 0.6, 0.8)],
                           ASDConfig(jobs=2))
    finally:
        signal.signal(signal.SIGINT, previous)
    assert sorted(called) == [0.2, 0.4]


def test_failed_candidates_stay_out_of_register():
    import molto.optimizer as opt
    bad = _ExplodingSurrogate(2)
    cand = opt.run_candidate(bad, (0.5, 0.5), RunConfig())
    assert cand.failed and "SolverFailure" in cand.error
    with pytest.raises(RuntimeError):
        run_asd(bad, [(0.9, 0.1), (0.1, 0.9)], ASDConfig(run=RunConfig()))


def test_failed_weight_runs_once_per_sweep(monkeypatch):
    import molto.asd as asd
    real = asd.run_candidate
    runs = []

    def failing_at_half(problem, w_star, cfg):
        runs.append(tuple(w_star))
        if np.allclose(w_star, (0.5, 0.5)):
            cand = real(_ExplodingSurrogate(2), w_star, cfg)
            assert cand.failed
            return cand
        return real(problem, w_star, cfg)

    monkeypatch.setattr(asd, "run_candidate", failing_at_half)
    cfg = ASDConfig(edge_tolerance=0.05, max_levels=4, run=RunConfig())
    result = run_asd(SurrogateProblem(2), [(0.9, 0.1), (0.1, 0.9)], cfg)
    assert sum(np.allclose(w, (0.5, 0.5)) for w in runs) == 1
    assert len(result.failures) == 1
    # the failed midpoint was the only emission, so its level ends the sweep
    assert [row[:2] for row in result.history] == [(0, 2), (1, 2)]


def _refine_by_pairs(cx, reg, tol, known=()):
    # the pair-at-a-time rule: every vertex pair of every poor simplex, in
    # simplex order, against everything held, known or emitted before
    length = {(int(a), int(b)): l for (a, b), l in zip(cx.edges, cx.edge_lengths)}
    seen = [np.asarray(c.w_star) for c in reg.candidates] + [np.asarray(w) for w in known]
    emitted = []
    for simplex in cx.simplices:
        pairs = [(i, j) for k, i in enumerate(simplex) for j in simplex[k + 1:]]
        if max(length[min(i, j), max(i, j)] for i, j in pairs) <= tol:
            continue
        for i, j in pairs:
            mid = 0.5 * (np.asarray(reg.candidates[i].w_star)
                         + np.asarray(reg.candidates[j].w_star))
            if not any(np.allclose(mid, o, rtol=0.0, atol=1e-9) for o in seen + emitted):
                emitted.append(mid)
    return emitted


def _dedup_by_pairs(cands, tol):
    coords = normalize_objectives(np.array([c.objectives for c in cands]))
    kept = []
    for i, x in enumerate(coords):
        if all(np.linalg.norm(x - coords[k]) > tol for k in kept):
            kept.append(i)
    return [cands[i] for i in kept]


# three weights, one the midpoint of two, are collinear: the fan fallback
@pytest.mark.filterwarnings("ignore:degenerate weight set")
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(3, 25))
def test_array_bookkeeping_matches_pair_loops(seed, m, n):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(m), size=n)
    weights[-1] = 0.5 * (weights[0] + weights[1])   # a midpoint already held
    # objectives on a coarse grid, so dedup meets ties at tolerance 0.2
    reg = register_from([(w, rng.integers(0, 5, m) / 4.0) for w in weights])
    cx = build_complex(reg, m)
    pairs = {(min(i, j), max(i, j)) for s in cx.simplices
             for k, i in enumerate(s) for j in s[k + 1:]}
    assert cx.edges.tolist() == sorted(map(list, pairs))
    known = [0.5 * (weights[1] + weights[2])]
    for args in ((), (known,)):
        got = mark_and_refine(cx, reg, 0.3, *args)
        want = _refine_by_pairs(cx, reg, 0.3, *args)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for tol in (0.0, 0.2, 0.5):
        assert ([id(c) for c in dedup(reg.candidates, tol)]
                == [id(c) for c in _dedup_by_pairs(reg.candidates, tol)])


SRC = Path(__file__).resolve().parents[1] / "src"

_RUN_AND_REPORT_QHULL = """
import sys
from molto.cli import main
code = main(["run", sys.argv[1], "--jobs", "1", "--out", sys.argv[2]])
print(code, "scipy.spatial" in sys.modules)
"""


def test_bi_objective_run_never_loads_qhull(tmp_path):
    # qhull is imported only where m >= 3 needs a Delaunay complex, so a
    # bi-objective run (capped as the packaged configs are in CI, through one
    # refinement level) never pays for scipy.spatial
    text = (SRC / "molto" / "configs" / "girder.cfg").read_text()
    for key, value in (("nx", 10), ("ny", 5), ("max_iterations", 12), ("max_levels", 1)):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    cfg = tmp_path / "girder.cfg"
    cfg.write_text(text)
    env = {k: v for k, v in os.environ.items() if k != "MOLTO_OUTPUT_DIR"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_QHULL, str(cfg),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stdout
    assert (tmp_path / "out" / "levels.csv").read_text().count("\n") == 3


def test_tri_objective_sweep_triangulates_through_qhull(monkeypatch):
    calls = []
    delaunay = scipy.spatial.Delaunay

    def counted(points, *args, **kwargs):
        calls.append(np.shape(points))
        return delaunay(points, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "Delaunay", counted)
    initial = [(0.70, 0.15, 0.15), (0.15, 0.70, 0.15), (0.15, 0.15, 0.70)]
    result = run_asd(SurrogateProblem(3), initial,
                     ASDConfig(edge_tolerance=0.15, max_levels=2, run=RunConfig()))
    assert len(calls) == len(result.history) == 3
    assert calls[0] == (3, 2) and calls[-1][0] == len(result.register)
