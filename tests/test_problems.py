import sys
import threading

import numpy as np

import molto.elasticity as el
from molto.problems import make_girder


def test_concurrent_solves_build_one_pattern(monkeypatch):
    builds = []
    real = el.StiffnessPattern

    class CountingPattern(real):
        def __init__(self, *args):
            builds.append(threading.get_ident())
            super().__init__(*args)

    monkeypatch.setattr(el, "StiffnessPattern", CountingPattern)
    problem = make_girder(nx=12, ny=6)
    tau = np.ones(problem.mesh.num_triangles)
    workers = 6
    states, errors = [None] * workers, []
    start = threading.Barrier(workers, timeout=60)

    def work(i):
        try:
            start.wait()
            states[i] = problem.solve_states(tau).states[0]
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # both girder load cases share one support set, hence one pattern
    assert len(builds) == 1
    for u in states[1:]:
        assert np.array_equal(u, states[0])
