import numpy as np
import pytest

import molto.elasticity as el
from molto.errors import SolverFailure
from molto.mesh import build_rect_mesh
from molto.optimizer import RunConfig, run_candidate, stationarity
from molto.problems import SurrogateProblem


def test_stationarity_rules():
    flat = [np.array([1.0, 2.0])] * 6
    assert stationarity(flat, [0.0], 5, 1e-4, 1e-3)
    assert not stationarity(flat[:3], [0.0], 5, 1e-4, 1e-3)
    wobble = [np.array([1.0 + 0.1 * (-1) ** k, 2.0]) for k in range(6)]
    assert not stationarity(wobble, [0.0], 5, 1e-4, 1e-3)
    assert not stationarity(flat, [0.2], 5, 1e-4, 1e-3)  # feasibility gate


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_iterations=3, window=5)
    with pytest.raises(ValueError):
        RunConfig(tol_objective=0.0)


def test_surrogate_candidate_immediate():
    problem = SurrogateProblem(2)
    cand = run_candidate(problem, (0.6, 0.4), RunConfig())
    assert cand.converged and cand.iterations == 0
    assert np.allclose(cand.objectives, [(1 - 0.6) ** 2 + 0.01, (1 - 0.4) ** 2 + 0.01])


def _single_case_girder(nx=24, ny=12):
    from molto.problems import make_girder
    return make_girder(nx=nx, ny=ny, num_cases=1)


def test_single_objective_degenerate_run():
    problem = _single_case_girder()
    cand = run_candidate(problem, (1.0,), RunConfig(max_iterations=500))
    assert not cand.failed
    g_final = cand.history[-1][2][0]
    assert abs(g_final) <= 0.01
    assert len(cand.history) <= 501
    assert cand.phi is not None and np.abs(cand.phi).max() <= 1.0


def test_run_candidate_deterministic():
    problem = _single_case_girder(16, 8)
    cfg = RunConfig(max_iterations=40)
    a = run_candidate(problem, (1.0,), cfg)
    b = run_candidate(problem, (1.0,), cfg)
    assert a.objectives == b.objectives
    assert np.array_equal(a.phi, b.phi)
    assert a.history == b.history


def test_history_and_reference_capture():
    problem = _single_case_girder(16, 8)
    cand = run_candidate(problem, (1.0,), RunConfig(max_iterations=30))
    assert len(cand.history) <= 31
    j0 = cand.history[0][1][0]
    assert cand.normalized[0] == pytest.approx(cand.objectives[0] / j0)


class _ExplodingProblem:
    num_objectives = 1

    def __init__(self):
        self.mesh = build_rect_mesh(1.0, 1.0, 2, 2)

    def __getattr__(self, name):
        raise SolverFailure("synthetic failure")


def test_failed_candidate_is_reported_not_raised():
    cand = run_candidate(_ExplodingProblem(), (1.0,), RunConfig())
    assert cand.failed
    assert "SolverFailure" in cand.error
    assert not cand.converged


def test_ws_limit_weights_pinned():
    from molto.problems import make_girder
    problem = make_girder(nx=16, ny=8)
    cfg = RunConfig(max_iterations=60, weight_stiffness=1e6)
    cand = run_candidate(problem, (0.9, 0.1), cfg)
    assert not cand.failed
    for row in cand.history:
        assert abs(row[3][0] - 0.9) <= 1e-3


def test_prioritized_objective_improves_more():
    from molto.problems import make_girder
    problem = make_girder(nx=40, ny=20)
    cand = run_candidate(problem, (0.9, 0.1), RunConfig())
    assert not cand.failed
    assert cand.normalized[0] <= cand.normalized[1]


def _desk_girder_recording_theta(monkeypatch, nudge_at=None):
    """A small girder (RunConfig's defaults are the desk constants) whose
    theta of every iteration is recorded; at iteration ``nudge_at`` the
    first entry of theta is moved down by one ulp."""
    from molto.problems import make_girder
    problem = make_girder(nx=16, ny=8)
    theta_elements = problem.theta_elements
    thetas = []

    def recording(phi, width):
        theta = theta_elements(phi, width)
        if len(thetas) == nudge_at:
            theta[0] = np.nextafter(theta[0], 0.0)
        thetas.append(theta)
        return theta

    monkeypatch.setattr(problem, "theta_elements", recording)
    return problem, thetas


def test_state_is_derived_once_per_distinct_design(monkeypatch):
    # from the solid start the level set sits on its clamp, so theta repeats
    # bit for bit; an iteration that repeats theta keeps the previous
    # iteration's factorized state
    problem, thetas = _desk_girder_recording_theta(monkeypatch)
    factorizations = []
    factorize = el.FactorizedSystem.__init__

    def counting(self, system):
        factorizations.append(system)
        factorize(self, system)

    monkeypatch.setattr(el.FactorizedSystem, "__init__", counting)
    cand = run_candidate(problem, (0.5, 0.5), RunConfig(max_iterations=30))
    assert not cand.failed and len(thetas) == cand.iterations + 1
    changes = sum(not np.array_equal(a, b) for a, b in zip(thetas, thetas[1:]))
    # the girder's two load cases share one factorization
    assert len(factorizations) == 1 + changes
    assert len(factorizations) < cand.iterations + 1
    assert np.array_equal(thetas[0], thetas[1])  # the clamped prefix


def test_a_one_ulp_change_of_theta_derives_the_state_again(monkeypatch):
    problem, thetas = _desk_girder_recording_theta(monkeypatch, nudge_at=2)
    solved = []
    solve_states = problem.solve_states

    def recording(theta):
        solved.append(theta)
        return solve_states(theta)

    monkeypatch.setattr(problem, "solve_states", recording)
    cand = run_candidate(problem, (0.5, 0.5), RunConfig(max_iterations=5))
    assert not cand.failed
    # s = 0 derives the state, s = 1 repeats theta, s = 2 is one ulp off it,
    # s = 3 is back on it, s = 4 and 5 repeat it
    assert len(solved) == 3
    assert all(t is thetas[s] for s, t in zip((0, 2, 3), solved))
    assert solved[1][0] == np.nextafter(solved[0][0], 0.0)
    assert np.array_equal(solved[0], solved[2])
