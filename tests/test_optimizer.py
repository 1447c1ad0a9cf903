import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import molto.elasticity as el
import molto.levelset as levelset
import molto.mesh
from molto.errors import SolverFailure
from molto.mesh import build_rect_mesh
from molto.optimizer import RunConfig, run_candidate, stationarity
from molto.problems import SurrogateProblem, make_girder, make_lbracket


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


def test_a_non_finite_state_fails_the_candidate():
    problem = _single_case_girder(8, 4)
    solve_states = problem.solve_states

    def nan_states(theta):
        bundle = solve_states(theta)
        return dataclasses.replace(
            bundle, states=[np.full_like(u, np.nan) for u in bundle.states],
            strains=[np.full_like(e, np.nan) for e in bundle.strains])

    problem.solve_states = nan_states
    cand = run_candidate(problem, (1.0,), RunConfig())
    assert cand.failed
    assert cand.error.startswith("SolverFailure: perturbation field is non-finite")


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

    def counting(self, pattern, matrix):
        factorizations.append(matrix)
        factorize(self, pattern, matrix)

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


def _mirror_pair(a, b, reflect):
    """Largest deviations of candidate b from the mirror image of candidate a:
    objectives (relative), constraints, weights and the level set field."""
    ja, jb = (np.array([row[1] for row in c.history]) for c in (a, b))
    ga, gb = (np.array([row[2] for row in c.history]) for c in (a, b))
    wa, wb = (np.array([row[3] for row in c.history]) for c in (a, b))
    return (np.abs(ja - jb[:, ::-1]).max() / np.abs(ja).max(),
            np.abs(ga - gb).max(), np.abs(wa - wb[:, ::-1]).max(),
            np.abs(a.phi - b.phi[reflect]).max())


def test_mirrored_weights_give_mirrored_candidates():
    # the girder's two load cases mirror each other about x = 1/2, so the
    # whole loop (assembly, blocked solves, adjoints, perturbation, level set
    # step, weight oscillator, state reuse) must map (w1, w2) onto (w2, w1):
    # swapped objectives and weights, equal constraints, reflected phi.
    # Measured: 5.0e-14 (objectives), 1.6e-15 (G), 2.3e-15 (weights) and
    # 3.6e-14 (phi), against 0.36 for how far phi moves in 30 iterations
    from molto.asd import ASDConfig, run_asd
    from molto.problems import make_girder
    problem = make_girder(nx=20, ny=10)
    nodes = problem.mesh.nodes
    image = np.column_stack([1.0 - nodes[:, 0], nodes[:, 1]])
    gap = np.linalg.norm(image[:, None, :] - nodes[None, :, :], axis=2)
    reflect = gap.argmin(axis=1)   # node reflect[i] is node i's mirror image
    assert gap.min(axis=1).max() < 1e-12

    cfg = RunConfig(max_iterations=30)
    left, right = (run_candidate(problem, w, cfg) for w in ((0.9, 0.1), (0.1, 0.9)))
    assert left.iterations == right.iterations == 30
    assert np.abs(left.phi - problem.initial_phi()).max() > 0.1
    assert all(dev <= 1e-12 for dev in _mirror_pair(left, right, reflect))

    # the same pair from a sweep on two workers
    swept = run_asd(problem, [(0.9, 0.1), (0.1, 0.9)],
                    ASDConfig(max_levels=0, jobs=2, run=cfg)).register.candidates
    assert [c.w_star for c in swept] == [(0.9, 0.1), (0.1, 0.9)]
    assert all(dev <= 1e-12 for dev in _mirror_pair(*swept, reflect))
    for got, want in zip(swept, (left, right)):
        assert got.history == want.history
        assert np.array_equal(got.phi, want.phi)


_SPARSE = (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.lil_matrix, sp.dok_matrix,
           sp.csr_array, sp.csc_array, sp.coo_array, sp.lil_array, sp.dok_array)


@pytest.mark.parametrize("build, stress_loads", [(lambda: make_girder(24, 12), 0),
                                                  (lambda: make_lbracket(nx=20), 5)],
                         ids=["girder", "lbracket"])
def test_an_iteration_builds_only_its_assembled_operator(build, stress_loads, monkeypatch):
    # once a candidate's first iteration has built what the problem and the
    # mesh share, each further iteration makes one sparse matrix per
    # factorization, the assembled operator, and nothing else: no pattern,
    # element blocks, LU factors or mesh operator, the L-bracket's stress
    # adjoint load included
    problem = build()
    phi0 = np.random.default_rng(3).uniform(-1.0, 1.0, problem.mesh.num_nodes)
    monkeypatch.setattr(problem, "initial_phi", lambda: phi0)
    counts = [{}, {}]   # the first iteration's, the five after it
    steps = []

    def counted(name, original):
        def call(*args, **kwargs):
            counter = counts[min(len(steps), 1)]
            counter[name] = counter.get(name, 0) + 1
            return original(*args, **kwargs)
        return call

    for cls in _SPARSE:
        monkeypatch.setattr(cls, "__init__", counted("sparse", cls.__init__))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(el.StiffnessPattern, "__init__",
                        counted("pattern", el.StiffnessPattern.__init__))
    monkeypatch.setattr(el, "element_stiffness_blocks",
                        counted("blocks", el.element_stiffness_blocks))
    monkeypatch.setattr(molto.mesh, "_frozen", counted("mesh operator", molto.mesh._frozen))
    monkeypatch.setattr(el.FactorizedSystem, "__init__",
                        counted("factorization", el.FactorizedSystem.__init__))
    monkeypatch.setattr(el, "deviator_adjoint_load",
                        counted("stress load", el.deviator_adjoint_load))
    step = levelset.step

    def counted_step(*args):
        result = step(*args)
        steps.append(1)
        return result

    monkeypatch.setattr(levelset, "step", counted_step)
    cand = run_candidate(problem, (0.5, 0.5),
                         RunConfig(max_iterations=5, window=5, multiplier_init=1.0))
    assert not cand.failed and cand.iterations == 5 and len(steps) == 6
    first, rest = counts
    assert all(first.get(name) for name in ("pattern", "blocks", "splu", "mesh operator"))
    assert rest.pop("stress load", 0) == stress_loads
    assert rest == {"factorization": 5, "sparse": 5}
