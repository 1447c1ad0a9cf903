import dataclasses
import sys
import threading
import time
from importlib import resources

import numpy as np
import pytest

import molto.elasticity as el
import molto.levelset as ls
import molto.sensitivity as sens
from molto.config import parse_config
from molto.optimizer import RunConfig, run_candidate
from molto.problems import (MechanismProblem, StressVolumeProblem, make_clamped_tri,
                            make_girder, make_gripper, make_lbracket)


def test_concurrent_solves_build_one_pattern(monkeypatch):
    builds = []
    real = el.StiffnessPattern

    class CountingPattern(real):
        def __init__(self, *args):
            builds.append(threading.get_ident())
            super().__init__(*args)

    monkeypatch.setattr(el, "StiffnessPattern", CountingPattern)
    problem = make_girder(nx=12, ny=6)
    theta = np.ones(problem.mesh.num_triangles)
    workers = 6
    states, errors = [None] * workers, []
    start = threading.Barrier(workers, timeout=60)

    def work(i):
        try:
            start.wait()
            states[i] = problem.solve_states(theta).states[0]
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


def test_concurrent_candidates_build_each_operator_once(monkeypatch):
    builds = {"wave": 0, "wave_factors": 0, "helmholtz": 0}
    filtered = []
    real_wave, real_helmholtz = ls.assemble_wave, sens.helmholtz_operator
    real_factorize = ls.factorize
    real_filter = sens.helmholtz_filter

    # a slow build keeps the other threads arriving while it runs
    def counting_wave(*args):
        builds["wave"] += 1
        time.sleep(0.05)
        return real_wave(*args)

    def counting_factorize(*args):
        builds["wave_factors"] += 1
        time.sleep(0.05)
        return real_factorize(*args)

    def counting_helmholtz(*args):
        builds["helmholtz"] += 1
        time.sleep(0.05)
        return real_helmholtz(*args)

    def recording_filter(*args):
        filtered.append(args[-1])
        return real_filter(*args)

    # patched on their modules, as the benchmark's tracing wrappers are
    monkeypatch.setattr(ls, "assemble_wave", counting_wave)
    monkeypatch.setattr(ls, "factorize", counting_factorize)
    monkeypatch.setattr(sens, "helmholtz_operator", counting_helmholtz)
    monkeypatch.setattr(sens, "helmholtz_filter", recording_filter)
    problem = make_lbracket(nx=10)
    cfg = RunConfig(max_iterations=2, window=2, wave_speed=0.2,
                    wave_damping=0.1, interface_width=0.3, penalty=0.05)
    workers = 4
    results = [None] * workers
    start = threading.Barrier(workers, timeout=60)

    def work(i):
        start.wait()
        results[i] = run_candidate(problem, (0.5, 0.5), cfg)

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
    assert all(r is not None and not r.failed for r in results), results
    assert builds == {"wave": 1, "wave_factors": 1, "helmholtz": 1}
    # every candidate filtered every iteration through the shared factors
    assert len(filtered) == sum(r.iterations + 1 for r in results)
    assert all(op is filtered[0] and op is not None for op in filtered)
    for r in results[1:]:
        assert r.objectives == results[0].objectives


def _stressed_lbracket():
    problem = make_lbracket(nx=10)
    theta = np.random.default_rng(2).uniform(0.4, 0.95, problem.mesh.num_triangles)
    bundle = problem.solve_states(theta)
    j_star = problem.objectives(bundle)
    return problem, bundle, j_star


def test_stress_adjoints_match_per_constraint_solves():
    problem, bundle, j_star = _stressed_lbracket()
    tau = bundle.tau
    w = np.array([0.3, 0.7])
    lams = np.array([0.8, 0.5])
    got = problem.solve_adjoints(bundle, w, j_star, lams)
    # one load and one solve per constraint, as the adjoint is defined
    fact, u = bundle.facts[0], bundle.states[0]
    for alpha, lam in enumerate(lams):
        stress = el.stress_aggregate(problem.mesh, problem.mat,
                                     el.element_strains(problem.mesh, u), tau,
                                     problem.stress_exponent, problem.yield_stress)
        load = lam * el.deviator_adjoint_load(
            problem.mesh, problem.mat, stress, tau) / problem.volume_ref
        ref = fact.solve(load)
        if alpha == 1:
            ref = ref + (w[1] / j_star[1]) * u
        ref = el.element_strains(problem.mesh, ref)
        assert np.abs(got[alpha] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert not np.allclose(got[0], 0.0)


@pytest.mark.parametrize("multipliers, solves", [((0.8, 0.5), 1), ((0.0, 0.0), 0)])
def test_stress_adjoints_solve_once_and_not_while_inactive(monkeypatch, multipliers,
                                                           solves):
    problem, bundle, j_star = _stressed_lbracket()
    calls = []
    real = el.FactorizedSystem.solve

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(el.FactorizedSystem, "solve", counting)
    w = np.array([0.3, 0.7])
    adjoints = problem.solve_adjoints(bundle, w, j_star, np.array(multipliers))
    assert len(calls) == solves
    if solves == 0:
        eps = bundle.strains[0]
        assert np.array_equal(adjoints[0], np.zeros_like(eps))
        assert np.array_equal(adjoints[1], (w[1] / j_star[1]) * eps)


def test_mechanism_adjoints_are_one_blocked_solve(monkeypatch):
    # both gripper adjoints share the one factorization: one solve call with
    # the output load and the energy load as columns, equal to solving each
    problem = make_gripper(nx=12, ny=6)
    theta = np.random.default_rng(3).uniform(0.4, 0.95, problem.mesh.num_triangles)
    bundle = problem.solve_states(theta)
    j_star = problem.objectives(bundle)
    w = np.array([0.4, 0.6])
    seen = []
    real = el.FactorizedSystem.solve

    def counting(self, rhs):
        seen.append(rhs.copy())
        return real(self, rhs)

    monkeypatch.setattr(el.FactorizedSystem, "solve", counting)
    got = problem.solve_adjoints(bundle, w, j_star, np.array([0.3]))
    monkeypatch.undo()
    assert [rhs.shape for rhs in seen] == [(2 * problem.mesh.num_nodes, 2)]

    # the energy load is K u without the springs, on the free rows, here the
    # stiffness assembled without springs on the same supports. Subtracting
    # S u from the spring-held operator instead would lose ~1e-11 of the load
    # to the cancelling spring force, some 6e4 times the load
    u, fact = bundle.states[0], bundle.facts[0]
    free = fact.pattern.free_dofs
    elastic = el.StiffnessPattern(problem.mesh, problem.mat, (), problem.cases[0].supports)
    assert np.array_equal(elastic.free_dofs, free)
    bulk = np.zeros_like(u)
    bulk[free] = el.assemble_state(elastic, bundle.tau) @ u[free]
    loads = [-(w[0] / j_star[0]) * problem.output_vector, (w[1] / j_star[1]) * bulk]
    assert len(got) == 2
    # the loads match to rounding (4e-15 of the largest entry here). The
    # solve magnifies such a difference ~1e4-fold in the strains, so the
    # adjoints are checked as the solves of the loads passed
    for k, (eps_v, load) in enumerate(zip(got, loads)):
        assert np.abs(seen[0][free, k] - load[free]).max() <= 1e-13 * np.abs(load).max()
        ref = el.element_strains(problem.mesh, fact.solve(seen[0][:, k]))
        assert np.abs(eps_v - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("make", [lambda: make_lbracket(nx=10),
                                  lambda: make_gripper(nx=12, ny=6)],
                         ids=["lbracket", "gripper"])
def test_design_fields_are_derived_once_per_iteration(monkeypatch, make):
    # tau, dtau and the solid density eps(u):C:eps(u) of each design are
    # derived once, in solve_states, and read from the bundle everywhere else
    counts = {"tau": 0, "dtau": 0, "self_density": 0}
    real_tau, real_dtau = el.ersatz_tau, el.ersatz_dtau
    real_density = el.mutual_energy_density

    def counting_tau(*args):
        counts["tau"] += 1
        return real_tau(*args)

    def counting_dtau(*args):
        counts["dtau"] += 1
        return real_dtau(*args)

    def counting_density(mat, eps_u, eps_v):
        counts["self_density"] += eps_u is eps_v
        return real_density(mat, eps_u, eps_v)

    monkeypatch.setattr(el, "ersatz_tau", counting_tau)
    monkeypatch.setattr(el, "ersatz_dtau", counting_dtau)
    monkeypatch.setattr(el, "mutual_energy_density", counting_density)
    cand = run_candidate(make(), (0.5, 0.5), RunConfig(max_iterations=6))
    assert not cand.failed, cand.error
    per_iteration = {k: v / (cand.iterations + 1) for k, v in counts.items()}
    assert per_iteration == {"tau": 1.0, "dtau": 1.0, "self_density": 1.0}


def test_load_cases_sharing_supports_are_one_blocked_solve(monkeypatch):
    # the girder's two cases share their supports: one factorization and one
    # solve call with both loads as columns, equal to solving case by case
    problem = make_girder(nx=30, ny=15)
    tau = el.ersatz_tau(np.random.default_rng(2).uniform(0.1, 1.0,
                                                         problem.mesh.num_triangles),
                        problem.mat)
    calls = {"factorize": 0, "solve": []}
    real_init, real_solve = el.FactorizedSystem.__init__, el.FactorizedSystem.solve

    def counting_init(self, pattern, matrix):
        calls["factorize"] += 1
        real_init(self, pattern, matrix)

    def counting_solve(self, rhs):
        calls["solve"].append(rhs.shape)
        return real_solve(self, rhs)

    monkeypatch.setattr(el.FactorizedSystem, "__init__", counting_init)
    monkeypatch.setattr(el.FactorizedSystem, "solve", counting_solve)
    states, facts = problem._solve_cases(tau)
    assert calls == {"factorize": 1, "solve": [(2 * problem.mesh.num_nodes, 2)]}
    monkeypatch.undo()

    assert facts[0] is facts[1]
    for u, load in zip(states, problem.traction_vectors):
        ref = facts[0].solve(load)
        assert u.flags["C_CONTIGUOUS"]
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_state_bundle_is_read_only():
    problem = make_lbracket(nx=10)
    bundle = problem.solve_states(np.full(problem.mesh.num_triangles, 0.7))
    held = [bundle.theta, bundle.tau, bundle.dtau, bundle.density, *bundle.states,
            *bundle.strains, bundle.stress.deviator, bundle.stress.vm,
            bundle.stress.rel]
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("make, groups", [
    (lambda: make_girder(nx=12, ny=6), [0, 0]),
    (lambda: make_clamped_tri(nx=12, ny=6), [0, 1, 0]),
    (lambda: make_gripper(nx=12, ny=6), [0]),
    (lambda: make_lbracket(nx=10), [0]),
], ids=["girder", "clamped_tri", "gripper", "lbracket"])
def test_each_load_case_is_one_state_solve(make, groups):
    # every family solves its load cases the same way: one assembly and one
    # factorization per distinct support set, one solve per case; groups[k]
    # is the first case whose factorization case k shares
    problem = make()
    mesh = problem.mesh
    theta = np.random.default_rng(4).uniform(0.1, 1.0, mesh.num_triangles)
    tau = el.ersatz_tau(theta, problem.mat)
    tau[~problem.design_mask] = 1.0
    bundle = problem.solve_states(theta)
    for case, u in zip(problem.cases, bundle.states):
        pattern = el.StiffnessPattern(mesh, problem.mat, problem.springs, case.supports)
        system = el.assemble_state(pattern, tau)
        ref = el.FactorizedSystem(pattern, system).solve(
            el.boundary_vector(mesh, case.traction_tag, case.traction))
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
    facts = bundle.facts[:len(problem.cases)]
    assert [next(i for i, f in enumerate(facts) if f is fact)
            for fact in facts] == groups
    for a, case_a in enumerate(problem.cases):
        for b, case_b in enumerate(problem.cases):
            assert (facts[a] is facts[b]) == (case_a.supports == case_b.supports)


@pytest.mark.parametrize("make", [
    lambda: make_girder(nx=12, ny=6),
    lambda: make_clamped_tri(nx=12, ny=6),
    lambda: make_gripper(nx=20, ny=10),
    lambda: make_lbracket(nx=10),
], ids=["girder", "clamped_tri", "gripper", "lbracket"])
def test_each_family_owns_its_design_domain(make):
    problem = make()
    mesh = problem.mesh
    design = problem.design_mask
    assert design.dtype == bool and design.shape == (mesh.num_triangles,)
    assert problem.volume_ref == pytest.approx(mesh.element_areas[design].sum(),
                                               rel=1e-14)
    expected = {}
    for case in problem.cases:
        expected.update({n: 1.0 for n in mesh.nodes_with_tag(case.traction_tag)})
    if isinstance(problem, MechanismProblem):
        # the solid jaw tip above the output face, held solid
        cent = mesh.nodes[mesh.triangles].mean(axis=1)
        jaw = (cent[:, 0] >= 0.95) & (cent[:, 1] <= 0.05)
        assert jaw.any() and np.array_equal(design, ~jaw)
        for n in np.unique(mesh.triangles[jaw]):
            expected.setdefault(n, 1.0)
    else:
        assert design.all()
    if isinstance(problem, StressVolumeProblem):
        walls = np.union1d(mesh.nodes_with_tag("void_a"), mesh.nodes_with_tag("void_b"))
        # a traction node on a void wall stays +1
        assert np.intersect1d(walls, list(expected)).size > 0
        for n in walls:
            expected.setdefault(n, -1.0)
    nodes, values = problem.phi_fixed
    assert len(np.unique(nodes)) == len(nodes)
    assert dict(zip(nodes.tolist(), values.tolist())) == {
        int(n): v for n, v in expected.items()}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here, so the "
                           "refinement residual gains no precision")
def test_bundled_clamped_tri_refines_past_the_gate(monkeypatch):
    # the reference clamped_tri constants reach, at iteration 86 of weight
    # (0.70, 0.15, 0.15), a design whose factored solve lands just above the
    # 1e-9 gate; refinement on the factors must bring it back within the gate
    text = resources.files("molto.configs").joinpath("clamped_tri.cfg").read_text()
    config = parse_config(text, source="clamped_tri")
    run = dataclasses.replace(config.run_config(), max_iterations=100)
    refined = []
    real = el.FactorizedSystem._cg_fallback

    def counted(self, f, x, scale):
        refined.append(1)
        return real(self, f, x, scale)

    monkeypatch.setattr(el.FactorizedSystem, "_cg_fallback", counted)
    cand = run_candidate(config.build_problem(), (0.70, 0.15, 0.15), run)
    assert not cand.failed, cand.error
    assert len(refined) >= 1
