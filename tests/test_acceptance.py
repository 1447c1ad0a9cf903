"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold (run with -s or -rA to see them)."""

import math
import time

import numpy as np
import pytest

import molto.elasticity as el
import molto.sensitivity as sens
import molto.weights as wt
from molto import asd, levelset, optimizer, problems
from molto.mesh import build_rect_mesh, tag_boundary
from molto.optimizer import RunConfig, run_candidate

from test_adjoint_fd import (fd_check, tiny_compliance, tiny_mechanism,
                             tiny_stress_volume)


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# -- criterion 1 -------------------------------------------------------------

def test_c1_stick_breaking_suite():
    start = time.time()
    rng = np.random.default_rng(20240811)
    h = 1e-6
    for m in (2, 3, 5):
        q_samples = rng.uniform(0.02, 0.98, size=(1000, m - 1))
        for q in q_samples:
            w = wt.stick_to_weights(q)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.abs(wt.weights_to_stick(w) - q).max() <= 1e-10
        for q in q_samples[:34]:  # ~100 jacobian checks across the three m
            jac = wt.stick_jacobian(q)
            for mu in range(m - 1):
                qp, qm = q.copy(), q.copy()
                qp[mu] += h
                qm[mu] -= h
                fd = (wt.stick_to_weights(qp) - wt.stick_to_weights(qm)) / (2 * h)
                assert np.abs(jac[:, mu] - fd).max() <= 1e-7
    assert time.time() - start < 1.0
    _report("1 stick-breaking suite")


# -- criterion 2 -------------------------------------------------------------

def test_c2_weight_dynamics_ws_limit():
    state = wt.make_state([0.7, 0.3], inertia=1.0, damping=1.0, stiffness=1e6)
    rng = np.random.default_rng(7)
    for _ in range(500):
        wt.step(state, rng.uniform(-1.0, 1.0, 1))
    assert np.abs(state.q - state.q_star).max() <= 1e-4

    eq = wt.WeightState(q=np.array([0.37]), q_prev=np.array([0.37]),
                        q_star=np.array([0.37]), inertia=1.3, damping=0.7,
                        stiffness=2.1)
    q_next = wt.step(eq, np.zeros(1))
    assert abs(q_next[0] - 0.37) <= 1e-14
    _report("2 weight dynamics WS limit")


# -- criterion 3 -------------------------------------------------------------

def test_c3_pareto_filter_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(2, 5))
        # small integer grid produces genuine ties and dominance chains
        objs = rng.integers(0, 7, size=(n, m)).astype(float)
        cands = [optimizer.SolutionCandidate(
            w_star=(float(i),), w_final=(float(i),), objectives=tuple(j),
            normalized=tuple(j), feasible=(True,) * m, converged=True,
            iterations=0) for i, j in enumerate(objs)]
        kept = asd.pareto_filter(cands)
        brute = []
        for i in range(n):
            dominated = False
            for j in range(n):
                if j != i and np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                    dominated = True
                    break
            if not dominated:
                brute.append(cands[i])
        assert [id(c) for c in kept] == [id(c) for c in brute]
    _report("3 Pareto filter oracle")


# -- criterion 4 -------------------------------------------------------------

def test_c4_fem_verification():
    mat = el.MaterialParams(young=1.0, poisson=0.3)
    mesh = build_rect_mesh(1.0, 1.0, 4, 4, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "bottom")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "right")
    load = el.boundary_vector(mesh, "right", (1.0, 0.0))
    pattern = el.StiffnessPattern(mesh, mat, (), [el.FixedBoundary("left", "x"),
                                                  el.FixedBoundary("bottom", "y")])
    system = el.assemble_state(pattern, np.ones(mesh.num_triangles))
    u = el.FactorizedSystem(pattern, system).solve(load)
    eps = np.linalg.solve(el.plane_strain_matrix(mat), [1.0, 0.0, 0.0])
    exact = np.column_stack([eps[0] * mesh.nodes[:, 0],
                             eps[1] * mesh.nodes[:, 1]]).ravel()
    assert np.abs(u - exact).max() <= 1e-10

    compliance = float(load @ u)
    eps_u = el.element_strains(mesh, u)
    energy = sens.strain_energy(mesh, el.mutual_energy_density(mat, eps_u, eps_u),
                                np.ones(mesh.num_triangles))
    assert compliance == pytest.approx(2.0 * energy, rel=1e-8)

    length, height = 8.0, 1.0
    beam_mat = el.MaterialParams(young=1.0, poisson=0.0)
    beam = build_rect_mesh(length, height, 160, 20, crossed=True)
    beam = tag_boundary(beam, (0.0, 0.0), (0.0, height), "root")
    beam = tag_boundary(beam, (length, 0.0), (length, height), "tip")
    p = 1e-3
    beam_pattern = el.StiffnessPattern(beam, beam_mat, (), [el.FixedBoundary("root", "both")])
    beam_sys = el.assemble_state(beam_pattern, np.ones(beam.num_triangles))
    u_beam = el.FactorizedSystem(beam_pattern, beam_sys).solve(
        el.boundary_vector(beam, "tip", (0.0, -p / height)))
    tip = beam.nodes_with_tag("tip")
    deflection = -np.mean(u_beam[2 * tip + 1])
    euler = p * length ** 3 / (3.0 * beam_mat.young * (height ** 3 / 12.0))
    assert deflection == pytest.approx(euler, rel=0.10)
    _report("4 FEM verification")


# -- criterion 5 -------------------------------------------------------------

def test_c5_sensitivity_adjoint_oracle():
    start = time.time()
    fd_check(tiny_compliance(), np.array([0.6, 0.4]), np.array([0.7]), seed=21)
    fd_check(tiny_mechanism(), np.array([0.55, 0.45]), np.array([0.6]), seed=22)
    fd_check(tiny_stress_volume(), np.array([0.5, 0.5]), np.array([0.8, 0.5]),
             seed=23)
    assert time.time() - start < 120.0
    _report("5 sensitivity/adjoint oracle")


# -- criterion 6 -------------------------------------------------------------

def test_c6_levelset_free_decay():
    mesh = build_rect_mesh(1.0, 1.0, 16, 16)
    factors = levelset.factorize(mesh.mass, levelset.assemble_wave(mesh, 0.2), 0.5, 1.0,
                                 ((), ()))
    rng = np.random.default_rng(42)
    bump = (0.5 * np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
            + 0.1 * rng.uniform(-1.0, 1.0, mesh.num_nodes))
    state = levelset.initialize(mesh, bump, np.zeros_like(bump), factors,
                                width=1.0)
    zero = np.zeros(mesh.num_nodes)
    levelset.step(state, zero)
    e_ref = state.energy()
    energy_prev = e_ref
    for s in range(2, 501):
        levelset.step(state, zero)
        energy = state.energy()
        assert energy <= energy_prev + 1e-12 * e_ref
        energy_prev = energy
    assert np.linalg.norm(state.phi - state.phi_prev) <= 1e-6

    const = np.full(mesh.num_nodes, 0.41)
    flat = levelset.initialize(mesh, const, const.copy(), factors, width=1.0)
    levelset.step(flat, zero)
    assert np.abs(flat.phi - 0.41).max() <= 1e-12
    _report("6 level set free decay")


# -- criterion 7 -------------------------------------------------------------

def test_c7_helmholtz_filter():
    mesh = build_rect_mesh(1.0, 0.5, 12, 6, crossed=True)
    gamma = 2.0
    const = np.full(mesh.num_nodes, 10.0)
    operator = sens.helmholtz_operator(mesh, 1e-3)
    out = sens.helmholtz_filter(const, 1e-3, gamma, mesh, operator)
    assert np.abs(out - math.asinh(gamma * 10.0) / gamma).max() <= 1e-8

    rng = np.random.default_rng(17)
    f = rng.normal(0.0, 2.0, mesh.num_nodes)
    assert np.allclose(sens.helmholtz_filter(f, 0.0, gamma, mesh,
                                             sens.helmholtz_operator(mesh, 0.0)),
                       np.arcsinh(gamma * f) / gamma, atol=1e-15)

    for _ in range(100):
        f = rng.normal(0.0, 3.0, mesh.num_nodes)
        out = sens.helmholtz_filter(f, 1e-3, gamma, mesh, operator)
        bound = math.asinh(gamma * np.abs(f).max()) / gamma
        assert np.abs(out).max() <= bound + 1e-12
    _report("7 Helmholtz filter")


# -- criterion 8 -------------------------------------------------------------

def _oracle_emissions(register, edge_tolerance):
    cx = asd.build_complex(register, 2)
    coords = asd.normalize_objectives(register.objectives)
    emitted = []
    for simplex in cx.simplices:
        length = np.linalg.norm(coords[simplex[0]] - coords[simplex[1]])
        if length > edge_tolerance:
            mid = 0.5 * (np.asarray(register.candidates[simplex[0]].w_star)
                         + np.asarray(register.candidates[simplex[1]].w_star))
            if not any(np.allclose(mid, e, atol=1e-9) for e in emitted):
                emitted.append(mid)
    existing = [np.asarray(c.w_star) for c in register.candidates]
    return [e for e in emitted
            if not any(np.allclose(e, x, atol=1e-9) for x in existing)]


def test_c8_asd_surrogate():
    problem = problems.SurrogateProblem(2)
    cfg = asd.ASDConfig(edge_tolerance=0.05, max_levels=6, dedup_tolerance=1e-9,
                        run=RunConfig())

    register = asd.SolutionRegister()
    for w in [(0.9, 0.1), (0.1, 0.9)]:
        register.add(run_candidate(problem, w, cfg.run))
    means = []
    for level in range(7):
        cx = asd.build_complex(register, 2)
        mean, _ = asd.mean_edge_length(cx)
        means.append(mean)
        if mean <= cfg.edge_tolerance:
            break
        emitted = asd.mark_and_refine(cx, register, cfg.edge_tolerance)
        oracle = _oracle_emissions(register, cfg.edge_tolerance)
        assert len(emitted) == len(oracle)
        for got, want in zip(emitted, oracle):
            assert np.array_equal(got, want)  # emissions match the oracle exactly
        for w in emitted:
            register.add(run_candidate(problem, w, cfg.run))
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[-1] <= 0.05
    assert len(means) - 1 <= 6

    tri = problems.SurrogateProblem(3)
    tri_cfg = asd.ASDConfig(edge_tolerance=0.15, max_levels=6, run=RunConfig())
    initial = [(0.70, 0.15, 0.15), (0.15, 0.70, 0.15), (0.15, 0.15, 0.70)]
    tri_register = asd.SolutionRegister()
    for w in initial:
        tri_register.add(run_candidate(tri, w, tri_cfg.run))
    cx = asd.build_complex(tri_register, 3)
    assert len(cx.simplices) == 1
    result = asd.run_asd(tri, initial, tri_cfg)
    tri_means = [row[2] for row in result.history]
    assert all(a > b for a, b in zip(tri_means, tri_means[1:]))
    _report("8 ASD surrogate")


# -- criterion 9 -------------------------------------------------------------

def test_c9_desk_scale_girder():
    start = time.time()
    problem = problems.make_girder(nx=60, ny=30)
    cfg = asd.ASDConfig(edge_tolerance=0.04, max_levels=3, dedup_tolerance=1e-3,
                        jobs=1, run=RunConfig())
    result = asd.run_asd(problem, [(0.9, 0.1), (0.1, 0.9)], cfg)
    elapsed = time.time() - start
    assert elapsed <= 1800.0, f"runtime {elapsed:.0f}s exceeds 30 minutes"

    candidates = result.register.candidates
    assert not result.failures
    assert len(asd.pareto_filter(candidates)) >= 8
    for cand in candidates:
        g_final = cand.history[-1][2][0]
        assert abs(g_final) <= 0.01, f"w*={cand.w_star}: |G|={abs(g_final):.4f}"
        assert cand.weight_clamps == 0  # reference configuration regression
    means = [row[2] for row in result.history]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert len(asd.dedup(candidates, 1e-3)) == len(candidates)
    _report("9 desk-scale girder end-to-end")


# -- criterion 10 ------------------------------------------------------------

def _girder_weight_trace(problem, inertia, damping, stiffness):
    cfg = RunConfig(max_iterations=250, tol_objective=1e-12,
                          weight_inertia=inertia, weight_damping=damping,
                          weight_stiffness=stiffness)
    cand = run_candidate(problem, (0.9, 0.1), cfg)
    assert not cand.failed
    q1 = np.array([1.0 - row[3][0] for row in cand.history])  # w1 = 1 - q1
    return q1 - 0.1  # deviation from the reference coordinate


def test_c10_parameter_effect_regressions():
    problem = problems.make_girder(nx=40, ny=20)

    dev_soft = np.abs(_girder_weight_trace(problem, 1.0, 1.0, 1.0)).sum()
    dev_stiff = np.abs(_girder_weight_trace(problem, 1.0, 1.0, 100.0)).sum()
    assert dev_stiff < dev_soft

    def sign_changes(trace):
        signs = np.sign(trace)
        signs = signs[signs != 0]
        return int(np.sum(signs[1:] != signs[:-1]))

    osc_light = sign_changes(_girder_weight_trace(problem, 1.0, 1.0, 1.0))
    osc_heavy = sign_changes(_girder_weight_trace(problem, 1.0, 10.0, 1.0))
    assert osc_heavy < osc_light
    _report("10 parameter-effect regressions")
