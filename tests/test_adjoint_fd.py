"""Adjoint consistency against central finite differences.

Each problem family's assembled perturbation field (normalization disabled)
must match the finite-difference gradient of the weighted objective plus
multiplier-weighted constraints, differentiated with respect to per-element
material density. The interpolation exponent is set to 2 so the simplified
interpolation derivative is exact at intermediate densities.
"""

import numpy as np

import molto.elasticity as el
from molto.mesh import build_lshape_mesh, build_rect_mesh, tag_boundary
from molto.problems import (ComplianceProblem, LoadCase, MechanismProblem,
                            StressVolumeProblem, make_lbracket)

MAT = el.MaterialParams(young=1.0, poisson=0.3, ersatz_exponent=2.0, ersatz_floor=1e-3)


def tiny_compliance():
    mesh = build_rect_mesh(1.0, 0.5, 4, 2, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "left")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "t1")
    mesh = tag_boundary(mesh, (0.0, 0.5), (1.0, 0.5), "t2")
    supports = (el.FixedBoundary("left", "both"),)
    cases = [LoadCase("t1", (0.0, -1.0), supports),
             LoadCase("t2", (0.0, -0.5), supports)]
    return ComplianceProblem(mesh, MAT, cases, 0.45)


def tiny_mechanism():
    mesh = build_rect_mesh(1.0, 0.5, 4, 2, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "input")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "output")
    mesh = tag_boundary(mesh, (0.0, 0.5), (1.0, 0.5), "clamp")
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "symmetry")
    return MechanismProblem(mesh, MAT, traction=(1.0, 0.0), spring_in=10.0,
                            spring_out=1.0, dir_in=(1.0, 0.0), dir_out=(0.0, -1.0),
                            volume_fraction=0.3,
                            solid_box=((0.75, 0.0), (1.0, 0.25)))


def tiny_stress_volume(yield_stress=42.0):
    mesh = build_lshape_mesh(1.0, 0.5, 0.25)
    mesh = tag_boundary(mesh, (0.0, 1.0), (0.5, 1.0), "clamp")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "traction")
    return StressVolumeProblem(mesh, MAT, traction=(0.0, -0.3),
                               stress_exponent=5.0, yield_stress=yield_stress,
                               stress_limit=0.05, filter_eta=1e-4, filter_gamma=2.0)


def weighted_value(problem, theta_e, w, j_star, lams):
    bundle = problem.solve_states(theta_e)
    j = problem.objectives(bundle)
    g = problem.constraint_values(bundle)
    return float(np.dot(w, j / j_star) + np.dot(lams, g))


def adjoint_field(problem, w, lams, seed=0, perturbation_lams=None):
    """J*, design and unnormalized perturbation field at a random design;
    ``perturbation_lams`` replaces the multipliers in the perturbation only."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.4, 0.95, problem.mesh.num_triangles)
    bundle = problem.solve_states(theta)
    j_star = problem.objectives(bundle)
    adjoints = problem.solve_adjoints(bundle, w, j_star, lams)
    if perturbation_lams is None:
        perturbation_lams = lams
    pert = problem.perturbation(bundle, adjoints, w, j_star, perturbation_lams,
                                c_override=(1.0,) * problem.num_objectives)
    return j_star, theta, pert.total_elem


def fd_check(problem, w, lams, seed=0, h=1e-4, tol=0.05):
    j_star, theta, field = adjoint_field(problem, w, lams, seed)
    gradient = field * problem.mesh.element_areas
    checked = 0
    for e in range(problem.mesh.num_triangles):
        tp, tm = theta.copy(), theta.copy()
        tp[e] += h
        tm[e] -= h
        fd = (weighted_value(problem, tp, w, j_star, lams)
              - weighted_value(problem, tm, w, j_star, lams)) / (2.0 * h)
        if abs(fd) > 1e-8:
            assert abs(gradient[e] - fd) <= tol * abs(fd), (
                f"element {e}: adjoint {gradient[e]:.6e} vs fd {fd:.6e}")
            checked += 1
    assert checked >= problem.mesh.num_triangles // 2
    return checked


def test_compliance_family_matches_fd():
    fd_check(tiny_compliance(), np.array([0.6, 0.4]), np.array([0.7]))


def test_mechanism_family_matches_fd():
    fd_check(tiny_mechanism(), np.array([0.55, 0.45]), np.array([0.6]))


def test_stress_volume_family_matches_fd():
    fd_check(tiny_stress_volume(), np.array([0.5, 0.5]), np.array([0.8, 0.5]))


def test_stress_volume_fd_sees_explicit_stress_term():
    # at a low yield stress the stress terms outweigh the objective terms, and
    # the explicit one, (lambda_a / p V0) S^(1/p - 1) (vm/f_y)^p dtau, is a
    # large share of the gradient: a wrong multiplier or exponent there fails
    problem = tiny_stress_volume(yield_stress=1.0)
    w, lams = np.array([0.5, 0.5]), np.array([0.8, 0.5])
    # the perturbation without multipliers, but with the same adjoints,
    # lacks exactly the explicit stress term
    _, _, full = adjoint_field(problem, w, lams)
    _, _, without = adjoint_field(problem, w, lams, perturbation_lams=np.zeros(2))
    share = np.abs(full - without) / np.abs(full)
    assert np.median(share) > 0.05 and np.sum(share > 0.5) >= 3
    fd_check(problem, w, lams)


def test_stress_volume_fd_with_zero_multipliers():
    # stress terms drop out entirely when the multipliers vanish
    fd_check(tiny_stress_volume(), np.array([0.3, 0.7]), np.array([0.0, 0.0]),
             seed=3)


def test_mechanism_objective_dropout():
    # with w2 = 0 and zero energy adjoint, only the mutual term remains
    problem = tiny_mechanism()
    mesh = problem.mesh
    theta = np.full(mesh.num_triangles, 0.8)
    bundle = problem.solve_states(theta)
    j_star = np.array([1.0, 1.0])
    adjoints = problem.solve_adjoints(bundle, [1.0, 1.0], j_star, None)
    import molto.sensitivity as sens
    eps, eps_out = bundle.strains[0], adjoints[0]
    res = sens.perturbation_mechanism(mesh, MAT, bundle.dtau, bundle.density, eps,
                                      [eps_out, np.zeros_like(eps)], 0.0,
                                      problem.volume_ref, [1.0, 0.0],
                                      j_star, mask=problem.design_mask,
                                      c_override=(1.0, 1.0))
    dtau = np.where(problem.design_mask, el.ersatz_dtau(theta, MAT), 0.0)
    mutual = dtau * el.mutual_energy_density(MAT, eps, eps_out)
    assert np.allclose(res.f_alpha_elem[0], -mutual, atol=1e-14)
    assert np.allclose(res.f_alpha_elem[1], 0.0, atol=1e-14)


def test_stress_adjoint_zero_stress_guard():
    problem = tiny_stress_volume()
    mesh = problem.mesh
    tau = np.ones(mesh.num_triangles)
    stress = el.stress_aggregate(mesh, MAT, np.zeros((mesh.num_triangles, 3)),
                                 tau, 5.0, 42.0)
    load = el.deviator_adjoint_load(mesh, MAT, stress, tau)
    assert np.allclose(load, 0.0)


def test_stress_adjoint_load_at_large_exponent():
    # at p = 300 every (vm/f_y)^p underflows; the peak-factored derivative
    # must still match the aggregate's finite difference along a direction d
    problem = make_lbracket(nx=20, traction=0.1, stress_exponent=300.0)
    mesh, mat = problem.mesh, problem.mat
    theta = np.random.default_rng(0).uniform(0.4, 0.95, mesh.num_triangles)
    bundle = problem.solve_states(theta)
    tau = bundle.tau
    assert np.all(problem.constraint_values(bundle) > 0.0)
    u = bundle.states[0]
    d = np.random.default_rng(1).normal(size=u.size)
    d[np.setdiff1d(np.arange(u.size), bundle.facts[0].pattern.free_dofs)] = 0.0

    def aggregate(v):
        return el.stress_aggregate(mesh, mat, el.element_strains(mesh, v), tau,
                                   problem.stress_exponent,
                                   problem.yield_stress).value

    h = 1e-6 * np.linalg.norm(u) / np.linalg.norm(d)
    fd = (aggregate(u + h * d) - aggregate(u - h * d)) / (2.0 * h)
    got = el.deviator_adjoint_load(mesh, mat, bundle.stress, tau) @ d
    assert abs(fd) > 0.1
    assert abs(got - fd) <= 1e-6 * abs(fd)


def test_fd_runtime_budget():
    import time
    start = time.time()
    fd_check(tiny_compliance(), np.array([0.5, 0.5]), np.array([0.3]), seed=1)
    assert time.time() - start < 120.0
