import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import molto.elasticity as el
import molto.sensitivity as sens
from molto.errors import InvalidArgument, SolverFailure
from molto.mesh import build_lshape_mesh, build_rect_mesh, tag_boundary
from molto.problems import (ComplianceProblem, LoadCase, MechanismProblem,
                            StateBundle, StressVolumeProblem)

MAT = el.MaterialParams(young=1.0, poisson=0.3, ersatz_exponent=3.0, ersatz_floor=1e-3)


def _loaded_square(nx=4, traction=(0.0, -1.0)):
    mesh = build_rect_mesh(1.0, 1.0, nx, nx, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "right")
    supports = (el.FixedBoundary("left", "both"),)
    return ComplianceProblem(mesh, MAT, [LoadCase("right", traction, supports)], 0.45)


def _strains(mesh, fields):
    return [el.element_strains(mesh, v) for v in fields]


def test_volume_objective():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    theta = np.ones(mesh.num_triangles)
    every = np.ones(mesh.num_triangles, dtype=bool)
    assert sens.volume_integral(mesh, theta, every) == pytest.approx(1.0, abs=1e-14)
    mask = np.zeros(mesh.num_triangles, dtype=bool)
    mask[:3] = True
    assert sens.volume_integral(mesh, theta, mask) == pytest.approx(
        mesh.element_areas[:3].sum(), abs=1e-15)


def test_compliance_equals_twice_strain_energy():
    problem = _loaded_square()
    bundle = problem.solve_states(np.ones(problem.mesh.num_triangles))
    compliance = problem.objectives(bundle)[0]
    eps = el.element_strains(problem.mesh, bundle.states[0])
    energy = sens.strain_energy(problem.mesh, el.mutual_energy_density(MAT, eps, eps),
                                bundle.tau)
    assert compliance == pytest.approx(2.0 * energy, rel=1e-8)


def test_output_displacement_sign():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "input")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "output")
    problem = MechanismProblem(mesh, MAT, traction=(1.0, 0.0), spring_in=1.0,
                               spring_out=1.0, dir_in=(1.0, 0.0),
                               dir_out=(0.0, -1.0), volume_fraction=0.3,
                               solid_box=((2.0, 2.0), (3.0, 3.0)))
    delta = 0.3
    u = np.tile([0.0, -delta], mesh.num_nodes)  # rigid downward motion
    tau = np.ones(mesh.num_triangles)
    eps = el.element_strains(mesh, u)
    j = problem.objectives(StateBundle(
        theta=tau, tau=tau, dtau=el.ersatz_dtau(tau, MAT), states=[u, u], facts=[],
        strains=[eps, eps], density=el.mutual_energy_density(MAT, eps, eps)))
    assert j[0] == pytest.approx(-delta * 1.0, abs=1e-14)  # edge length one
    assert j[1] == pytest.approx(0.0, abs=1e-14)  # a rigid motion stores no energy


def test_objective_reference_capture():
    with pytest.warns(UserWarning, match="objective 2 is too small"):
        j_star = sens.reference_values([0.64, 1e-15, -2.5])
    assert j_star.tolist() == [0.64, 1.0, -2.5]


def test_constraint_values():
    problem = _loaded_square()  # unit square, volume fraction 0.45
    n = problem.mesh.num_triangles
    g = problem.constraint_values(problem.solve_states(np.ones(n)))
    assert g == pytest.approx([0.55])
    assert problem.constraint_values(
        problem.solve_states(np.full(n, 0.45))) == pytest.approx([0.0], abs=1e-12)

    mesh = build_lshape_mesh(1.0, 0.5, 0.25)
    mesh = tag_boundary(mesh, (0.0, 1.0), (0.5, 1.0), "clamp")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "traction")
    stressed = StressVolumeProblem(mesh, MAT, traction=(0.0, -0.3),
                                   stress_exponent=5.0, yield_stress=42.0,
                                   stress_limit=0.05, filter_eta=1e-4,
                                   filter_gamma=2.0)
    bundle = stressed.solve_states(np.ones(mesh.num_triangles))
    agg = el.stress_aggregate(mesh, MAT, el.element_strains(mesh, bundle.states[0]),
                              bundle.tau, 5.0, 42.0).value
    g = stressed.constraint_values(bundle)
    # one constraint per objective, both on the same aggregate
    assert g.tolist() == [agg / stressed.volume_ref - 0.05] * 2
    assert np.all(g < 0.0)


def test_multiplier_updates():
    lam = sens.update_multipliers(np.array([0.0, 1.0, 0.0]),
                                  np.array([0.55, -0.2, 0.0]), 10.0)
    assert lam == pytest.approx([5.5, 0.0, 0.0])


def test_multiplier_never_negative():
    rng = np.random.default_rng(0)
    lam = np.zeros(2)
    for _ in range(200):
        lam = sens.update_multipliers(lam, rng.normal(0.0, 1.0, 2), 3.0)
        assert np.all(lam >= 0.0)


def test_normalize_formula_and_homogeneity():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    field = np.ones(mesh.num_triangles)
    assert sens.normalize(field, 0.5, 1.0, mesh.element_areas) == pytest.approx(2.0)
    rng = np.random.default_rng(4)
    g = rng.normal(0.0, 1.0, mesh.num_triangles)
    c1 = sens.normalize(g, 0.3, 1.0, mesh.element_areas)
    assert sens.normalize(2.0 * g, 0.3, 1.0, mesh.element_areas) == pytest.approx(2.0 * c1)
    assert sens.normalize(g, 0.01, 1.0, mesh.element_areas) == pytest.approx(30.0 * c1, rel=1e-12)
    assert sens.normalize(np.zeros(mesh.num_triangles), 0.5, 1.0,
                          mesh.element_areas) == sens.NORMALIZATION_FLOOR


def test_perturbation_zero_states_pure_pressure():
    problem = _loaded_square()
    mesh = problem.mesh
    theta = np.ones(mesh.num_triangles)
    zero = el.element_strains(mesh, np.zeros(2 * mesh.num_nodes))
    result = sens.perturbation_compliance(mesh, MAT, el.ersatz_dtau(theta, MAT),
                                          [zero, zero],
                                          [zero, zero], 4.0, 1.0, [0.5, 0.5],
                                          problem.design_mask)
    assert np.allclose(result.total_elem, 4.0, atol=1e-12)
    assert np.allclose(result.total, 4.0, atol=1e-12)


def test_non_finite_strains_are_a_solver_failure():
    problem = _loaded_square()
    mesh = problem.mesh
    theta = np.ones(mesh.num_triangles)
    nan = np.full_like(el.element_strains(mesh, np.zeros(2 * mesh.num_nodes)), np.nan)
    with pytest.raises(SolverFailure, match="non-finite"):
        sens.perturbation_compliance(mesh, MAT, el.ersatz_dtau(theta, MAT), [nan], [nan],
                                     0.0, 1.0, [1.0], problem.design_mask)


def test_perturbation_sum_identity():
    problem = _loaded_square()
    mesh = problem.mesh
    bundle = problem.solve_states(np.ones(mesh.num_triangles))
    j = problem.objectives(bundle)
    adj = problem.solve_adjoints(bundle, [1.0], j, None)
    result = sens.perturbation_compliance(mesh, MAT, bundle.dtau, bundle.strains,
                                          adj, 0.8, 1.0, [1.0], problem.design_mask)
    assert np.allclose(result.total_elem, np.sum(result.f_alpha_elem, axis=0),
                       atol=1e-15)
    nodal = [sens.element_to_nodes(mesh, f) for f in result.f_alpha_elem]
    assert np.allclose(result.total, np.sum(nodal, axis=0), atol=1e-14)


def test_perturbation_sign_without_constraint():
    # lambda = 0: compliance sensitivity keeps material wherever theta > 0
    problem = _loaded_square()
    mesh = problem.mesh
    rng = np.random.default_rng(9)
    theta = rng.uniform(0.2, 1.0, mesh.num_triangles)
    bundle = problem.solve_states(theta)
    j = problem.objectives(bundle)
    adj = problem.solve_adjoints(bundle, [1.0], j, None)
    result = sens.perturbation_compliance(mesh, MAT, bundle.dtau, bundle.strains,
                                          adj, 0.0, 1.0, [1.0], problem.design_mask)
    assert np.all(result.total_elem <= 1e-15)


def test_perturbation_traction_scaling():
    # doubling the traction quadruples the sensitivity part at fixed design
    results = []
    for scale in (1.0, 2.0):
        problem = _loaded_square(traction=(0.0, -scale))
        mesh = problem.mesh
        bundle = problem.solve_states(np.ones(mesh.num_triangles))
        adj = [(1.0 / 1.0) * u for u in bundle.states]  # unscaled adjoints
        res = sens.perturbation_compliance(mesh, MAT, bundle.dtau, bundle.strains,
                                           _strains(mesh, adj), 0.0, 1.0, [1.0],
                                           problem.design_mask, c_override=[1.0])
        results.append(res.total_elem)
    assert np.allclose(results[1], 4.0 * results[0], rtol=1e-9)


def test_perturbation_mirror_symmetry():
    # symmetric girder, equal tractions, equal weights: f1 mirrors f2
    from molto.problems import make_girder
    problem = make_girder(nx=20, ny=10)
    mesh = problem.mesh
    bundle = problem.solve_states(np.ones(mesh.num_triangles))
    j = problem.objectives(bundle)
    adj = problem.solve_adjoints(bundle, [0.5, 0.5], j, None)
    result = sens.perturbation_compliance(mesh, MAT, bundle.dtau, bundle.strains,
                                          adj, 0.0, mesh.total_area, [0.5, 0.5],
                                          problem.design_mask)
    f1, f2 = result.f_alpha_elem
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    mirrored = np.column_stack([1.0 - cent[:, 0], cent[:, 1]])
    order = []
    for p in mirrored:
        d = np.linalg.norm(cent - p, axis=1)
        order.append(int(d.argmin()))
    assert np.abs(f1 - f2[order]).max() < 1e-6 * max(np.abs(f1).max(), 1.0)


@pytest.mark.parametrize("crossed", [True, False])
def test_helmholtz_operator_factors_the_lil_construction(crossed):
    # the lumped mass is added to the stored diagonal; k + diags(...) would
    # prune the stiffness's explicit zeros, and SuperLU would factor another
    # pattern
    mesh = build_lshape_mesh(1.0, 0.6, 0.025, crossed=crossed)
    eta = 1e-4
    lil = (eta * mesh.laplacian).tolil()
    lil.setdiag(lil.diagonal() + mesh.node_areas)
    reference = spla.splu(lil.tocsc(), permc_spec="MMD_AT_PLUS_A")
    found = sens.helmholtz_operator(mesh, eta)
    for name in ("perm_r", "perm_c"):
        assert np.array_equal(getattr(found, name), getattr(reference, name))
    for name in ("L", "U"):
        a, b = getattr(found, name), getattr(reference, name)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))


def test_helmholtz_constant_field():
    mesh = build_rect_mesh(1.0, 1.0, 6, 6)
    const = np.full(mesh.num_nodes, 10.0)
    out = sens.helmholtz_filter(const, 1e-3, 2.0, mesh,
                                sens.helmholtz_operator(mesh, 1e-3))
    expected = math.asinh(20.0) / 2.0
    assert np.abs(out - expected).max() < 1e-8
    assert expected == pytest.approx(1.8447519344944527, abs=1e-12)


def test_helmholtz_eta_zero_pointwise():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    rng = np.random.default_rng(12)
    f = rng.normal(0.0, 2.0, mesh.num_nodes)
    out = sens.helmholtz_filter(f, 0.0, 3.0, mesh, sens.helmholtz_operator(mesh, 0.0))
    assert np.allclose(out, np.arcsinh(3.0 * f) / 3.0, atol=1e-15)


def test_helmholtz_max_norm_bound():
    mesh = build_rect_mesh(1.0, 0.5, 12, 6, crossed=True)
    rng = np.random.default_rng(100)
    gamma = 2.0
    operator = sens.helmholtz_operator(mesh, 1e-3)
    for _ in range(100):
        f = rng.normal(0.0, 3.0, mesh.num_nodes)
        out = sens.helmholtz_filter(f, 1e-3, gamma, mesh, operator)
        bound = math.asinh(gamma * np.abs(f).max()) / gamma
        assert np.abs(out).max() <= bound + 1e-12


def test_helmholtz_monotone_in_gamma_for_constants():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    c = 5.0
    operator = sens.helmholtz_operator(mesh, 0.0)
    values = [sens.helmholtz_filter(np.full(mesh.num_nodes, c), 0.0, g, mesh, operator)[0]
              for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_helmholtz_validation():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    f = np.zeros(mesh.num_nodes)
    operator = sens.helmholtz_operator(mesh, 1.0)
    with pytest.raises(InvalidArgument):
        sens.helmholtz_filter(f, -1.0, 1.0, mesh, operator)
    with pytest.raises(InvalidArgument):
        sens.helmholtz_filter(f, 1.0, 0.0, mesh, operator)


@pytest.mark.parametrize("multipliers", [(0.8, 0.5), (0.0, 0.7), (0.6, 0.0)])
def test_stress_terms_follow_each_multiplier(multipliers):
    # each case's stress term is its own multiplier times the one aggregate
    # derivative of the shared state; a zero multiplier leaves no stress term
    mesh = build_rect_mesh(1.0, 0.5, 6, 3, crossed=True)
    rng = np.random.default_rng(4)
    u = rng.normal(0.0, 0.2, 2 * mesh.num_nodes)
    adjoints = [rng.normal(0.0, 0.2, u.size) for _ in range(2)]
    theta = rng.uniform(0.3, 1.0, mesh.num_triangles)
    tau = el.ersatz_tau(theta, MAT)
    p, f_y, v0 = 5.0, 0.5, 0.5

    eps = el.element_strains(mesh, u)
    stress = el.stress_aggregate(mesh, MAT, eps, tau, p, f_y)
    density = el.mutual_energy_density(MAT, eps, eps)

    def contributions(lams):
        return sens.perturbation_stress_volume(
            mesh, MAT, el.ersatz_dtau(theta, MAT), density, eps,
            _strains(mesh, adjoints), stress, lams, v0,
            [0.4, 0.6], [1.0, 2.0], np.ones(mesh.num_triangles, dtype=bool),
            c_override=(1.0, 1.0)).f_alpha_elem

    ratio_p = (stress.vm / f_y) ** p
    agg_int = np.sum(ratio_p * tau * mesh.element_areas)
    unit = (agg_int ** (1.0 / p - 1.0) * ratio_p * el.ersatz_dtau(theta, MAT)
            / (p * v0))
    with_stress, without = contributions(multipliers), contributions((0.0, 0.0))
    for lam, f, f0 in zip(multipliers, with_stress, without):
        assert np.allclose(f - f0, lam * unit, rtol=1e-12, atol=1e-15)
