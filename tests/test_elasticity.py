import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import molto.elasticity as el
from molto.errors import InvalidArgument, SolverFailure
from molto.mesh import Mesh, build_lshape_mesh, build_rect_mesh, tag_boundary
from molto.optimizer import RunConfig, run_candidate
from molto.problems import (ComplianceProblem, LoadCase, make_clamped_tri, make_girder,
                            make_gripper, make_lbracket)
from molto.sensitivity import element_to_nodes

MAT = el.MaterialParams(young=1.0, poisson=0.3, ersatz_exponent=3.0, ersatz_floor=1e-3)


def test_heaviside_values():
    assert el.heaviside(np.array([0.0]), 1.0)[0] == pytest.approx(0.5, abs=1e-15)
    assert el.heaviside(np.array([10.0]), 1.0)[0] == pytest.approx(1.0, abs=1e-8)
    expected = 0.5 * (math.tanh(0.5) + 1.0)
    assert el.heaviside(np.array([0.25]), 1.0)[0] == pytest.approx(expected, abs=1e-14)


def test_heaviside_strictly_increasing():
    phi = np.linspace(-1.0, 1.0, 101)
    theta = el.heaviside(phi, 1.0)
    assert np.all(np.diff(theta) > 0.0)


def test_dirac_const():
    # slope of the smoothed indicator at zero equals the interface width, the
    # constant the level set step scales its forcing by
    h = 1e-6
    for b in (0.5, 1.0, 2.0):
        slope = (el.heaviside(np.array([h]), b) - el.heaviside(np.array([-h]), b))[0] / (2 * h)
        assert slope == pytest.approx(b, rel=1e-6)


def test_ersatz_tau_values():
    assert el.ersatz_tau(np.array([1.0]), MAT)[0] == pytest.approx(1.0, abs=1e-15)
    assert el.ersatz_tau(np.array([0.0]), MAT)[0] == pytest.approx(1e-3, abs=1e-18)
    assert el.ersatz_tau(np.array([0.5]), MAT)[0] == pytest.approx(0.125875, abs=1e-12)
    theta = np.linspace(0.0, 1.0, 50)
    assert np.all(np.diff(el.ersatz_tau(theta, MAT)) > 0.0)


def test_ersatz_dtau_values():
    assert el.ersatz_dtau(np.array([1.0]), MAT)[0] == pytest.approx(2.997, abs=1e-12)
    assert el.ersatz_dtau(np.array([0.0]), MAT)[0] == 0.0
    half = el.ersatz_dtau(np.array([0.25]), MAT)
    assert np.allclose(el.ersatz_dtau(np.array([0.5]), MAT), 2.0 * half)


def test_material_validation():
    with pytest.raises(InvalidArgument):
        el.MaterialParams(young=-1.0)
    with pytest.raises(InvalidArgument):
        el.MaterialParams(poisson=0.5)
    with pytest.raises(InvalidArgument):
        el.MaterialParams(ersatz_exponent=1.0)


def _independent_element_stiffness(coords, dmat):
    """Quadrature oracle: B from numerically differentiated barycentric
    shape functions, integrated with a 3-point midpoint rule."""
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    mids = [(coords[0] + coords[1]) / 2, (coords[1] + coords[2]) / 2,
            (coords[2] + coords[0]) / 2]

    def shapes(p):
        a = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
        rhs = np.array([1.0, p[0], p[1]])
        return np.linalg.solve(a.T, rhs)

    ke = np.zeros((6, 6))
    h = 1e-6
    for mid in mids:
        dx = (shapes(mid + [h, 0]) - shapes(mid - [h, 0])) / (2 * h)
        dy = (shapes(mid + [0, h]) - shapes(mid - [0, h])) / (2 * h)
        b = np.zeros((3, 6))
        b[0, 0::2] = dx
        b[1, 1::2] = dy
        b[2, 0::2] = dy
        b[2, 1::2] = dx
        ke += b.T @ dmat @ b * (area / 3.0)
    return ke


def test_stiffness_matches_independent_quadrature():
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    blocks = el.element_stiffness_blocks(mesh, mat)
    dmat = el.plane_strain_matrix(mat)
    for t in range(mesh.num_triangles):
        oracle = _independent_element_stiffness(mesh.nodes[mesh.triangles[t]], dmat)
        assert np.allclose(blocks[t], oracle, atol=1e-7)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    pattern = el.StiffnessPattern(mesh, mat, (), [el.FixedBoundary("left", "both")])
    dense = el.assemble_state(pattern, np.ones(2)).toarray()
    assert np.allclose(dense, dense.T, atol=1e-14)


def test_rigid_body_nullspace():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    blocks = el.element_stiffness_blocks(mesh, MAT)
    for mode in ((1.0, 0.0), (0.0, 1.0)):
        r = np.tile(mode, 3)
        norm = np.abs(blocks @ r).max()
        assert norm <= 1e-9 * np.abs(blocks).max()


def test_stiffness_linear_in_tau():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    bcs = [el.FixedBoundary("left", "both")]
    pattern = el.StiffnessPattern(mesh, MAT, (), bcs)
    solid = el.assemble_state(pattern, np.ones(mesh.num_triangles))
    scaled = el.assemble_state(pattern, np.full(mesh.num_triangles, MAT.ersatz_floor))
    assert np.allclose(scaled.toarray(), MAT.ersatz_floor * solid.toarray(),
                       atol=1e-15)


def _coo_reference(mesh, tau, mat, springs):
    """From-scratch assembly: tau-scaled element blocks summed through COO,
    plus the spring matrix."""
    blocks = el.element_stiffness_blocks(mesh, mat) * tau[:, None, None]
    dofs = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n = 2 * mesh.num_nodes
    k = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return k + el.spring_matrix(mesh, springs)


def test_cached_assembly_matches_coo_reference():
    mesh = build_rect_mesh(1.0, 0.5, 8, 4, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "left")
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "bottom")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "right")
    mesh = tag_boundary(mesh, (0.4, 0.5), (0.6, 0.5), "top")
    springs = (el.Spring("right", 30.0, (0.6, 0.8)),)
    corner = mesh.nearest_node(1.0, 0.5)
    bcs = (el.FixedBoundary("left", "x"), el.FixedBoundary("bottom", "y"),
           el.PointConstraint(corner, 1))
    pattern = el.StiffnessPattern(mesh, MAT, springs, bcs)
    rng = np.random.default_rng(21)
    tau_a = rng.uniform(MAT.ersatz_floor, 1.0, mesh.num_triangles)
    tau_b = rng.uniform(MAT.ersatz_floor, 1.0, mesh.num_triangles)
    a = el.assemble_state(pattern, tau_a)
    b = el.assemble_state(pattern, tau_b)

    expected_fixed = (set(2 * mesh.nodes_with_tag("left"))
                      | set(2 * mesh.nodes_with_tag("bottom") + 1) | {2 * corner + 1})
    free = np.setdiff1d(np.arange(2 * mesh.num_nodes), sorted(expected_fixed))
    # the free DOFs come in elimination order: the same set, renumbered
    assert np.array_equal(np.sort(pattern.free_dofs), free)

    order = pattern.free_dofs
    for system, tau in ((a, tau_a), (b, tau_b)):
        ref = _coo_reference(mesh, tau, MAT, springs)[order][:, order]
        assert spla.norm(system - ref) <= 1e-14 * spla.norm(ref)
    # each assembly owns its values: building b left a untouched
    assert not np.shares_memory(a.data, b.data)


def test_no_constraints_raises():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(SolverFailure):
        el.assemble_state(el.StiffnessPattern(mesh, MAT, (), []), np.ones(mesh.num_triangles))


def _patch_problem(nx=4, ny=4, mat=MAT):
    mesh = build_rect_mesh(1.0, 1.0, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "bottom")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "right")
    load = el.boundary_vector(mesh, "right", (1.0, 0.0))
    bcs = [el.FixedBoundary("left", "x"), el.FixedBoundary("bottom", "y")]
    pattern = el.StiffnessPattern(mesh, mat, (), bcs)
    return mesh, pattern, el.assemble_state(pattern, np.ones(mesh.num_triangles)), load


def test_patch_test_uniform_strain():
    mesh, pattern, system, load = _patch_problem()
    u = el.FactorizedSystem(pattern, system).solve(load)
    strains = el.element_strains(mesh, u)
    # uniform strain state, exact for linear elements
    assert np.abs(strains - strains[0]).max() < 1e-10
    # recovered stress equals the applied traction
    stresses = el.element_stresses(strains, MAT)
    assert np.abs(stresses[:, 0] - 1.0).max() < 1e-10
    assert np.abs(stresses[:, 1]).max() < 1e-10
    # displacement field matches the analytic linear solution
    eps = np.linalg.solve(el.plane_strain_matrix(MAT), [1.0, 0.0, 0.0])
    exact = np.column_stack([eps[0] * mesh.nodes[:, 0], eps[1] * mesh.nodes[:, 1]]).ravel()
    assert np.abs(u - exact).max() < 1e-10


def test_zero_load_zero_displacement():
    mesh, pattern, system, load = _patch_problem()
    load[:] = 0.0
    assert np.abs(el.FactorizedSystem(pattern, system).solve(load)).max() == 0.0


def test_cantilever_beam_oracle():
    # slender 8:1 cantilever, tip deflection vs Euler-Bernoulli P L^3 / 3 E I
    length, height, nx, ny = 8.0, 1.0, 160, 20
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(length, height, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, height), "root")
    mesh = tag_boundary(mesh, (length, 0.0), (length, height), "tip")
    p = 1e-3
    load = el.boundary_vector(mesh, "tip", (0.0, -p / height))
    pattern = el.StiffnessPattern(mesh, mat, (), [el.FixedBoundary("root", "both")])
    system = el.assemble_state(pattern, np.ones(mesh.num_triangles))
    u = el.FactorizedSystem(pattern, system).solve(load)
    tip_nodes = mesh.nodes_with_tag("tip")
    deflection = -np.mean(u[2 * tip_nodes + 1])
    inertia = height ** 3 / 12.0
    euler = p * length ** 3 / (3.0 * mat.young * inertia)
    assert deflection == pytest.approx(euler, rel=0.10)


def test_work_energy_identity():
    mesh, pattern, system, load = _patch_problem(6, 6)
    u = el.FactorizedSystem(pattern, system).solve(load)
    compliance = float(load @ u)
    eps = el.element_strains(mesh, u)
    density = el.mutual_energy_density(MAT, eps, eps)
    energy = float(np.sum(density * mesh.element_areas))
    assert compliance == pytest.approx(energy, rel=1e-8)


def test_compliance_monotone_in_tau():
    rng = np.random.default_rng(3)
    mesh = build_rect_mesh(1.0, 1.0, 4, 4, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "left")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "right")
    load = el.boundary_vector(mesh, "right", (0.3, -1.0))
    bcs = [el.FixedBoundary("left", "both")]
    tau = rng.uniform(0.2, 0.9, mesh.num_triangles)

    def compliance(t):
        pattern = el.StiffnessPattern(mesh, MAT, (), bcs)
        system = el.assemble_state(pattern, t)
        return float(load @ el.FactorizedSystem(pattern, system).solve(load))

    base = compliance(tau)
    for e in rng.choice(mesh.num_triangles, size=8, replace=False):
        bumped = tau.copy()
        bumped[e] += 0.05
        assert compliance(bumped) <= base + 1e-12


def test_gripper_adjoint_reciprocity():
    # dJ/d(load scale) recovered from the adjoint on a tiny spring-loaded mesh
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 1.0), "input")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "output")
    mesh = tag_boundary(mesh, (0.0, 1.0), (1.0, 1.0), "clamp")
    load = el.boundary_vector(mesh, "input", (1.0, 0.0))
    springs = (el.Spring("input", 10.0, (1.0, 0.0)),
               el.Spring("output", 1.0, (0.0, -1.0)))
    pattern = el.StiffnessPattern(mesh, MAT, springs, [el.FixedBoundary("clamp", "both")])
    system = el.assemble_state(pattern, np.ones(mesh.num_triangles))
    fact = el.FactorizedSystem(pattern, system)
    u = fact.solve(load)
    out_vec = el.boundary_vector(mesh, "output", (0.0, -1.0))
    j1 = -float(out_vec @ u)
    adjoint = fact.solve(-out_vec)
    dj_dc = float(adjoint @ load)
    assert dj_dc == pytest.approx(j1, rel=1e-6)


def test_assembled_matrix_symmetry_with_springs():
    mesh = build_rect_mesh(1.0, 0.5, 10, 5, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "clamp")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "out")
    rng = np.random.default_rng(8)
    tau = rng.uniform(1e-3, 1.0, mesh.num_triangles)
    springs = (el.Spring("out", 50.0, (0.6, 0.8)),)
    pattern = el.StiffnessPattern(mesh, MAT, springs, [el.FixedBoundary("clamp", "both")])
    system = el.assemble_state(pattern, tau)
    asym = np.abs((system - system.T).data)
    scale = np.abs(system.data).max()
    assert (asym.max() if asym.size else 0.0) <= 1e-12 * scale


@pytest.mark.parametrize("start, end, direction", [
    ((0.0, 0.0), (0.0, 0.5), (0.6, 0.8)),
    ((0.25, 0.5), (1.0, 0.5), (0.0, -1.0)),
], ids=["left_edge", "top_part"])
def test_spring_energy_of_a_translated_edge(start, end, direction):
    # a straight edge of length L moved rigidly by d stores
    # d^T S d = k L (r . d)^2, however it is split into elements
    mesh = build_rect_mesh(1.0, 0.5, 8, 4, crossed=True)
    mesh = tag_boundary(mesh, start, end, "spring")
    k, d = 7.5, np.array([0.3, -1.1])
    u = np.zeros(2 * mesh.num_nodes)
    nodes = mesh.nodes_with_tag("spring")
    u[2 * nodes], u[2 * nodes + 1] = d
    stiffness = el.spring_matrix(mesh, (el.Spring("spring", k, direction),))
    length = math.dist(start, end)
    assert u @ (stiffness @ u) == pytest.approx(k * length * np.dot(direction, d) ** 2,
                                                rel=1e-12)


def test_spring_validation():
    with pytest.raises(InvalidArgument):
        el.Spring("a", 1.0, (1.0, 1.0))
    with pytest.raises(InvalidArgument):
        el.Spring("a", -1.0, (1.0, 0.0))


def _aggregate(mesh, mat, u, tau=None, p=1.0, yield_stress=1.0):
    if tau is None:
        tau = np.ones(mesh.num_triangles)
    return el.stress_aggregate(mesh, mat, el.element_strains(mesh, u), tau, p,
                               yield_stress)


def test_von_mises_identities():
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    # zero displacement
    assert np.abs(_aggregate(mesh, mat, np.zeros(2 * mesh.num_nodes)).vm).max() == 0.0
    # uniaxial stress: u = (a x, 0) with nu = 0 gives s_xx = E a, rest 0
    a = 0.7
    u = np.column_stack([a * mesh.nodes[:, 0], np.zeros(mesh.num_nodes)]).ravel()
    assert np.allclose(_aggregate(mesh, mat, u).vm, a, atol=1e-12)
    # pure shear: u = (g y, 0) gives s_xy = G g, vm = sqrt(3) * s_xy
    g = 0.4
    u = np.column_stack([g * mesh.nodes[:, 1], np.zeros(mesh.num_nodes)]).ravel()
    shear = mat.young / 2.0 * g  # G = E / 2 at nu = 0
    assert np.allclose(_aggregate(mesh, mat, u).vm, math.sqrt(3.0) * shear, atol=1e-12)


def test_stress_pnorm_constant_and_void():
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    a = 0.5
    u = np.column_stack([a * mesh.nodes[:, 0], np.zeros(mesh.num_nodes)]).ravel()
    # vm = f_y everywhere, tau = 1: result is area^(1/p)
    for p in (1.0, 3.0, 8.0):
        val = _aggregate(mesh, mat, u, np.ones(mesh.num_triangles), p, a).value
        assert val == pytest.approx(1.0, rel=1e-12)
    # void floor masks the contribution
    val = _aggregate(mesh, mat, u, np.full(mesh.num_triangles, 1e-3), 5.0, a).value
    assert val == pytest.approx(1e-3 ** 0.2, rel=1e-12)
    assert _aggregate(mesh, mat, np.zeros(2 * mesh.num_nodes),
                      np.ones(mesh.num_triangles), 5.0, 1.0).value == 0.0


def test_stress_pnorm_peak_limit():
    # large p approaches the peak ratio; single dominant element
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    rng = np.random.default_rng(11)
    u = rng.normal(0.0, 0.1, 2 * mesh.num_nodes)
    tau = np.ones(mesh.num_triangles)
    vm = _aggregate(mesh, mat, u).vm
    peak = vm.max()
    v5 = _aggregate(mesh, mat, u, tau, 5.0, 1.0).value
    v50 = _aggregate(mesh, mat, u, tau, 50.0, 1.0).value
    assert abs(v50 - peak) < abs(v5 - peak)
    area_term = (np.sum((vm / peak) ** 50 * tau * mesh.element_areas)) ** (1.0 / 50.0)
    assert v50 == pytest.approx(peak * area_term, rel=1e-12)


def test_stress_pnorm_monotone():
    mat = el.MaterialParams(young=1.0, poisson=0.0)
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    rng = np.random.default_rng(5)
    u = rng.normal(0.0, 0.1, 2 * mesh.num_nodes)
    tau = np.ones(mesh.num_triangles)
    base = _aggregate(mesh, mat, u, tau, 5.0, 1.0).value
    assert _aggregate(mesh, mat, 1.5 * u, tau, 5.0, 1.0).value > base


def test_solve_residual_contract():
    mesh, pattern, system, load = _patch_problem(8, 8)
    u = el.FactorizedSystem(pattern, system).solve(load)
    residual = _full_residual(mesh, np.ones(mesh.num_triangles), (), pattern, u, load)
    assert np.linalg.norm(residual) / np.linalg.norm(load[pattern.free_dofs]) <= 1e-9


def _full_residual(mesh, tau, springs, pattern, u, load):
    """K u - f of the from-scratch assembly, zero on the fixed rows, which
    carry the reactions."""
    residual = _coo_reference(mesh, tau, MAT, springs) @ u - load
    fixed = np.setdiff1d(np.arange(load.size), pattern.free_dofs)
    residual[fixed] = 0.0
    return residual


def _counted_fallbacks(monkeypatch):
    """The loads handed to ``_cg_fallback``, one column per call."""
    calls = []
    real = el.FactorizedSystem._cg_fallback

    def counted(self, f, x, scale):
        calls.append(f.copy())
        return real(self, f, x, scale)

    monkeypatch.setattr(el.FactorizedSystem, "_cg_fallback", counted)
    return calls


def test_residual_gate_and_fallback(monkeypatch):
    # the factor of a design 1e-6 away solves a slightly wrong system, so the
    # residual lies far above the 1e-9 gate and far below 1: the gate must
    # see it and refine on the factors, which recovers the solution; the
    # factor of a design far from the assembled one cannot be refined to the
    # gate in two steps and must end in SolverFailure
    mesh = build_rect_mesh(1.0, 0.5, 8, 4)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "left")
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "bottom")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "right")
    mesh = tag_boundary(mesh, (0.4, 0.5), (0.6, 0.5), "top")
    springs = (el.Spring("right", 20.0, (0.6, 0.8)),)
    bcs = (el.FixedBoundary("left", "x"), el.FixedBoundary("bottom", "y"))
    load = el.boundary_vector(mesh, "top", (0.3, -1.0))
    rng = np.random.default_rng(4)
    tau = rng.uniform(0.1, 1.0, mesh.num_triangles)
    near = tau * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, mesh.num_triangles))
    far = rng.uniform(0.1, 1.0, mesh.num_triangles)
    pattern = el.StiffnessPattern(mesh, MAT, springs, bcs)
    system = el.assemble_state(pattern, tau)
    fact = el.FactorizedSystem(pattern, system)
    fact._lu = el.FactorizedSystem(pattern, el.assemble_state(pattern, near))._lu

    calls = _counted_fallbacks(monkeypatch)
    u = fact.solve(load)
    assert len(calls) == 1
    residual = _full_residual(mesh, tau, springs, pattern, u, load)
    assert np.linalg.norm(residual) / np.linalg.norm(load[pattern.free_dofs]) <= 1e-9

    fact._lu = el.FactorizedSystem(pattern, el.assemble_state(pattern, far))._lu
    with pytest.raises(SolverFailure, match=r"relative residual .* exceeds 1e-9"):
        fact.solve(load)
    assert len(calls) == 2


def test_blocked_solve_falls_back_per_column(monkeypatch):
    # a 2-column solve whose factor is off for column 0 only: that column
    # alone is refined, both end within the gate, and refinement on the
    # factor of a design far from the assembled one fails with the
    # single-column message
    mesh, pattern, system, load = _patch_problem(8, 8)
    fact = el.FactorizedSystem(pattern, system)
    exact = fact._lu
    tau_far = np.random.default_rng(5).uniform(0.1, 1.0, mesh.num_triangles)
    far = el.FactorizedSystem(pattern, el.assemble_state(pattern, tau_far))._lu

    class SkewedLU:
        # the blocked solve skews column 0; a refinement solve (one column)
        # goes to ``refine``
        refine = exact

        def solve(self, f):
            if f.ndim == 1:
                return self.refine.solve(f)
            x = exact.solve(f)
            x[:, 0] *= 1.0 + 1e-6
            return x

    fact._lu = SkewedLU()
    loads = np.column_stack([load, np.roll(load, 2)])
    fallbacks = _counted_fallbacks(monkeypatch)
    u = fact.solve(loads)
    assert len(fallbacks) == 1
    assert np.array_equal(fallbacks[0], load[pattern.free_dofs])
    for j in range(2):
        residual = _full_residual(mesh, np.ones(mesh.num_triangles), (), pattern,
                                  u[:, j], loads[:, j])
        assert (np.linalg.norm(residual)
                <= 1e-9 * np.linalg.norm(loads[pattern.free_dofs, j]))

    fact._lu.refine = far
    with pytest.raises(SolverFailure, match=r"^relative residual .* exceeds 1e-9$"):
        fact.solve(loads)
    assert len(fallbacks) == 2


def _rollers(nx=40, ny=20):
    """A crossed 1 x 0.5 rectangle on two vertical rollers and one point
    constraint, the supports of the girder."""
    mesh = build_rect_mesh(1.0, 0.5, nx, ny, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.05, 0.0), "left")
    mesh = tag_boundary(mesh, (0.95, 0.0), (1.0, 0.0), "right")
    mesh = tag_boundary(mesh, (0.2, 0.5), (0.3, 0.5), "load")
    bcs = (el.FixedBoundary("left", "y"), el.FixedBoundary("right", "y"),
           el.PointConstraint(mesh.nearest_node(0.0, 0.0), 0))
    return mesh, (), bcs, el.boundary_vector(mesh, "load", (0.0, -1.0))


def _lshape():
    mesh = build_lshape_mesh(1.0, 0.4, 0.05)
    mesh = tag_boundary(mesh, (0.0, 1.0), (0.6, 1.0), "clamp")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.6), "load")
    return (mesh, (), [el.FixedBoundary("clamp", "both")],
            el.boundary_vector(mesh, "load", (0.0, -1.0)))


def _springs(crossed=True):
    mesh = build_rect_mesh(1.0, 0.5, 20, 10, crossed=crossed)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "input")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "output")
    mesh = tag_boundary(mesh, (0.0, 0.5), (0.5, 0.5), "clamp")
    springs = (el.Spring("input", 10.0, (1.0, 0.0)), el.Spring("output", 1.0, (0.6, -0.8)))
    return (mesh, springs, [el.FixedBoundary("clamp", "both")],
            el.boundary_vector(mesh, "input", (1.0, 0.0)))


def _two_columns():
    mesh, springs, bcs, load = _rollers(16, 8)
    return mesh, springs, bcs, np.column_stack([load, np.roll(load, 7)])


def _clamped_cell():
    """One crossed cell clamped all round: only its centre is free, so
    nothing is left once it is condensed."""
    mesh = build_rect_mesh(1.0, 1.0, 1, 1, crossed=True)
    for start, end in (((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 1.0)),
                       ((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0))):
        mesh = tag_boundary(mesh, start, end, "clamp")
    load = np.zeros(2 * mesh.num_nodes)
    load[-2:] = (0.5, -1.0)
    return mesh, (), [el.FixedBoundary("clamp", "both")], load


def test_condensed_factor_fills_no_more_than_mmd():
    # the banded factor of the condensed operator stores no more entries than
    # the L + U of SuperLU under its MMD ordering of the same operator
    mesh, _, bcs, _ = _rollers()
    tau = el.ersatz_tau(np.random.default_rng(6).uniform(0.0, 1.0, mesh.num_triangles),
                        MAT)
    pattern = el.StiffnessPattern(mesh, MAT, (), bcs)
    system = el.assemble_state(pattern, tau)
    ascending = np.argsort(pattern.free_dofs)
    reference = spla.splu(system[ascending][:, ascending].tocsc(),
                          permc_spec="MMD_AT_PLUS_A")
    assert el.FactorizedSystem(pattern, system)._lu.nnz <= reference.nnz


@pytest.mark.parametrize("build", [
    _rollers, _lshape, _springs, lambda: _springs(crossed=False), _two_columns, _clamped_cell,
], ids=["rollers", "lshape", "springs", "two_triangle", "two_columns", "clamped_cell"])
def test_condensed_solve_matches_superlu(build, capfd):
    mesh, springs, bcs, load = build()
    tau = el.ersatz_tau(np.random.default_rng(9).uniform(0.0, 1.0, mesh.num_triangles),
                        MAT)
    pattern = el.StiffnessPattern(mesh, MAT, springs, bcs)
    system = el.assemble_state(pattern, tau)
    f = load[pattern.free_dofs]
    reference = spla.splu(system, permc_spec="MMD_AT_PLUS_A").solve(f)
    x = el.FactorizedSystem(pattern, system)._lu.solve(f)
    assert x.shape == f.shape
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)
    assert capfd.readouterr() == ("", "")   # LAPACK prints bad arguments


@pytest.mark.parametrize("build", [_rollers, _lshape, _springs],
                         ids=["rollers", "lshape", "springs"])
def test_crossed_meshes_condense_one_node_per_cell(build):
    # every triangle of a crossed mesh has its cell's centre as a vertex, so
    # one condensed vertex per triangle and one per four triangles is one
    # per cell; a node with a fixed DOF or on a spring edge is never condensed
    mesh, springs, bcs, _ = build()
    pattern = el.StiffnessPattern(mesh, MAT, springs, bcs)
    per_triangle = np.isin(mesh.triangles, pattern.condensed).sum(axis=1)
    assert np.all(per_triangle == 1)
    assert 4 * pattern.condensed.size == mesh.num_triangles
    fixed = np.setdiff1d(np.arange(2 * mesh.num_nodes), pattern.free_dofs)
    assert np.intersect1d(pattern.condensed, fixed // 2).size == 0
    for spring in springs:
        assert np.intersect1d(pattern.condensed, mesh.nodes_with_tag(spring.tag)).size == 0


def test_condensation_skips_fixed_nodes_and_two_triangle_meshes():
    mesh, _, bcs, _ = _rollers(8, 4)
    centre = mesh.nearest_node(0.5625, 0.1875)
    pinned = el.StiffnessPattern(mesh, MAT, (), [*bcs, el.PointConstraint(centre, 1)])
    assert pinned.condensed.size == 8 * 4 - 1 and centre not in pinned.condensed
    assert el.StiffnessPattern(build_rect_mesh(1.0, 0.5, 8, 4), MAT, (),
                               [el.PointConstraint(0, 0)]).condensed.size == 0


def test_adjacent_condensable_nodes_keep_the_lower_one():
    # interior nodes 0 and 1 both have exactly four neighbours and share an
    # edge: only node 0 is condensed
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [2.0, 0.0],
                      [0.5, -1.0]])
    triangles = np.array([[0, 3, 2], [0, 1, 3], [0, 5, 1], [0, 2, 5], [1, 4, 3],
                          [1, 5, 4]], dtype=np.int32)
    boundary = np.array([[2, 3], [3, 4], [4, 5], [2, 5]], dtype=np.int32)
    mesh = Mesh(nodes, triangles, boundary, np.array(["edge"] * 4, dtype=object), 1.0)
    pattern = el.StiffnessPattern(mesh, MAT, (), [el.FixedBoundary("edge", "both")])
    assert pattern.condensed.tolist() == [0]
    system = el.assemble_state(pattern, np.ones(mesh.num_triangles))
    load = np.zeros(2 * mesh.num_nodes)
    load[[0, 3]] = (1.0, -2.0)
    u = el.FactorizedSystem(pattern, system).solve(load)
    assert np.allclose(spla.spsolve(system, load[pattern.free_dofs]),
                       u[pattern.free_dofs], rtol=1e-12, atol=0.0)


def test_pattern_build_peaks_within_twice_what_it_keeps():
    # the build's temporaries stay below what the pattern keeps: it keys node
    # pairs, not DOF pairs, holds positions as int32, frees each temporary
    # once read and maps only the band slots that receive a value
    problem = make_girder(120, 60)
    tracemalloc.start()
    try:
        pattern = el.StiffnessPattern(problem.mesh, problem.mat, problem.springs,
                                      problem.cases[0].supports)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pattern._map.shape[1] == problem.mesh.num_triangles
    assert peak <= 2.0 * retained, (retained, peak)


def _unique_pattern_arrays(mesh, mat, springs, pattern):
    """The CSC structure, element map and summed spring entries of
    ``pattern``'s free DOF order, keyed as np.unique finds the node pairs of
    the triangles and springs and the DOF keys of their 2x2 entries."""
    springs = el.spring_matrix(mesh, springs).tocoo()
    m, nodes, num_pairs = pattern.free_dofs.size, mesh.num_nodes, 9 * mesh.num_triangles
    renumber = np.full(2 * nodes, m, dtype=np.int64)
    renumber[pattern.free_dofs] = np.arange(m)
    tri = mesh.triangles.astype(np.int64)
    pairs, inverse = np.unique(np.concatenate([
        (tri[:, :, None] * nodes + tri[:, None, :]).ravel(),
        springs.row.astype(np.int64) // 2 * nodes + springs.col // 2]), return_inverse=True)
    inverse = inverse.astype(el._index_dtype(pairs.size))
    rows = [renumber[2 * (pairs // nodes) + i] for i in (0, 1)]
    cols = [renumber[2 * (pairs % nodes) + j] for j in (0, 1)]
    keys = np.stack([np.where((rows[i] < m) & (cols[j] < m), cols[j] * m + rows[i], m * m)
                     for i in (0, 1) for j in (0, 1)], axis=1).ravel()
    keys, position = np.unique(keys, return_inverse=True)
    nnz = int(np.searchsorted(keys, m * m))
    keys = keys[:nnz]
    position = position.astype(el._index_dtype(nnz + 1)).reshape(-1, 2, 2)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    spring_data = None
    if springs.nnz:
        at = position[inverse[num_pairs:], springs.row % 2, springs.col % 2]
        spring_data = np.bincount(at, weights=springs.data, minlength=nnz)[:nnz]
    a, i, b, j = np.unravel_index(np.arange(36), (3, 2, 3, 2))
    scatter = position.reshape(-1)[
        4 * inverse[:num_pairs].reshape(-1, 9)[:, 3 * a + b] + 2 * i + j]
    inside = scatter < nnz
    columns = np.zeros(mesh.num_triangles + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=columns[1:])
    blocks = el.element_stiffness_blocks(mesh, mat).reshape(-1, 36)
    element_map = sp.csc_matrix((blocks[inside], scatter[inside], columns),
                                shape=(nnz, mesh.num_triangles))
    return (keys % m).astype(np.int32), indptr, element_map, spring_data


def _csc_arrays(matrix):
    return matrix.data, matrix.indices, matrix.indptr


@pytest.mark.parametrize("build, case", [
    (make_girder, 0), (make_lbracket, 0), (make_gripper, 0),
    (make_clamped_tri, 0), (make_clamped_tri, 1), (make_clamped_tri, 2)],
    ids=["girder", "lbracket", "gripper", "clamped_tri_1", "clamped_tri_2", "clamped_tri_3"])
def test_pattern_matches_the_np_unique_construction(build, case):
    # the node pairs come from one sort of their keys and the DOF keys,
    # unique but for the discarded bin, from another; each array the
    # assembly reads is the np.unique construction's, dtype included
    problem = build()
    pattern = el.StiffnessPattern(problem.mesh, problem.mat, problem.springs,
                                  problem.cases[case].supports)
    indices, indptr, element_map, spring_data = _unique_pattern_arrays(
        problem.mesh, problem.mat, problem.springs, pattern)
    for found, reference in ((pattern._indices, indices), (pattern._indptr, indptr),
                             *zip(_csc_arrays(pattern._map), _csc_arrays(element_map))):
        assert found.dtype == reference.dtype
        assert np.array_equal(found, reference)
    assert (pattern._spring_data is None) == (spring_data is None) == (not problem.springs)
    if spring_data is not None:
        assert pattern._spring_data.dtype == spring_data.dtype
        assert np.array_equal(pattern._spring_data, spring_data)


def _full_band_map(pattern):
    """The band map with one row per slot of the (kd + 1) x r band in
    LAPACK's lower storage, entry (j, i), i <= j, at slot i * (kd + 1) + j
    - i, built from the pattern's CSC structure and coupling positions
    alone: the upper kept-kept values enter with +1 and each condensed
    node's 8x8 fill with -1, every row summed in the order of its columns."""
    nnz, (kd1, r) = pattern._indices.size, pattern._band_shape
    row = pattern._indices.astype(np.int64)
    col = np.repeat(np.arange(pattern._shape[1]), np.diff(pattern._indptr))
    pos = pattern._coupling_pos[:, 0, :]
    corners = np.where(pos < nnz, col[np.minimum(pos, nnz - 1)], r)
    upper = (col < r) & (row <= col)
    i, j = (np.broadcast_to(a, (corners.shape[0], 8, 8))
            for a in (corners[:, :, None], corners[:, None, :]))
    fill = (i <= j) & (j < r)
    row = np.concatenate([row[upper], i[fill]])
    col = np.concatenate([col[upper], j[fill]])
    assert int(np.max(col - row, initial=0)) == kd1 - 1
    return sp.csr_matrix(
        (np.repeat([1.0, -1.0], [np.count_nonzero(upper), np.count_nonzero(fill)]),
         (row * kd1 + col - row,
          np.concatenate([np.flatnonzero(upper), nnz + np.flatnonzero(fill)]))),
        shape=(kd1 * r, nnz + fill.size))


class _RecordedBand:
    """The pattern's band former, remembering the values it formed the band
    from: the assembled values and each condensed node's fill B^T W."""

    def __init__(self, band):
        self.band, self.data, self.fill = band, None, None

    def __call__(self, data, b, w):
        self.data, self.fill = data, np.swapaxes(b, 1, 2) @ w
        return self.band(data, b, w)


@pytest.mark.parametrize("build, case", [
    (make_girder, 0), (make_lbracket, 0), (make_gripper, 0), (make_clamped_tri, 1)],
    ids=["make_girder", "make_lbracket", "make_gripper", "make_clamped_tri_propped"])
def test_band_matches_a_full_length_band_map(build, case, monkeypatch):
    # the assembled values gathered into a zero band, less each condensed
    # node's fill slot by slot in ascending node order, hand dpbtrf the band
    # a map over every slot gives, bit for bit, on a graded design
    problem = build()
    pattern = el.StiffnessPattern(problem.mesh, problem.mat, problem.springs,
                                  problem.cases[case].supports)
    assert pattern._band_slots.size < np.prod(pattern._band_shape)
    pattern.band = recorded = _RecordedBand(pattern.band)
    received = []
    dpbtrf = el.lapack.dpbtrf

    def recorded_dpbtrf(ab, **kwargs):
        received.append((ab.copy(), kwargs.get("lower")))
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(el.lapack, "dpbtrf", recorded_dpbtrf)
    tau = el.ersatz_tau(np.random.default_rng(7).uniform(0.0, 1.0, problem.mesh.num_triangles),
                        problem.mat)
    system = el.assemble_state(pattern, tau)
    el.FactorizedSystem(pattern, system)
    assert recorded.data is system.data
    values = np.concatenate([recorded.data, recorded.fill.ravel()])
    reference = (_full_band_map(pattern) @ values).reshape(pattern._band_shape, order="F")
    assert [lower for _, lower in received] == [1]
    assert received[0][0].tobytes(order="F") == reference.tobytes(order="F")


def _rigid_mode():
    """An 8x4 crossed rectangle held only in x on its left edge: it can
    still slide in y, so its operator is singular."""
    mesh = build_rect_mesh(1.0, 0.5, 8, 4, crossed=True)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.0, 0.5), "left")
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 0.5), "right")
    return mesh, (el.FixedBoundary("left", "x"),)


# the factorization, whose messages end in a parenthesized detail, or the
# residual gate, as rounding falls
_RIGID_FAILURE = (r"(elastic operator is not positive definite \([^()]*\)"
                  r"|relative residual .* exceeds 1e-9)")


def test_rigid_failure_pattern_reads_both_factor_messages():
    # the $-anchored match of a failed candidate must accept a factor
    # failure, not only the residual gate; a pattern that ends at "definite"
    # never did
    old = r"(elastic operator is not positive definite|relative residual .* exceeds 1e-9)"
    factor = ["SolverFailure: elastic operator is not positive definite "
              "(banded Cholesky info 85)",
              "SolverFailure: elastic operator is not positive definite "
              "(a condensed 2x2 block)",
              "SolverFailure: elastic operator is not positive definite "
              "(Cholesky pivot 8.0e-15 of its diagonal entry)"]
    gate = "SolverFailure: relative residual 1.2e-08 exceeds 1e-9"
    unrelated = ["SolverFailure: factorized solve produced non-finite values",
                 "LinAlgError: elastic operator is not positive definite (info 3)",
                 "SolverFailure: elastic operator is not positive definite (info 3) later",
                 "SolverFailure: relative residual 1.2e-08 exceeds 1e-8"]

    def matches(pattern, text):
        return re.match(f"SolverFailure: {pattern}$", text) is not None
    assert not any(matches(old, text) for text in factor)
    assert all(matches(_RIGID_FAILURE, text) for text in factor + [gate])
    assert not any(matches(p, text) for p in (old, _RIGID_FAILURE) for text in unrelated)


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_rigid_mode_ends_in_solver_failure(seed):
    # a load along the free slide ends in SolverFailure, never in a
    # LinAlgError, a division by zero or a non-finite displacement
    mesh, bcs = _rigid_mode()
    load = el.boundary_vector(mesh, "right", (0.0, -1.0))
    tau = (np.ones(mesh.num_triangles) if seed is None else
           el.ersatz_tau(np.random.default_rng(seed).uniform(0.0, 1.0, mesh.num_triangles),
                         MAT))
    pattern = el.StiffnessPattern(mesh, MAT, (), bcs)
    system = el.assemble_state(pattern, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure, match=f"^{_RIGID_FAILURE}"):
            el.FactorizedSystem(pattern, system).solve(load)


def test_a_load_orthogonal_to_the_rigid_mode_ends_in_solver_failure():
    # a load along the held direction leaves the free slide unloaded, so a
    # solution passes the residual gate; the factor's pivot rejects the
    # operator itself
    mesh, bcs = _rigid_mode()
    tau = el.ersatz_tau(np.random.default_rng(3).uniform(0.0, 1.0, mesh.num_triangles), MAT)
    pattern = el.StiffnessPattern(mesh, MAT, (), bcs)
    system = el.assemble_state(pattern, tau)
    with pytest.raises(SolverFailure, match=r"^elastic operator is not positive definite "
                                            r"\(Cholesky pivot .* of its diagonal entry\)$"):
        el.FactorizedSystem(pattern, system).solve(
            el.boundary_vector(mesh, "right", (1.0, 0.0)))


def test_rigid_mode_fails_the_candidate():
    mesh, bcs = _rigid_mode()
    problem = ComplianceProblem(mesh, MAT, [LoadCase("right", (0.0, -1.0), bcs)], 0.45)
    cand = run_candidate(problem, (1.0,), RunConfig(max_iterations=5))
    assert cand.failed and not cand.converged
    assert re.match(f"SolverFailure: {_RIGID_FAILURE}$", cand.error), cand.error


def _deviator_adjoint_load_reference(mesh, mat, u, tau_e, p, yield_stress):
    """The stress-derivative load written out with one four-operand einsum
    and an unbuffered scatter, as a reference for the production contraction."""
    s = el.element_stresses(el.element_strains(mesh, u), mat)
    mean = (s[:, 0] + s[:, 1] + s[:, 3]) / 3.0
    dev = np.column_stack([s[:, 0] - mean, s[:, 1] - mean, s[:, 2], s[:, 3] - mean])
    vm = np.sqrt(1.5 * (dev[:, 0] ** 2 + dev[:, 1] ** 2 + dev[:, 3] ** 2
                        + 2.0 * dev[:, 2] ** 2))
    ratio = vm / yield_stress
    agg_int = np.sum(ratio ** p * tau_e * mesh.element_areas)
    coef = np.zeros(mesh.num_triangles)
    pos = vm > 0.0
    coef[pos] = (agg_int ** (1.0 / p - 1.0) * ratio[pos] ** (p - 1.0)
                 * 1.5 * tau_e[pos] / (yield_stress * vm[pos]))
    nu = mat.poisson
    c = np.column_stack([dev[:, 0] + nu * dev[:, 3], dev[:, 1] + nu * dev[:, 3],
                         2.0 * dev[:, 2]])
    ge = np.einsum("t,ti,ij,tjk->tk", coef * mesh.element_areas, c,
                   el.plane_strain_matrix(mat), el.strain_displacement(mesh))
    dofs = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    load = np.zeros(2 * mesh.num_nodes)
    np.add.at(load, dofs.ravel(), ge.ravel())
    return load


def test_deviator_adjoint_load_matches_reference():
    mesh = build_rect_mesh(1.0, 0.5, 8, 4, crossed=True)
    rng = np.random.default_rng(7)
    u = rng.normal(0.0, 0.1, 2 * mesh.num_nodes)
    # a stress-free corner exercises the zero limit of vanishing elements
    u[np.repeat(mesh.nodes[:, 0] > 0.7, 2)] = 0.0
    tau = rng.uniform(1e-3, 1.0, mesh.num_triangles)
    for p, f_y in ((5.0, 42.0), (8.0, 0.1), (1.0, 1.0)):
        got = el.deviator_adjoint_load(mesh, MAT, _aggregate(mesh, MAT, u, tau, p, f_y),
                                       tau)
        ref = _deviator_adjoint_load_reference(mesh, MAT, u, tau, p, f_y)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.any(_aggregate(mesh, MAT, u).vm == 0.0)


def _einsum_strains(mesh, u):
    """Element strains from the shape function gradients, one einsum each."""
    grads, ux, uy = mesh.grads, u[0::2][mesh.triangles], u[1::2][mesh.triangles]
    return np.column_stack([
        np.einsum("ta,ta->t", grads[:, :, 0], ux),
        np.einsum("ta,ta->t", grads[:, :, 1], uy),
        np.einsum("ta,ta->t", grads[:, :, 1], ux) + np.einsum("ta,ta->t", grads[:, :, 0], uy)])


def _add_at_projection(mesh, field_e):
    """Area-weighted nodal projection by an unbuffered scatter."""
    num = np.zeros(mesh.num_nodes)
    np.add.at(num, mesh.triangles.ravel(), np.repeat(field_e * mesh.element_areas / 3.0, 3))
    return num / mesh.node_areas


@pytest.mark.parametrize("build", [make_girder, make_lbracket, make_gripper])
def test_mesh_operators_reproduce_the_code_they_replace(build):
    mesh = build().mesh
    rng = np.random.default_rng(11)
    u = rng.normal(0.0, 0.1, 2 * mesh.num_nodes)
    nodal = rng.uniform(-1.0, 1.0, mesh.num_nodes)
    field_e = rng.normal(size=mesh.num_triangles)
    tau = rng.uniform(1e-3, 1.0, mesh.num_triangles)

    def close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    close(el.element_strains(mesh, u), _einsum_strains(mesh, u))
    close(mesh.element_mean_operator @ nodal, nodal[mesh.triangles].mean(axis=1))
    close(element_to_nodes(mesh, field_e), _add_at_projection(mesh, field_e))
    close(el.deviator_adjoint_load(mesh, MAT, _aggregate(mesh, MAT, u, tau, 5.0, 42.0), tau),
          _deviator_adjoint_load_reference(mesh, MAT, u, tau, 5.0, 42.0))
