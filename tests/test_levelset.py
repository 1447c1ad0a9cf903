import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molto.levelset as ls
from molto.errors import InvalidArgument
from molto.mesh import build_rect_mesh, tag_boundary


def _laplacian_oracle(mesh):
    """Cotangent-formula P1 Laplacian, assembled edge by edge."""
    n = mesh.num_nodes
    k = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        for local in range(3):
            i, j, o = tri[local], tri[(local + 1) % 3], tri[(local + 2) % 3]
            e1 = mesh.nodes[i] - mesh.nodes[o]
            e2 = mesh.nodes[j] - mesh.nodes[o]
            cot = (e1 @ e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
            k[i, j] -= cot / 2.0
            k[j, i] -= cot / 2.0
            k[i, i] += cot / 2.0
            k[j, j] += cot / 2.0
    return k


def test_wave_matrices_basics():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    stiffness = ls.assemble_wave(mesh, 0.3)
    const = np.ones(mesh.num_nodes)
    assert np.abs(stiffness @ const).max() < 1e-12
    row_sums = np.asarray(mesh.mass.sum(axis=1)).ravel()
    assert np.allclose(row_sums, mesh.node_areas, atol=1e-14)
    assert row_sums.sum() == pytest.approx(1.0, abs=1e-12)


def test_wave_stiffness_matches_cotangent_laplacian():
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    c0 = 0.7
    oracle = _laplacian_oracle(mesh)
    assert np.allclose(mesh.laplacian.toarray(), oracle, atol=1e-13)
    assert np.allclose(ls.assemble_wave(mesh, c0).toarray(), c0 ** 2 * oracle, atol=1e-13)
    # the cached Laplacian is shared, so it is read-only
    with pytest.raises(ValueError):
        mesh.laplacian.data[0] = 0.0


def test_wave_speed_validation():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    for speed in (-0.1, 0.0, float("nan")):
        with pytest.raises(InvalidArgument):
            ls.assemble_wave(mesh, speed)


def _state(mesh, phi0, phi_prev, damping=0.5, dirichlet=((), ()), speed=0.2):
    factors = ls.factorize(mesh.mass, ls.assemble_wave(mesh, speed), damping, 1.0,
                           dirichlet)
    return ls.initialize(mesh, phi0, phi_prev, factors, width=1.0)


def test_constant_field_is_stationary():
    mesh = build_rect_mesh(1.0, 1.0, 5, 5)
    const = np.full(mesh.num_nodes, 0.37)
    state = _state(mesh, const, const.copy(), damping=0.25)
    for _ in range(3):
        ls.step(state, np.zeros(mesh.num_nodes))
    assert np.abs(state.phi - 0.37).max() < 1e-12


def test_dirichlet_values_stamped_and_held():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "load")
    nodes = mesh.nodes_with_tag("load")
    phi0 = np.full(mesh.num_nodes, 0.2)
    state = _state(mesh, phi0, phi0.copy(),
                   dirichlet=(nodes, np.ones(nodes.size)))
    assert np.all(state.phi[nodes] == 1.0)
    ls.step(state, np.full(mesh.num_nodes, 5.0))
    assert np.all(state.phi[nodes] == 1.0)


def test_initialize_rejects_out_of_range():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    good = np.ones(mesh.num_nodes)
    bad = good.copy()
    bad[0] = 2.0
    with pytest.raises(InvalidArgument):
        _state(mesh, bad, good)
    with pytest.raises(InvalidArgument):
        _state(mesh, good, bad)


def test_initial_velocity_encoding():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    phi0 = np.ones(mesh.num_nodes)
    phi_prev = np.full(mesh.num_nodes, 0.5)
    state = _state(mesh, phi0, phi_prev)
    assert np.allclose(state.velocity(), 0.5)


def test_free_decay():
    mesh = build_rect_mesh(1.0, 1.0, 16, 16)
    rng = np.random.default_rng(42)
    bump = (0.5 * np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
            + 0.1 * rng.uniform(-1.0, 1.0, mesh.num_nodes))
    state = _state(mesh, bump, np.zeros_like(bump), damping=0.5)
    zero = np.zeros(mesh.num_nodes)
    diffs = []
    for _ in range(500):
        ls.step(state, zero)
        diffs.append(np.linalg.norm(state.phi - state.phi_prev))
    # decreasing through the first 50 steps (sampled to skip sub-period wiggle)
    sampled = diffs[0:50:10]
    assert all(a > b for a, b in zip(sampled, sampled[1:]))
    assert diffs[-1] <= 1e-6


def test_clamp_counting_and_logging():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    phi0 = np.zeros(mesh.num_nodes)
    state = _state(mesh, phi0, phi0.copy())
    ls.step(state, np.full(mesh.num_nodes, 50.0))
    assert state.clamp_events > 0
    assert np.abs(state.phi).max() <= 1.0


def test_no_clamp_under_moderate_forcing():
    # smooth forcing with |F| * b * ds^2 <= 2 and interior-valued history
    mesh = build_rect_mesh(1.0, 1.0, 16, 16)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    phi0 = 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y)
    state = _state(mesh, phi0, phi0.copy(), damping=0.5)
    forcing = 1.8 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
    ls.step(state, forcing)
    assert state.clamp_events == 0


def test_step_deterministic():
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(7)
    phi0 = rng.uniform(-0.5, 0.5, mesh.num_nodes)
    forcing = rng.normal(0.0, 1.0, mesh.num_nodes)
    results = []
    for _ in range(2):
        state = _state(mesh, phi0.copy(), phi0.copy())
        for _ in range(5):
            ls.step(state, forcing)
        results.append(state.phi.copy())
    assert np.array_equal(results[0], results[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_energy_dissipation_property(seed):
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(-0.8, 0.8, mesh.num_nodes)
    phi_prev = np.clip(phi0 + rng.uniform(-0.1, 0.1, mesh.num_nodes), -1.0, 1.0)
    state = _state(mesh, phi0, phi_prev, damping=0.3)
    zero = np.zeros(mesh.num_nodes)
    ls.step(state, zero)
    energies = [state.energy()]
    for _ in range(30):
        ls.step(state, zero)
        energies.append(state.energy())
    e = np.array(energies)
    assert np.all(e[1:] <= e[:-1] + 1e-12 * max(e[0], 1e-30))
