import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molto.weights as wt
from molto.errors import InvalidArgument


def test_two_objective_mapping():
    w = wt.stick_to_weights([0.3])
    assert np.allclose(w, [0.7, 0.3], atol=1e-15)
    assert wt.weights_to_stick([0.7, 0.3])[0] == pytest.approx(0.3, abs=1e-15)


def test_three_objective_mapping():
    w = wt.stick_to_weights([0.5, 0.5])
    assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-15)
    assert np.allclose(wt.weights_to_stick([0.5, 0.25, 0.25]), [0.5, 0.5], atol=1e-14)


def test_uniform_weights_tail_ratios():
    for m in (2, 3, 5, 8):
        q = wt.weights_to_stick(np.full(m, 1.0 / m))
        expected = [(m - mu) / (m - mu + 1.0) for mu in range(1, m)]
        assert np.allclose(q, expected, atol=1e-14)


def test_normalization_identity():
    for m in (2, 3, 6):
        w = wt.stick_to_weights(np.full(m - 1, 0.5))
        assert abs(w.sum() - 1.0) < 1e-14


def test_domain_validation():
    with pytest.raises(InvalidArgument):
        wt.stick_to_weights([0.0])
    with pytest.raises(InvalidArgument):
        wt.stick_to_weights([1.0])
    with pytest.raises(InvalidArgument):
        wt.weights_to_stick([1.0, 0.0])


def test_weights_off_the_unit_sum_are_rejected():
    # every component in (0, 1) is not enough: the components must also sum
    # to one, or the oscillator would run at the rescaled weight while the
    # register recorded the given one
    assert wt.in_open_simplex((0.5, 0.5))
    assert wt.in_open_simplex((0.5, 0.5 + 5e-10))
    for w in [(0.5, 0.6), (0.3, 0.3, 0.3), (0.5, 0.5 + 2e-9),
              (1.5, -0.5), (1.0,), (0.5, np.nan)]:
        assert not wt.in_open_simplex(w)
    with pytest.raises(InvalidArgument, match="open simplex"):
        wt.weights_to_stick((0.5, 0.6))
    from molto.optimizer import RunConfig, run_candidate
    from molto.problems import make_girder
    cand = run_candidate(make_girder(nx=8, ny=4), (0.5, 0.6),
                         RunConfig(max_iterations=5))
    assert cand.failed and "open simplex" in cand.error
    assert cand.iterations == 0 and not cand.history
    # the simplex of one objective is the point w = (1,), its own rule
    assert wt.weights_to_stick([1.0]).shape == (0,)
    with pytest.raises(InvalidArgument):
        wt.weights_to_stick([0.9])


def test_single_objective_degenerate():
    assert np.allclose(wt.stick_to_weights([]), [1.0])
    jac = wt.stick_jacobian([])
    assert jac.shape == (1, 0)


def test_jacobian_two_objectives():
    jac = wt.stick_jacobian([0.3])
    assert jac[0, 0] == pytest.approx(-1.0)
    assert jac[1, 0] == pytest.approx(1.0)


def test_jacobian_three_objectives():
    jac = wt.stick_jacobian([0.5, 0.5])
    assert jac[1, 1] == pytest.approx(-0.5)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for m in (2, 3, 5):
        for _ in range(100):
            q = rng.uniform(0.05, 0.95, m - 1)
            jac = wt.stick_jacobian(q)
            for mu in range(m - 1):
                qp, qm = q.copy(), q.copy()
                qp[mu] += h
                qm[mu] -= h
                fd = (wt.stick_to_weights(qp) - wt.stick_to_weights(qm)) / (2 * h)
                assert np.abs(jac[:, mu] - fd).max() < 1e-7


def test_jacobian_columns_sum_to_zero():
    rng = np.random.default_rng(1)
    for m in (2, 4, 6):
        q = rng.uniform(0.1, 0.9, m - 1)
        assert np.abs(wt.stick_jacobian(q).sum(axis=0)).max() < 1e-14


def _loop_weights_and_jacobian(q):
    """The stick-breaking map and its Jacobian, entry by entry."""
    m = q.size + 1
    w, jac, prefix = np.empty(m), np.zeros((m, m - 1)), [1.0]
    for v in range(m - 1):
        w[v] = (1.0 - q[v]) * prefix[v]
        prefix.append(prefix[v] * q[v])
    w[m - 1] = prefix[m - 1]
    for v in range(m - 1):
        for u in range(v):
            jac[v, u] = (1.0 - q[v]) * prefix[v] / q[u]
        jac[v, v] = -prefix[v]
    for u in range(m - 1):
        jac[m - 1, u] = prefix[m - 1] / q[u]
    return w, jac


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=0, max_size=4))
def test_closed_forms_match_the_product_loops(qvals):
    # same products in the same order, so equal bit for bit
    q = np.array(qvals)
    w, jac = _loop_weights_and_jacobian(q)
    assert wt.stick_to_weights(q).tobytes() == w.tobytes()
    assert wt.stick_jacobian(q).shape == jac.shape
    assert wt.stick_jacobian(q).tobytes() == jac.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5),
       st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4))
def test_roundtrip_property(m, qvals):
    q = np.array(qvals[: m - 1])
    w = wt.stick_to_weights(q)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.abs(wt.weights_to_stick(w) - q).max() < 1e-10


def test_forcing_stationary_and_without_history():
    q = np.array([0.3])
    assert np.allclose(wt.forcing(q, q, [1.0, 2.0], None, [1.0, 2.0]), 0.0)
    f = wt.forcing(q, q, np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                   np.array([1.0, 2.0]))
    assert np.allclose(f, 0.0)


def test_forcing_two_point_evaluation():
    q = np.array([0.3])
    j_star = np.array([1.0, 1.0])
    f = wt.forcing(q, q, np.array([1.1, 1.0]), np.array([1.0, 1.0]), j_star)
    # g = -J1/J1* + J2/J2* changes by -0.1
    assert f[0] == pytest.approx(-0.1, abs=1e-14)


def test_forcing_label_permutation_symmetry():
    j_now = np.array([1.3, 0.9])
    j_prev = np.array([1.0, 1.0])
    j_star = np.array([1.0, 1.0])
    q = np.array([0.3])
    f = wt.forcing(q, q, j_now, j_prev, j_star)
    f_swapped = wt.forcing(1.0 - q, 1.0 - q, j_now[::-1], j_prev[::-1], j_star)
    assert abs(np.linalg.norm(f) - np.linalg.norm(f_swapped)) < 1e-14


def test_step_equilibrium_fixed_point():
    state = wt.WeightState(q=np.array([0.3]), q_prev=np.array([0.3]),
                           q_star=np.array([0.3]))
    q_new = wt.step(state, np.zeros(1))
    assert abs(q_new[0] - 0.3) <= 1e-14


def test_step_direct_evaluation():
    # M = B = K = 1, ds = 1, q = q_prev = 0, q* = 1, F = 0 -> 1/3
    state = wt.WeightState(q=np.zeros(1), q_prev=np.zeros(1),
                           q_star=np.ones(1), clamp_margin=1e-6)
    q_new = wt.step(state, np.zeros(1))
    assert q_new[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_step_ws_limit():
    # huge stiffness pins the coordinates at the reference
    state = wt.make_state([0.7, 0.3], inertia=1.0, damping=1.0, stiffness=1e6)
    rng = np.random.default_rng(2)
    for _ in range(500):
        wt.step(state, rng.uniform(-1.0, 1.0, 1))
    assert np.abs(state.q - state.q_star).max() <= 1e-4


def test_step_converges_to_reference():
    state = wt.WeightState(q=np.array([0.9]), q_prev=np.array([0.9]),
                           q_star=np.array([0.2]), inertia=1.0, damping=2.0,
                           stiffness=1.0)
    for _ in range(500):
        wt.step(state, np.zeros(1))
    assert np.abs(state.q - 0.2).max() <= 1e-6


def test_step_clamping_counted():
    state = wt.WeightState(q=np.array([0.5]), q_prev=np.array([0.5]),
                           q_star=np.array([0.5]), clamp_margin=1e-3)
    wt.step(state, np.array([100.0]))
    assert state.clamp_events == 1
    assert state.q[0] == pytest.approx(1e-3)


def test_make_state_start_ratio():
    state = wt.make_state([0.9, 0.1], start_ratio=0.0, clamp_margin=1e-3)
    assert state.q[0] == pytest.approx(1e-3)  # clamped toward zero
    assert state.q_star[0] == pytest.approx(0.1)
    state = wt.make_state([0.9, 0.1], start_ratio=1.0)
    assert state.q[0] == pytest.approx(0.1)


def test_state_validation():
    with pytest.raises(InvalidArgument):
        wt.WeightState(q=np.array([0.5]), q_prev=np.array([0.5]),
                       q_star=np.array([0.5]), inertia=0.0)
