"""Stick-breaking coordinates on the weight simplex and their forced,
damped oscillator dynamics.

The free coordinates q live in (0, 1)^(m-1); the induced weights satisfy
positivity and sum-to-one identically, so no constraint handling is needed
during the evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


def in_open_simplex(w) -> bool:
    """The rule for a reference weight of two or more objectives: every
    component in (0, 1), summing to one within 1e-9."""
    w = np.asarray(w, dtype=float).ravel()
    return bool(np.all((w > 0.0) & (w < 1.0)) and abs(w.sum() - 1.0) <= 1e-9)


def stick_to_weights(q) -> np.ndarray:
    """Map free coordinates to simplex weights.

    w_v = (1 - q_v) * prod_{u<v} q_u for v < m, and w_m = prod q_u.
    """
    q = np.asarray(q, dtype=float).ravel()
    if q.size and (q.min() <= 0.0 or q.max() >= 1.0):
        raise InvalidArgument("stick coordinates must lie strictly in (0, 1)")
    prefix = np.cumprod(np.concatenate([[1.0], q]))  # prefix[v] = prod_{u<v} q_u
    return np.append((1.0 - q) * prefix[:-1], prefix[-1])


def weights_to_stick(w) -> np.ndarray:
    """Inverse map: q_u = tail_sum(u+1) / tail_sum(u)."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 1:  # single objective: the simplex is one point
        if abs(w[0] - 1.0) > 1e-12:
            raise InvalidArgument("a single weight must equal one")
        return np.empty(0)
    if not in_open_simplex(w):
        raise InvalidArgument(f"weights {tuple(w.tolist())} are not in the open simplex")
    tails = np.cumsum(w[::-1])[::-1]  # tails[u] = sum_{v >= u} w_v
    return tails[1:] / tails[:-1]


def stick_jacobian(q) -> np.ndarray:
    """Analytic (m, m-1) matrix of dw_v / dq_u; columns sum to zero."""
    q = np.asarray(q, dtype=float).ravel()
    prefix = np.cumprod(np.concatenate([[1.0], q]))  # prefix[v] = prod_{u<v} q_u
    # dw_v/dq_u = w_v / q_u below the diagonal, -prefix_v on it
    jac = np.tril(((1.0 - q) * prefix[:-1])[:, None] / q, -1)
    np.fill_diagonal(jac, -prefix[:-1])
    return np.vstack([jac, prefix[-1] / q])


def forcing(q_now, q_prev, j_now, j_prev, j_star, ds: float = 1.0) -> np.ndarray:
    """Backward-difference rate of the weighted-objective gradient.

    g_u(s) = sum_a dw_a/dq_u (q^s) * J_a^s / J_a^*; the forcing is
    (g(s) - g(s-1)) / ds. With no usable history it is zero.
    """
    q_now = np.asarray(q_now, dtype=float).ravel()
    if j_prev is None:
        return np.zeros(q_now.size)
    r_now = np.asarray(j_now, dtype=float) / np.asarray(j_star, dtype=float)
    r_prev = np.asarray(j_prev, dtype=float) / np.asarray(j_star, dtype=float)
    g_now = stick_jacobian(q_now).T @ r_now
    g_prev = stick_jacobian(np.asarray(q_prev, dtype=float).ravel()).T @ r_prev
    return (g_now - g_prev) / ds


@dataclass
class WeightState:
    """Two-step history of the stick coordinates plus oscillator parameters."""

    q: np.ndarray
    q_prev: np.ndarray
    q_star: np.ndarray
    inertia: float = 1.0
    damping: float = 1.0
    stiffness: float = 1.0
    clamp_margin: float = 1e-3
    ds: float = 1.0
    clamp_events: int = 0

    def __post_init__(self):
        for name in ("inertia", "damping", "stiffness"):
            if getattr(self, name) <= 0.0:
                raise InvalidArgument(f"{name} must be positive")
        if not 0.0 < self.clamp_margin < 0.5:
            raise InvalidArgument("clamp margin must lie in (0, 0.5)")

    @property
    def weights(self) -> np.ndarray:
        return stick_to_weights(self.q)


def make_state(w_star, inertia=1.0, damping=1.0, stiffness=1.0,
               clamp_margin=1e-3, start_ratio=1.0, ds=1.0) -> WeightState:
    """Initialize both history slots at start_ratio * q_star (clamped)."""
    q_star = weights_to_stick(w_star)
    q0 = np.clip(start_ratio * q_star, clamp_margin, 1.0 - clamp_margin)
    return WeightState(q=q0.copy(), q_prev=q0.copy(), q_star=q_star,
                       inertia=inertia, damping=damping, stiffness=stiffness,
                       clamp_margin=clamp_margin, ds=ds)


def step(state: WeightState, forcing_vec) -> np.ndarray:
    """Explicit oscillator update; rotates history and returns the new q."""
    f = np.asarray(forcing_vec, dtype=float).ravel()
    if f.shape != state.q.shape:
        raise InvalidArgument("forcing dimension does not match coordinates")
    m, b, k, ds = state.inertia, state.damping, state.stiffness, state.ds
    denom = m + b * ds + k * ds ** 2
    q_new = ((2.0 * m + b * ds) * state.q - m * state.q_prev
             + (k * state.q_star - f) * ds ** 2) / denom
    clipped = np.clip(q_new, state.clamp_margin, 1.0 - state.clamp_margin)
    state.clamp_events += int(np.count_nonzero(clipped != q_new))
    state.q_prev = state.q
    state.q = clipped
    return state.q
