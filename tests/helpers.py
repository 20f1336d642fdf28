"""Test-only helpers: reference forms that the package itself never runs."""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Tuple

import numpy as np
import pytest

from langsplit.analysis import Histogram2D, Observable, _ChunkMoments
from langsplit.detflow import conservative_step
from langsplit.errors import DegenerateRange, EmptyWindow
from langsplit.experiments import record_stride
from langsplit.model import ArrayLike, PhysParams, State, energy_H, energy_H0
from langsplit.montecarlo import increment_matrix, map_chunks, steps_for
from langsplit.splitting import Trajectory, require_finite, simulate_on_grid
from langsplit.stochflow import naive_increment


def no_child_left() -> None:
    """Every forked worker has been reaped: this process has no child."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def subsystem_field(s: State, prm: PhysParams) -> State:
    """Right-hand side of the conservative subsystem at ``s``."""
    u = prm.upsilon
    return State(p=-0.5 * u * s.p - prm.potential.grad(s.q),
                 q=s.p + 0.5 * u * s.q)


def energy_residual(kind: str, s: State, tau: float,
                    prm: PhysParams) -> ArrayLike:
    """``H(map(s)) - H(s)`` for one deterministic sub-step.

    Near machine zero for the conservative kinds; O(tau^2) and generally
    nonzero for ``sympl_euler``.
    """
    out = conservative_step(kind, s, tau, prm)
    return energy_H(out, prm) - energy_H(s, prm)


def naive_substep_exact(s: State, tau: float, prm: PhysParams,
                        z: ArrayLike) -> State:
    """Naive stochastic sub-step: full-rate OU momentum, frozen position.

    Exact solution of ``dP = -upsilon P dt + sigma dW, dQ = 0``.  The
    position (hence the potential energy) is untouched, which is why this
    sub-step cannot damp the physical energy.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    decay, noise_std = naive_increment(prm, tau)
    return State(decay * s.p + noise_std * z, s.q)


# Reference forms of the invariant density, of the streaming drivers (in
# memory) and of the conservative maps' consistency.


def gibbs_log_density(s: State, prm: PhysParams) -> ArrayLike:
    """Unnormalized log of the invariant density: ``-(2 upsilon / sigma^2) H0``."""
    if prm.sigma == 0:
        raise ValueError("the invariant density needs sigma > 0")
    return -(2.0 * prm.upsilon / prm.sigma**2) * energy_H0(s)


def time_average(trajectory: Trajectory, g: Observable,
                 burn_in: float) -> ArrayLike:
    """Left-endpoint Riemann average of ``g`` after ``burn_in``.

    Averages ``g`` over the states at ``burn_in <= t_n < T``; for a batched
    trajectory the average is taken per path.
    """
    times = trajectory.times
    horizon = times[-1]
    if burn_in >= horizon:
        raise EmptyWindow(
            f"burn-in {burn_in} leaves no window before horizon {horizon}")
    start = int(np.searchsorted(times, burn_in - 1e-12 * max(horizon, 1.0)))
    vals = g(trajectory.p[start:-1], trajectory.q[start:-1])
    return np.mean(vals, axis=0)


def empirical_distribution(states: State, bins: Tuple[int, int],
                           p_range: Tuple[float, float],
                           q_range: Tuple[float, float]) -> Histogram2D:
    """Histogram an ensemble of states; samples outside the window are dropped.

    A non-finite sample is not dropped: it raises :class:`NonConvergence`
    (see :func:`require_finite`).
    """
    n_p, n_q = bins
    if not (p_range[1] > p_range[0] and q_range[1] > q_range[0]):
        raise DegenerateRange(f"bad window {p_range} x {q_range}")
    if n_p < 1 or n_q < 1:
        raise DegenerateRange("need at least one bin per axis")
    p, q = np.broadcast_arrays(np.asarray(states.p, dtype=float),
                               np.asarray(states.q, dtype=float))
    require_finite(p, q)
    counts, p_edges, q_edges = np.histogram2d(
        p.reshape(-1), q.reshape(-1), bins=[n_p, n_q],
        range=[p_range, q_range])
    total = int(counts.sum())
    if total == 0:
        raise DegenerateRange("no samples fall inside the window")
    return Histogram2D(p_edges=p_edges, q_edges=q_edges, counts=counts,
                       n_samples=total)


def msd_curve(trajectory: Trajectory, initial: State):
    """Ensemble mean square displacement from the common initial value.

    Returns ``(times, msd)`` with ``msd[n]`` the across-path mean of
    ``|X_n - X_0|^2``.
    """
    p0 = np.asarray(initial.p, dtype=float)
    q0 = np.asarray(initial.q, dtype=float)
    disp = (trajectory.p - p0) ** 2 + (trajectory.q - q0) ** 2
    axes = tuple(range(1, disp.ndim))
    msd = disp.mean(axis=axes) if axes else disp
    return trajectory.times, msd


class ConsistencyResiduals(NamedTuple):
    """Defect of one conservative step against the subsystem vector field."""

    rA: ArrayLike
    rB: ArrayLike


def consistency_residuals(map_kind: str, s: State, tau: float,
                          prm: PhysParams) -> ConsistencyResiduals:
    """Defect of the one-step increments against the subsystem field.

    With ``A = p1 - p`` and ``B = q1 - q``, returns

        rA = |(u/2) p + U'(q) + A / tau|,
        rB = |p + (u/2) q - B / tau|,

    both of which vanish at rate O(tau) with a state-polynomial prefactor
    for every shipped map kind.
    """
    if tau <= 0:
        raise ValueError("consistency residuals need tau > 0")
    out = conservative_step(map_kind, s, tau, prm)
    f = subsystem_field(s, prm)
    r_a = np.abs((out.p - s.p) / tau - f.p)
    r_b = np.abs((out.q - s.q) / tau - f.q)
    return ConsistencyResiduals(rA=r_a, rB=r_b)


# The path-coupled estimators as whole-horizon algorithms: each chunk builds its
# whole fine increment matrix and runs the reference and every level over it
# in turn.  The package draws the same increments one time block at a time.


def coupled_terminal_stats_whole(scheme, tau_levels, tau_f, T, prm, n_paths,
                                 seeds, initial=State(0.0, 0.0), g=None):
    """``analysis.coupled_terminal_stats`` with each chunk's whole fine grid."""
    def work(path_seeds):
        fine = increment_matrix(T, tau_f, path_seeds)
        ref = simulate_on_grid(initial, tau_f, prm, scheme, fine, tau_f,
                               keep="last")
        part = _ChunkMoments(len(tau_levels))
        for i, tau in enumerate(tau_levels):
            num = simulate_on_grid(initial, tau, prm, scheme, fine, tau_f,
                                   keep="last")
            if g is None:
                val = (num.p - ref.p) ** 2 + (num.q - ref.q) ** 2
            else:
                val = g(num.p, num.q) - g(ref.p, ref.q)
            part.summarise(i, val)
        return part

    moments = _ChunkMoments(len(tau_levels))
    for part in map_chunks(work, n_paths, seeds):
        moments.merge(part)
    mean, se_mean = moments.mean_se()
    if g is None:
        rms = np.sqrt(np.maximum(mean, 0.0))
        se = np.where(rms > 0, se_mean / np.maximum(2.0 * rms, 1e-300), 0.0)
        return rms, se
    return np.abs(mean), se_mean


def record_stride_linear(n_steps: int, n_records: int) -> int:
    """``experiments.record_stride`` as a search down from the cap, one
    candidate stride at a time."""
    stride = max(1, n_steps // n_records)
    while n_steps % stride != 0:
        stride -= 1
    return stride


def long_time_error_whole(scheme, tau, tau_f, T, prm, n_paths, seeds,
                          initial=State(0.0, 0.0), n_records=1024):
    """``experiments.long_time_error`` with each chunk's whole fine grid."""
    ratio = steps_for(tau, tau_f, minimum=1)
    n_steps = steps_for(T, tau)
    stride = record_stride(n_steps, n_records)
    n_rec = n_steps // stride

    def work(path_seeds):
        fine = increment_matrix(T, tau_f, path_seeds)
        ref = simulate_on_grid(initial, tau_f, prm, scheme, fine, tau_f,
                               record_every=stride * ratio)
        num = simulate_on_grid(initial, tau, prm, scheme, fine, tau_f,
                               record_every=stride)
        return ((num.p - ref.p) ** 2 + (num.q - ref.q) ** 2).sum(axis=1)

    acc = np.zeros(n_rec + 1)
    for part in map_chunks(work, n_paths, seeds):
        acc += part
    times = np.arange(n_rec + 1) * (stride * tau)
    return times, np.sqrt(acc / n_paths)


# The step kernels' expression forms: every pass allocates its result, with
# Python-float constants, as the maps and sub-steps were written before
# they took work buffers.  Each lane of a kernel must equal its oracle bit
# for bit.  The potential's terms are written out, not called.


def _oracle_state(p, q) -> State:
    return State(p if p.ndim else float(p), q if q.ndim else float(q))


def _oracle_cubic_increment(q0, k, c0):
    q2 = q0 * q0
    c1 = 6.0 * q2
    c1 += k
    r = (2.0 / 3.0) * q2
    r += k
    r /= 3.0
    r = np.sqrt(r)
    t = (88.0 / 27.0) * q2
    t += (4.0 / 3.0) * k
    t *= q0
    t = c0 - t
    r3 = 2.0 * r
    r3 *= r
    r3 *= r
    t /= r3
    t = np.arcsinh(t)
    t /= 3.0
    d = np.sinh(t)
    r *= -2.0
    d *= r
    d -= (4.0 / 3.0) * q0
    f = 4.0 * q0
    f += d
    f *= d
    f += c1
    f *= d
    f += c0
    df = 3.0 * d
    df += 8.0 * q0
    df *= d
    df += c1
    f /= df
    d -= f
    return d


def _oracle_cubic_map(p0, q0, tau, k, c_p, c_q, keep, scale) -> State:
    c0 = 4.0 * q0
    c0 *= q0
    c0 *= q0
    c0 -= c_p * p0
    c0 -= c_q * q0
    q1 = _oracle_cubic_increment(q0, k, c0)
    q1 += q0
    p1 = -tau * (0.25 * (q0 + q1) * (q0 * q0 + q1 * q1))
    p1 += p0 if keep == 1.0 else keep * p0
    p1 /= scale
    return _oracle_state(p1, q1)


def oracle_avf_step(s: State, tau: float, prm: PhysParams) -> State:
    p0, q0 = np.asarray(s.p, dtype=float), np.asarray(s.q, dtype=float)
    a4 = 0.25 * tau * prm.upsilon
    return _oracle_cubic_map(p0, q0, tau, 8.0 * (1.0 - a4 * a4) / (tau * tau),
                             8.0 / tau, 16.0 * a4 * (1.0 + a4) / (tau * tau),
                             1.0 - a4, 1.0 + a4)


def oracle_pavf_step(s: State, tau: float, prm: PhysParams) -> State:
    p0, q0 = np.asarray(s.p, dtype=float), np.asarray(s.q, dtype=float)
    a2 = 0.5 * tau * prm.upsilon
    return _oracle_cubic_map(p0, q0, tau, 8.0 * (1.0 + a2) / (tau * tau),
                             4.0 * (2.0 + a2) / tau,
                             8.0 * a2 * (1.0 + a2) / (tau * tau), 1.0, 1.0 + a2)


def oracle_newton(residual, jacobian, guess: State) -> Tuple[State, int]:
    """The 2-D Newton solve, with its iteration count."""
    p = np.asarray(guess.p, dtype=float)
    q = np.asarray(guess.q, dtype=float)
    scale = np.maximum(np.abs(p), np.abs(q))
    tol = 1e-14 + 1e-12 * scale

    def check(x):
        f1, f2 = residual(x)
        norm = np.maximum(np.abs(f1), np.abs(f2))
        active = ~(norm <= tol)
        return f1, f2, active, np.count_nonzero(active)

    x = State(p, q)
    f1, f2, active, n_active = check(x)
    iterations = 0
    while n_active and iterations < 50:
        j11, j12, j21, j22 = jacobian(x)
        det = j11 * j22 - j12 * j21
        if n_active == active.size:
            p = p - (j22 * f1 - j12 * f2) / det
            q = q - (j11 * f2 - j21 * f1) / det
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(active, p - (j22 * f1 - j12 * f2) / det, p)
                q = np.where(active, q - (j11 * f2 - j21 * f1) / det, q)
        x = State(p, q)
        f1, f2, active, n_active = check(x)
        iterations += 1
    assert not n_active, "the oracle did not converge"
    return _oracle_state(p, q), iterations


def oracle_dg_step(s: State, tau: float, prm: PhysParams):
    """The dg map and its Newton iteration count."""
    p0, q0 = np.asarray(s.p, dtype=float), np.asarray(s.q, dtype=float)
    a = 0.25 * tau * prm.upsilon
    up, down = 1.0 + a, 1.0 - a
    e1 = (2.0 * a) * p0
    e2 = tau * p0 + (2.0 * a) * q0

    def terms(x):
        dp = x.p - p0
        dq = x.q - q0
        h = 0.5 * dq
        mq = q0 + h
        dd = dp * dp + dq * dq
        inv = np.divide(1.0, dd, out=np.zeros_like(dd), where=dd >= 1e-28)
        w = h * h * inv
        return dp, dq, h, mq, inv, w, mq * dq * w

    def residual(x):
        dp, dq, h, mq, inv, w, c = terms(x)
        return (up * dp + e1 + tau * (mq * mq * mq + c * dq),
                down * dq - e2 - tau * ((0.5 + c) * dp))

    def jacobian(x):
        dp, dq, h, mq, inv, w, c = terms(x)
        m2c = -2.0 * c * inv
        dc_dp1 = m2c * dp
        dc_dq1 = (h + 3.0 * mq) * w + m2c * dq
        return (up + tau * (dc_dp1 * dq),
                tau * (0.5 * (3.0 * mq**2) + dc_dq1 * dq + c),
                -tau * (0.5 + c + dc_dp1 * dp),
                down - tau * (dc_dq1 * dp))

    guess = State(p0 - e1 - tau * (q0 * q0 * q0), q0 + e2)
    return oracle_newton(residual, jacobian, guess)


def oracle_sympl_euler_step(s: State, tau: float, prm: PhysParams) -> State:
    u = prm.upsilon
    p1 = (s.p - tau * (s.q * s.q * s.q)) / (1.0 + 0.5 * tau * u)
    return State(p1, s.q + tau * (p1 + 0.5 * u * s.q))


def oracle_ou_apply(decay: float, noise_std: float, s: State,
                    z: ArrayLike) -> State:
    return State(decay * s.p + noise_std * z, decay * s.q)


def oracle_ou_coupled(s: State, increments: np.ndarray, tau_f: float,
                      prm: PhysParams) -> State:
    span = increments.shape[0] * tau_f
    decay = math.exp(-0.5 * prm.upsilon * span)
    k = np.arange(increments.shape[0])
    w = np.exp(-0.5 * prm.upsilon * (span - (k + 0.5) * tau_f))
    conv = w @ increments
    if np.ndim(conv) == 0:
        conv = float(conv)
    return State(decay * s.p + prm.sigma * conv, decay * s.q)
