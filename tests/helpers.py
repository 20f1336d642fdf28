"""Test-only helpers: reference forms that the package itself never runs."""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from langsplit.analysis import Histogram2D, Observable, _ChunkMoments
from langsplit.detflow import conservative_step, subsystem_field
from langsplit.errors import DegenerateRange, EmptyWindow
from langsplit.experiments import record_stride
from langsplit.model import ArrayLike, PhysParams, State, energy_H, energy_H0
from langsplit.montecarlo import increment_matrix, map_chunks, steps_for
from langsplit.splitting import Trajectory, require_finite, simulate_on_grid
from langsplit.stochflow import naive_increment


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
