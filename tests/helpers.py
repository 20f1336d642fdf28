"""Test-only helpers: reference forms that the package itself never runs."""

from __future__ import annotations

import numpy as np

from langsplit.detflow import SolverSettings, conservative_step
from langsplit.errors import NonIntegralGrid, NonIntegralRatio
from langsplit.model import ArrayLike, PhysParams, State, energy_H
from langsplit.montecarlo import increment_matrix, path_chunks, steps_for
from langsplit.splitting import simulate_on_grid
from langsplit.stochflow import naive_increment


def energy_residual(kind: str, s: State, tau: float, prm: PhysParams,
                    settings: SolverSettings = SolverSettings()) -> ArrayLike:
    """``H(map(s)) - H(s)`` for one deterministic sub-step.

    Near machine zero for the conservative kinds; O(tau^2) and generally
    nonzero for ``sympl_euler``.
    """
    out = conservative_step(kind, s, tau, prm, settings)
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


# The path-coupled estimators as whole-horizon algorithms: each chunk builds its
# whole fine increment matrix and runs the reference and every level over it
# in turn.  The package draws the same increments one time block at a time.


def coupled_terminal_stats_whole(scheme, tau_levels, tau_f, T, prm, n_paths,
                                 seeds, initial=State(0.0, 0.0), g=None,
                                 chunk=1024):
    """``analysis.coupled_terminal_stats`` with each chunk's whole fine grid."""
    sums = np.zeros(len(tau_levels))
    sumsq = np.zeros(len(tau_levels))
    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        fine = increment_matrix(T, tau_f, path_seeds)
        ref = simulate_on_grid(initial, tau_f, prm, scheme, fine, tau_f,
                               keep="last", first_path=first)
        for i, tau in enumerate(tau_levels):
            num = simulate_on_grid(initial, tau, prm, scheme, fine, tau_f,
                                   keep="last", first_path=first)
            if g is None:
                val = (num.p - ref.p) ** 2 + (num.q - ref.q) ** 2
            else:
                val = g(num.p, num.q) - g(ref.p, ref.q)
            sums[i] += val.sum()
            sumsq[i] += (val * val).sum()
    mean = sums / n_paths
    var = np.maximum(sumsq / n_paths - mean**2, 0.0) * n_paths / max(n_paths - 1, 1)
    se_mean = np.sqrt(var / n_paths)
    if g is None:
        rms = np.sqrt(np.maximum(mean, 0.0))
        se = np.where(rms > 0, se_mean / np.maximum(2.0 * rms, 1e-300), 0.0)
        return rms, se
    return np.abs(mean), se_mean


def long_time_error_whole(scheme, tau, tau_f, T, prm, n_paths, seeds,
                          initial=State(0.0, 0.0), n_records=1024, chunk=32):
    """``experiments.long_time_error`` with each chunk's whole fine grid;
    at ``chunk=32`` it adds the same 32-path sums in the same order."""
    ratio = steps_for(tau, tau_f, NonIntegralRatio, minimum=1)
    steps_for(T, tau_f, NonIntegralGrid, minimum=1)
    n_steps = steps_for(T, tau, NonIntegralRatio)
    stride = max(1, n_steps // n_records)
    while n_steps % stride != 0:
        stride -= 1
    n_rec = n_steps // stride
    acc = np.zeros(n_rec + 1)
    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        fine = increment_matrix(T, tau_f, path_seeds)
        ref = simulate_on_grid(initial, tau_f, prm, scheme, fine, tau_f,
                               record_every=stride * ratio, first_path=first)
        num = simulate_on_grid(initial, tau, prm, scheme, fine, tau_f,
                               record_every=stride, first_path=first)
        acc += ((num.p - ref.p) ** 2 + (num.q - ref.q) ** 2).sum(axis=1)
    times = np.arange(n_rec + 1) * (stride * tau)
    return times, np.sqrt(acc / n_paths)
