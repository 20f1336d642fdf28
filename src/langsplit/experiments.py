"""Streaming drivers for the long-horizon measurements.

These run the schemes over long horizons or large ensembles while holding
only running statistics in memory.  Noise consumption matches
:func:`langsplit.splitting.simulate` exactly (per-path generators drawn in
time order), so a streamed run and an in-memory run with the same seeds
produce identical paths.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .analysis import Histogram2D, Observable
from .errors import DegenerateRange, NonIntegralGrid, NonIntegralRatio
from .model import PhysParams, State
from .montecarlo import (SeedPolicy, increment_matrix, path_chunks, path_noise,
                         steps_for)
from .splitting import SchemeSpec, _evolve, simulate_on_grid

__all__ = [
    "stream_paths",
    "ergodic_averages",
    "msd_experiment",
    "histogram_snapshots",
    "long_time_error",
    "window_means",
]


def stream_paths(scheme: SchemeSpec, prm: PhysParams, tau: float,
                 n_steps: int, initial: State, path_seeds: Sequence[int],
                 visit: Callable[[int, State], None],
                 first_path: int = 0) -> None:
    """Evolve a batch of paths, calling ``visit(n, state)`` at every step.

    ``visit`` is called with n = 0 (the initial state) through n_steps; the
    state's fields are arrays of width ``len(path_seeds)``.  A non-finite
    state raises :class:`~langsplit.errors.NonConvergence` naming its step
    and its path, counted from ``first_path``.
    """
    _evolve(initial, (len(path_seeds),), tau, prm, scheme,
            path_noise(path_seeds, n_steps), visit, first_path)


def ergodic_averages(scheme: SchemeSpec, prm: PhysParams, tau: float,
                     T: float, burn_in: float, n_seeds: int,
                     seeds: SeedPolicy, initial: State,
                     observables: Dict[str, Observable]
                     ) -> Dict[str, np.ndarray]:
    """Per-seed time averages of observables over one long path each.

    Each seed drives an independent path from ``initial``; the average is
    the left-endpoint Riemann mean over ``burn_in <= t_n < T``.  Returns
    one array of ``n_seeds`` averages per observable.
    """
    n_steps = steps_for(T, tau)
    n_burn = steps_for(burn_in, tau)
    if n_burn >= n_steps:
        raise ValueError("burn-in must leave a nonempty window before T")
    count = n_steps - n_burn
    sums = {name: np.zeros(n_seeds) for name in observables}

    def visit(n, st):
        if n_burn <= n < n_steps:
            for name, g in observables.items():
                sums[name] += g(st.p, st.q)

    stream_paths(scheme, prm, tau, n_steps, initial,
                 seeds.path_seeds(n_seeds), visit)
    return {name: total / count for name, total in sums.items()}


def msd_experiment(scheme: SchemeSpec, prm: PhysParams, tau: float, T: float,
                   n_paths: int, seeds: SeedPolicy, initial: State,
                   chunk: int = 1024) -> Tuple[np.ndarray, np.ndarray]:
    """Ensemble mean square displacement from ``initial``, streamed.

    Returns ``(times, msd)`` over the full step grid.
    """
    n_steps = steps_for(T, tau)
    acc = np.zeros(n_steps + 1)
    p0, q0 = float(initial.p), float(initial.q)

    def visit(n, st):
        d = (st.p - p0) ** 2 + (st.q - q0) ** 2
        acc[n] += d.sum()

    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        stream_paths(scheme, prm, tau, n_steps, initial, path_seeds, visit,
                     first)
    times = np.arange(n_steps + 1) * tau
    return times, acc / n_paths


def histogram_snapshots(scheme: SchemeSpec, prm: PhysParams, tau: float,
                        snapshot_times: Sequence[float], n_paths: int,
                        seeds: SeedPolicy, initial: State,
                        bins: Tuple[int, int],
                        p_range: Tuple[float, float],
                        q_range: Tuple[float, float],
                        chunk: int = 2048):
    """Empirical distributions of the ensemble at selected times, streamed.

    Returns one :class:`Histogram2D` per snapshot time (same bin layout).

    Raises
    ------
    NonConvergence
        At the first non-finite state, naming its step and path, instead of
        dropping the path from the histogram.
    ValueError
        If a snapshot time is not on the step grid.
    """
    n_p, n_q = bins
    if not (p_range[1] > p_range[0] and q_range[1] > q_range[0]):
        raise DegenerateRange(f"bad window {p_range} x {q_range}")
    snap_steps = {steps_for(t, tau): t for t in snapshot_times}
    n_steps = max(snap_steps) if snap_steps else 0

    counts = {n: np.zeros((n_p, n_q)) for n in snap_steps}
    edges = {}

    def visit(n, st):
        if n in counts:
            c, pe, qe = np.histogram2d(st.p, st.q, bins=[n_p, n_q],
                                       range=[p_range, q_range])
            counts[n] += c
            edges[n] = (pe, qe)

    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        stream_paths(scheme, prm, tau, n_steps, initial, path_seeds, visit,
                     first)

    out = []
    for n in sorted(snap_steps):
        c = counts[n]
        total = int(c.sum())
        if total == 0:
            raise DegenerateRange("no samples fall inside the window")
        pe, qe = edges[n]
        out.append(Histogram2D(p_edges=pe, q_edges=qe, counts=c,
                               n_samples=total))
    return out


def long_time_error(scheme: SchemeSpec, tau: float, reference_tau_f: float,
                    T: float, prm: PhysParams, n_paths: int,
                    seeds: SeedPolicy, initial: State = State(0.0, 0.0),
                    n_records: int = 1024, chunk: int = 32
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Root-mean-square pathwise error on a time grid over a long horizon.

    The numerical run at ``tau`` and the reference at ``reference_tau_f``
    share each path's fine Wiener grid.  Returns ``(times, rms_error)`` on
    about ``n_records`` record times.
    """
    ratio = steps_for(tau, reference_tau_f, NonIntegralRatio, minimum=1)
    steps_for(T, reference_tau_f, NonIntegralGrid, minimum=1)
    n_steps = steps_for(T, tau, NonIntegralRatio)
    stride = max(1, n_steps // n_records)
    while n_steps % stride != 0:
        stride -= 1
    n_rec = n_steps // stride

    acc = np.zeros(n_rec + 1)
    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        fine = increment_matrix(T, reference_tau_f, path_seeds)
        ref = simulate_on_grid(initial, reference_tau_f, prm, scheme, fine,
                               reference_tau_f, keep="all",
                               record_every=stride * ratio, first_path=first)
        num = simulate_on_grid(initial, tau, prm, scheme, fine,
                               reference_tau_f, keep="all",
                               record_every=stride, first_path=first)
        acc += (((num.p - ref.p) ** 2 + (num.q - ref.q) ** 2)
                .sum(axis=1))

    times = np.arange(n_rec + 1) * (stride * tau)
    return times, np.sqrt(acc / n_paths)


def window_means(times: np.ndarray, values: np.ndarray,
                 fraction: float = 0.1) -> Tuple[float, float]:
    """Mean of ``values`` over the first and last ``fraction`` of the horizon."""
    horizon = times[-1]
    early = times <= horizon * fraction
    late = times >= horizon * (1.0 - fraction)
    return float(values[early].mean()), float(values[late].mean())
