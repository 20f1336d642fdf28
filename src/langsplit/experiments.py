"""Streaming drivers for the long-horizon measurements.

These run the schemes over long horizons or large ensembles while holding
only running statistics in memory.  Noise consumption matches
:func:`langsplit.splitting.simulate` exactly (per-path generators drawn in
time order), so a streamed run and an in-memory run with the same seeds
produce identical paths.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .analysis import Histogram2D, Observable, _coupled_runs
from .errors import DegenerateRange, EmptyWindow
from .model import PhysParams, State
from .montecarlo import SeedPolicy, map_chunks, path_noise, steps_for
from .splitting import SchemeSpec, _evolve

__all__ = [
    "stream_paths",
    "ergodic_averages",
    "msd_experiment",
    "histogram_snapshots",
    "long_time_error",
    "record_stride",
    "window_means",
]


def stream_paths(scheme: SchemeSpec, prm: PhysParams, tau: float,
                 n_steps: int, initial: State, path_seeds: Sequence[int],
                 visit: Callable[[int, State], None]) -> None:
    """Evolve a batch of paths, calling ``visit(n, state)`` at every step.

    ``visit`` is called with n = 0 (the initial state) through n_steps; the
    state's fields are arrays of width ``len(path_seeds)``.  A non-finite
    state raises :class:`~langsplit.errors.NonConvergence` naming its step
    and its lane in the batch.
    """
    _evolve(initial, (len(path_seeds),), tau, prm, scheme,
            path_noise(path_seeds, n_steps), visit)


def ergodic_averages(scheme: SchemeSpec, prm: PhysParams, tau: float,
                     T: float, burn_in: float, n_seeds: int,
                     seeds: SeedPolicy, initial: State,
                     observables: Dict[str, Observable]
                     ) -> Dict[str, np.ndarray]:
    """Per-seed time averages of observables over one long path each.

    Each seed drives an independent path from ``initial``; the average is
    the left-endpoint Riemann mean over ``burn_in <= t_n < T``.  Returns
    one array of ``n_seeds`` averages per observable; each chunk of paths
    returns its own slice of the per-seed sums.
    """
    n_steps = steps_for(T, tau)
    n_burn = steps_for(burn_in, tau)
    if n_burn >= n_steps:
        raise ValueError("burn-in must leave a nonempty window before T")

    def work(path_seeds):
        part = np.zeros((len(observables), len(path_seeds)))

        def visit(n, st):
            if n_burn <= n < n_steps:
                for row, g in zip(part, observables.values()):
                    row += g(st.p, st.q)

        stream_paths(scheme, prm, tau, n_steps, initial, path_seeds, visit)
        return part

    sums = np.concatenate(map_chunks(work, n_seeds, seeds), axis=1)
    return dict(zip(observables, sums / (n_steps - n_burn)))


def msd_experiment(scheme: SchemeSpec, prm: PhysParams, tau: float, T: float,
                   n_paths: int, seeds: SeedPolicy, initial: State
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Ensemble mean square displacement from ``initial``, streamed.

    Returns ``(times, msd)`` over the full step grid.
    """
    n_steps = steps_for(T, tau)
    p0, q0 = float(initial.p), float(initial.q)

    def work(path_seeds):
        part = np.zeros(n_steps + 1)

        def visit(n, st):
            d = (st.p - p0) ** 2 + (st.q - q0) ** 2
            part[n] += d.sum()

        stream_paths(scheme, prm, tau, n_steps, initial, path_seeds, visit)
        return part

    acc = np.zeros(n_steps + 1)
    for part in map_chunks(work, n_paths, seeds):
        acc += part
    times = np.arange(n_steps + 1) * tau
    return times, acc / n_paths


def histogram_snapshots(scheme: SchemeSpec, prm: PhysParams, tau: float,
                        snapshot_times: Sequence[float], n_paths: int,
                        seeds: SeedPolicy, initial: State,
                        bins: Tuple[int, int],
                        p_range: Tuple[float, float],
                        q_range: Tuple[float, float]):
    """Empirical distributions of the ensemble at selected times, streamed.

    Returns one :class:`Histogram2D` per distinct snapshot step, in time
    order (same bin layout).

    Raises
    ------
    NonConvergence
        At the first non-finite state, naming its step and path, instead of
        dropping the path from the histogram.
    NonIntegralGrid
        If a snapshot time is not on the step grid.
    """
    if not (p_range[1] > p_range[0] and q_range[1] > q_range[0]):
        raise DegenerateRange(f"bad window {p_range} x {q_range}")
    grid = {"bins": list(bins), "range": [p_range, q_range]}
    snap_steps = {steps_for(t, tau) for t in snapshot_times}
    n_steps = max(snap_steps) if snap_steps else 0

    def work(path_seeds):
        part = {}

        def visit(n, st):
            if n in snap_steps:
                part[n] = np.histogram2d(st.p, st.q, **grid)

        stream_paths(scheme, prm, tau, n_steps, initial, path_seeds, visit)
        return part

    counts = {n: np.zeros(bins) for n in snap_steps}
    for part in map_chunks(work, n_paths, seeds):
        # The edges follow from the grid: every chunk and time has the same.
        for n, (c, *edges) in part.items():
            counts[n] += c

    out = []
    for n in sorted(snap_steps):
        c = counts[n]
        total = int(c.sum())
        if total == 0:
            raise DegenerateRange("no samples fall inside the window")
        out.append(Histogram2D(*edges, counts=c, n_samples=total))
    return out


def long_time_error(scheme: SchemeSpec, tau: float, reference_tau_f: float,
                    T: float, prm: PhysParams, n_paths: int,
                    seeds: SeedPolicy, initial: State = State(0.0, 0.0),
                    n_records: int = 1024
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Root-mean-square pathwise error on a time grid over a long horizon.

    The numerical run at ``tau`` and the reference at ``reference_tau_f``
    share each path's fine Wiener grid, which is drawn one time block at a
    time.  Returns ``(times, rms_error)`` on about ``n_records`` record
    times.
    """
    ratio = steps_for(tau, reference_tau_f, minimum=1)
    n_steps = steps_for(T, tau, minimum=1)
    stride = record_stride(n_steps, n_records)
    n_rec = n_steps // stride
    fine_stride = stride * ratio

    def work(path_seeds):
        part = np.zeros(n_rec + 1)
        # The reference crosses each block first: its records wait here, by
        # record index, for the numerical run's.
        waiting = {}

        def reference(n, s):
            if n % fine_stride == 0:
                waiting[n // fine_stride] = s

        def numerical(n, s):
            if n % stride == 0:
                ref = waiting.pop(n // stride)
                err = (s.p - ref.p) ** 2 + (s.q - ref.q) ** 2
                part[n // stride] += err.sum()

        _coupled_runs(scheme, [reference_tau_f, tau], reference_tau_f,
                      n_steps * ratio, prm, initial, path_seeds,
                      visits=[reference, numerical])
        return part

    acc = np.zeros(n_rec + 1)
    for part in map_chunks(work, n_paths, seeds):
        acc += part

    times = np.arange(n_rec + 1) * (stride * tau)
    return times, np.sqrt(acc / n_paths)


def record_stride(n_steps: int, n_records: int) -> int:
    """The largest divisor of ``n_steps`` up to ``n_steps // n_records``.

    The search takes each divisor pair ``(d, n_steps // d)`` with ``d`` up
    to ``isqrt(n_steps)``: about ``sqrt(n_steps)`` remainders, which took 5
    to 40 us from 1e4 to 1e6 steps and 0.03 s at 3.7e11 steps on a two-core
    x86_64 box.
    """
    cap = max(1, n_steps // n_records)
    pairs = ((d, n_steps // d) for d in range(1, math.isqrt(n_steps) + 1)
             if n_steps % d == 0)
    return max((x for pair in pairs for x in pair if x <= cap), default=1)


def window_means(times: np.ndarray,
                 values: np.ndarray) -> Tuple[float, float]:
    """Mean of ``values`` over the first and last tenth of the horizon.

    Raises :class:`EmptyWindow` if either tenth holds no time.
    """
    horizon = times[-1]
    early, late = times <= horizon * 0.1, times >= horizon * 0.9
    if not (early.any() and late.any()):
        raise EmptyWindow(f"a tenth of the horizon {horizon:g} holds no time")
    return float(values[early].mean()), float(values[late].mean())
