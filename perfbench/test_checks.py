"""Tests of the benchmark's own oracles, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each check is shown to fail on inputs it must reject, and the oracles are
compared with the program's own versions, which they do not share code with.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import (HIST_PATHS, HIST_SIGMA, HIST_UPSILON,  # noqa: E402
                       WORKLOADS, round_lane_steps)

EDGES = [-2.0 + 0.1 * k for k in range(41)]


def gibbs_draws(upsilon, sigma, n, seed):
    """Exact draws from the Gibbs law: p Gaussian, c q^4 ~ Gamma(1/4)."""
    rng = random.Random(seed)
    sd = sigma / math.sqrt(2.0 * upsilon)
    c = upsilon / (2.0 * sigma ** 2)
    out = []
    for _ in range(n):
        q = (rng.gammavariate(0.25, 1.0) / c) ** 0.25
        out.append((rng.gauss(0.0, sd), q if rng.random() < 0.5 else -q))
    return out


def mass_grid(points, edges=EDGES):
    n_bins = len(edges) - 1
    width = edges[1] - edges[0]
    grid = [[0.0] * n_bins for _ in range(n_bins)]
    for p, q in points:
        i = math.floor((p - edges[0]) / width)
        j = math.floor((q - edges[0]) / width)
        if 0 <= i < n_bins and 0 <= j < n_bins:
            grid[i][j] += 1.0 / len(points)
    return grid


def histogram_checks(upsilon, seed):
    start = mass_grid([(0.0, 0.0)] * HIST_PATHS)
    final = mass_grid(gibbs_draws(upsilon, HIST_SIGMA, HIST_PATHS, seed))
    return oracles.check_histogram([(EDGES, EDGES, start),
                                    (EDGES, EDGES, final)],
                                   HIST_UPSILON, HIST_SIGMA, HIST_PATHS, {})


def test_oracles_match_the_program():
    from langsplit import analysis
    from langsplit.model import PhysParams
    prm = PhysParams(HIST_UPSILON, HIST_SIGMA)
    edges = np.array(EDGES)
    ours = oracles.gibbs_bin_masses(HIST_UPSILON, HIST_SIGMA, EDGES, EDGES)
    theirs = analysis.gibbs_bin_masses(prm, edges, edges)
    assert np.abs(np.array(ours) - theirs).max() < 1e-13
    floor = oracles.exact_sampler_floor(ours, HIST_PATHS)
    ref = analysis.distance_noise_floor(prm, edges, edges, HIST_PATHS)
    assert floor.mean == pytest.approx(ref.mean, rel=1e-8)
    assert floor.sd == pytest.approx(ref.sd, rel=1e-8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_check_accepts_exact_draws(seed):
    checks = histogram_checks(HIST_UPSILON, seed)
    assert all(passed for passed, _ in checks.values()), checks


@pytest.mark.parametrize("upsilon", [3.0, 5.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_check_rejects_mis_tempered_draws(upsilon, seed):
    checks = histogram_checks(upsilon, seed)
    assert not checks["final_below_floor"][0], checks


def test_histogram_check_rejects_a_dropped_path():
    checks = histogram_checks(HIST_UPSILON, 1)
    assert checks["all_paths_counted"][0]
    p_edges, q_edges, final = EDGES, EDGES, mass_grid(
        gibbs_draws(HIST_UPSILON, HIST_SIGMA, HIST_PATHS - 1, 1))
    checks = oracles.check_histogram([(p_edges, q_edges, final)],
                                     HIST_UPSILON, HIST_SIGMA, HIST_PATHS, {})
    assert not checks["all_paths_counted"][0]


TAUS = [2.0 ** -k for k in range(6, 11)]


def test_order_check_accepts_order_one():
    checks = oracles.check_strong_order(TAUS, [0.4 * t for t in TAUS])
    assert all(passed for passed, _ in checks.values()), checks


def test_order_check_rejects_order_one_half():
    checks = oracles.check_strong_order(TAUS, [0.4 * t ** 0.5 for t in TAUS])
    assert checks["errors_fall_as_tau_halves"][0]
    assert not checks["order_one_fit"][0]


def test_order_check_rejects_errors_that_stop_falling():
    errors = [0.4 * t for t in TAUS]
    errors[-1] = errors[-2]
    assert not oracles.check_strong_order(TAUS, errors)[
        "errors_fall_as_tau_halves"][0]


def test_order_fit_matches_numpy():
    errors = [0.4 * t * (1.0 + 0.1 * math.sin(7.0 * k))
              for k, t in enumerate(TAUS)]
    fit = oracles.log_log_fit(TAUS, errors)
    slope, intercept = np.polyfit(np.log(TAUS), np.log(errors), 1)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)


def test_long_time_check():
    times = [0.1 * k for k in range(1001)]
    bounded = [0.0] + [1.0 - math.exp(-t) for t in times[1:]]
    assert all(p for p, _ in oracles.check_long_time(times, bounded).values())
    growing = [0.0] + [1e-3 * t for t in times[1:]]
    assert not oracles.check_long_time(times, growing)[
        "late_window_bounded"][0]
    broken = bounded[:500] + [math.nan] + bounded[501:]
    assert not oracles.check_long_time(times, broken)[
        "errors_finite_positive"][0]


def test_window_means_match_the_program():
    from langsplit.experiments import window_means
    times = np.linspace(0.0, 25.0, 1001)[1:]
    values = np.sqrt(times) + np.sin(times)
    assert oracles.window_means(list(times), list(values)) == pytest.approx(
        window_means(times, values), rel=1e-12)


def test_lane_step_counts():
    assert round_lane_steps("ensemble-histogram") == 4096 * 16 * 256
    assert round_lane_steps("coupled-order") == 3 * 256 * (
        2 ** 13 + sum(2 ** k for k in range(6, 11)))
    op = WORKLOADS["long-time-error"][0]
    T, n = int(op.config["T"]), int(op.config["n_paths"])
    assert op.lane_steps == n * T * (2 ** 8 + 2 ** 11)


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |        110 |     langsplit.detflow",
        "import time:         5 |        115 |   langsplit",
        "import time:       200 |        200 |     scipy.stats",
        "import time:        20 |        220 |   langsplit.analysis",
        "import time:         1 |        336 | langsplit.cli",
    ])
    out = tracing.parse_importtime(stderr)
    assert out == pytest.approx({"detflow": 110e-6, "analysis": 220e-6,
                                 "cli": 1e-6})


def test_tracer_records_spans_and_restores_the_program():
    from langsplit import analysis, detflow, splitting
    from langsplit.model import PhysParams
    from langsplit.montecarlo import SeedPolicy

    def run():
        return analysis.strong_error(
            splitting.SchemeSpec.from_name("sdg"),
            [2.0 ** -k for k in range(3, 6)], 2.0 ** -7, 0.5,
            PhysParams(10.0, 1.0), 8, SeedPolicy(3)).errors

    originals = (detflow.newton_solve_2d, splitting.conservative_step,
                 analysis.increment_matrix)
    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    traced = run()
    tracer.uninstall()
    assert (detflow.newton_solve_2d, splitting.conservative_step,
            analysis.increment_matrix) == originals
    np.testing.assert_array_equal(plain, traced)
    times = tracer.self_times()
    for name in ("analysis.strong_error", "montecarlo.increment_matrix",
                 "detflow.dg_step", "detflow.newton_solve_2d",
                 "stochflow.ou_substep_coupled", "model.QuarticPotential.hess"):
        assert times[name][1] > 0, name
    steps = 64 + 4 + 8 + 16  # reference, then the three levels, T = 0.5
    assert times["detflow.dg_step"][1] == steps
    assert len(tracer.newton_iterations) == steps
    assert tracer.increment_bytes == [64 * 8 * 8]
    metrics = tracing.layer_metrics(tracer, 1, 8 * steps, {})
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    root = tracer.end[0] - tracer.start[0]
    assert total == pytest.approx(root, rel=1e-9)
