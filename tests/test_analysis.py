import collections
import math
import os
import weakref

import numpy as np
import pytest
from scipy import integrate, stats

from langsplit import analysis, detflow, montecarlo
from langsplit.analysis import (distance_noise_floor, distribution_distance,
                                exp_moment_monitor, fit_order,
                                gibbs_bin_masses, h0_dissipation_compare,
                                jacobian_det, linear_fit, lyapunov_check,
                                msd_fit_window, msd_plateau, phase_area)
from langsplit.errors import (DegenerateRange, EmptyWindow, NonConvergence,
                              NonIntegralGrid, NonPositiveError)
from langsplit.experiments import (ergodic_averages, histogram_snapshots,
                                   long_time_error, msd_experiment,
                                   window_means)
from langsplit.model import (EnergyConstants, PhysParams, State, energy_H0)
from langsplit.montecarlo import SeedPolicy, increment_matrix
from langsplit.splitting import (SchemeSpec, _evolve, scheme_step, simulate,
                                 simulate_on_grid)
from langsplit.stochflow import OUIncrement

from helpers import (coupled_terminal_stats_whole, empirical_distribution,
                     long_time_error_whole, msd_curve, no_child_left,
                     time_average)

PRM10 = PhysParams(10.0, 1.0)
PRM15 = PhysParams(15.0, 1.0)
SAVF = SchemeSpec.from_name("savf")


class TestFitOrder:
    def test_exact_first_order(self):
        taus = [0.1, 0.05, 0.025, 0.0125]
        fit = fit_order([(t, 3.0 * t) for t in taus], np.zeros(4))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order(self):
        taus = [0.2, 0.1, 0.05]
        fit = fit_order([(t, t * t) for t in taus], np.zeros(3))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_non_positive_error(self):
        with pytest.raises(NonPositiveError):
            fit_order([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-4)], np.zeros(3))

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.05, 0.5)], np.zeros(2))


def assert_line_matches_polyfit(x, y):
    # np.polyfit solves the same two-parameter problem through LAPACK; it
    # stays the oracle of the closed form.
    slope, intercept, r2 = linear_fit(x, y)
    oracle_slope, oracle_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(oracle_slope, rel=1e-12)
    # The intercept is mean(y) - slope * mean(x); its rounding is relative
    # to those two terms, whatever their difference.
    scale = abs(np.mean(y)) + abs(oracle_slope * np.mean(x))
    assert abs(intercept - oracle_intercept) <= 1e-12 * scale
    resid = y - (oracle_slope * x + oracle_intercept)
    total = y - np.mean(y)
    assert r2 == pytest.approx(1.0 - (resid @ resid) / (total @ total),
                               rel=1e-12)


class TestLinearFit:
    def test_noisy_log_log_tables_match_polyfit(self):
        # Five levels 2^-6..2^-10, as in the order studies.
        rng = np.random.default_rng(21)
        log_taus = np.log(2.0 ** -np.arange(6, 11))
        for _ in range(2000):
            log_errors = (rng.uniform(-6.0, 2.0)
                          + rng.uniform(0.5, 2.5) * log_taus
                          + 0.2 * rng.standard_normal(5))
            assert_line_matches_polyfit(log_taus, log_errors)

    def test_needs_two_distinct_x(self):
        with pytest.raises(ValueError):
            linear_fit(np.full(3, 2.0), np.arange(3.0))


class TestCoupledStats:
    def test_scheme_vs_itself_is_exact_zero(self):
        errs, se = analysis.coupled_terminal_stats(
            SAVF, [2.0**-8], 2.0**-8, 0.25, PRM10, 8, SeedPolicy(4))
        assert errs[0] == 0.0 and se[0] == 0.0

    def test_constant_observable_zero_weak_error(self):
        errs, se = analysis.coupled_terminal_stats(
            SAVF, [2.0**-6, 2.0**-7], 2.0**-9, 0.25, PRM10, 8, SeedPolicy(4),
            g=lambda p, q: np.ones_like(p))
        assert np.all(errs == 0.0)

    def test_level_must_tile_reference(self):
        with pytest.raises(ValueError):
            analysis.coupled_terminal_stats(
                SAVF, [1.5 * 2.0**-8], 2.0**-8, 0.25, PRM10, 8, SeedPolicy(4))


def test_chunk_moments_centre_each_chunk():
    # A mean 1e4 times the spread: the one-pass sumsq / n - mean^2 loses
    # about eight digits of the variance, the merged centred moments none.
    x = 1e3 + 0.1 * np.random.default_rng(3).standard_normal(5000)
    moments = analysis._ChunkMoments(1)
    sums = 0.0
    for start in range(0, len(x), 2048):
        part = analysis._ChunkMoments(1)
        part.summarise(0, x[start:start + 2048])
        moments.merge(part)
        sums += x[start:start + 2048].sum()
    mean, se = moments.mean_se()
    assert mean[0] == sums / len(x)
    expected = np.std(x, ddof=1) / math.sqrt(len(x))
    np.testing.assert_allclose(se, expected, rtol=1e-12)
    one_pass = math.sqrt(max((x * x).sum() / len(x) - mean[0] ** 2, 0.0)
                         * len(x) / (len(x) - 1) / len(x))
    assert abs(one_pass / expected - 1.0) > 1e-12


def _strong(form):
    return form(SAVF, [2.0**-4, 2.0**-5, 2.0**-7], 2.0**-7, 0.6875, PRM10,
                70, SeedPolicy(6))


def _weak(form):
    return form(SchemeSpec.from_name("strang-sdg"), [2.0**-4, 2.0**-6],
                2.0**-7, 0.6875, PRM10, 70, SeedPolicy(6),
                g=lambda p, q: np.sin(p) * np.sin(q))


def _long_time(form):
    return form(SAVF, 2.0**-5, 2.0**-7, 1.0, PRM10, 70, SeedPolicy(6),
                n_records=8)


def _long_horizon(form):
    return form(SAVF, 2.0**-5, 2.0**-7, 8.0, PRM10, 70, SeedPolicy(7),
                n_records=3)


# Each path-coupled estimator against its whole-horizon form, in two chunks of
# 64 and 6 paths, with short blocks.  T = 0.6875 is 88 fine steps of 2^-7:
# blocks of 12 round up to the largest ratio, 8, and give five blocks of 16
# and one of 8.  The long-time run has 128 fine steps and a record every 16:
# blocks of 40 are a multiple of its ratio, 4, and give 40, 40, 40 and 8,
# so records fall inside blocks.  The long horizon has 1024 fine steps and a
# record every 256 (n_records = 3 gives a stride of 64 coarse steps): its
# blocks of 40 hold no record or one, never at a block's first step.
# name: (run, block constant, blocked form, whole form, blocks)
BLOCKED_RUNS = {
    "coupled_terminal_stats_strong": (
        _strong, 12, analysis.coupled_terminal_stats,
        coupled_terminal_stats_whole, [16] * 5 + [8]),
    "coupled_terminal_stats_weak": (
        _weak, 12, analysis.coupled_terminal_stats,
        coupled_terminal_stats_whole, [16] * 5 + [8]),
    "long_time_error": (
        _long_time, 40, long_time_error, long_time_error_whole,
        [40, 40, 40, 8]),
    "long_time_error_long_horizon": (
        _long_horizon, 40, long_time_error, long_time_error_whole,
        [40] * 25 + [24]),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_RUNS))
def test_blocked_runs_equal_whole_horizon(name, monkeypatch):
    run, block, blocked, whole, blocks = BLOCKED_RUNS[name]
    monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
    # The draws are recorded in this process, so the chunks run here too.
    monkeypatch.setattr(montecarlo, "WORKERS", 1)
    expected = run(whole)
    drawn = []
    original = analysis.increment_matrix

    def recorded(T, tau_f, rngs):
        out = original(T, tau_f, rngs)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(analysis, "increment_matrix", recorded)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", block)
    got = run(blocked)
    assert drawn == [(n, 64) for n in blocks] + [(n, 6) for n in blocks]
    for a, b in zip(expected, got):
        assert np.array_equal(a, b)


def test_default_block_at_the_coupled_order_levels(monkeypatch):
    # Criterion 01's levels 2^-6..2^-10 against 2^-13 have step ratios 8 to
    # 128, all of which tile the default block: a chunk holds 256 fine steps
    # of increments at a time, 8 blocks over T = 0.25.
    monkeypatch.setattr(montecarlo, "WORKERS", 1)
    drawn = []
    original = analysis.increment_matrix

    def recorded(T, tau_f, rngs):
        out = original(T, tau_f, rngs)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(analysis, "increment_matrix", recorded)
    analysis.coupled_terminal_stats(SAVF, [2.0**-k for k in range(6, 11)],
                                    2.0**-13, 0.25, PRM10, 4, SeedPolicy(2))
    assert drawn == [(256, 4)] * 8


def test_one_block_of_increments_is_live_at_each_draw(monkeypatch):
    # A run lets go of a block before it draws the next: at every draw,
    # each block drawn before is dead.  Blocks of 32 fine steps make eight
    # blocks of each study, recorded runs of long-time-error included.
    monkeypatch.setattr(montecarlo, "WORKERS", 1)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 32)
    blocks = []
    original = analysis.increment_matrix

    def watched(T, tau_f, rngs):
        assert all(block() is None for block in blocks)
        out = original(T, tau_f, rngs)
        blocks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(analysis, "increment_matrix", watched)
    analysis.coupled_terminal_stats(SAVF, [2.0**-4, 2.0**-5, 2.0**-6],
                                    2.0**-8, 1.0, PRM10, 8, SeedPolicy(2))
    assert len(blocks) == 8
    long_time_error(SAVF, 2.0**-6, 2.0**-8, 1.0, PRM10, 8, SeedPolicy(3),
                    n_records=16)
    assert len(blocks) == 16


class TestTimeAverage:
    def test_constant_observable(self):
        tr = simulate(State(0.5, 0.5), 1.0, 2.0**-5, PRM10, SAVF, seed=2)
        avg = time_average(tr, lambda p, q: np.full_like(p, 4.5), burn_in=0.25)
        assert avg == pytest.approx(4.5, rel=1e-15)

    def test_empty_window(self):
        tr = simulate(State(0.5, 0.5), 1.0, 2.0**-5, PRM10, SAVF, seed=2)
        with pytest.raises(EmptyWindow):
            time_average(tr, lambda p, q: p, burn_in=1.0)

    def test_left_endpoint_window(self):
        tr = simulate(State(0.0, 0.0), 0.5, 2.0**-4, PRM10, SAVF, seed=3)
        avg = time_average(tr, lambda p, q: p * p, burn_in=0.25)
        manual = np.mean(tr.p[4:-1] ** 2)
        assert avg == pytest.approx(manual, rel=1e-14)

    def test_matches_streaming_averages(self):
        seeds = SeedPolicy(10)
        avgs = ergodic_averages(SAVF, PRM10, 2.0**-6, 2.0, 0.5, 3, seeds,
                                State(0.0, 0.0), {"p2": lambda p, q: p * p})
        for i in range(3):
            tr = simulate(State(0.0, 0.0), 2.0, 2.0**-6, PRM10, SAVF,
                          seed=seeds.path_seed(i))
            expect = time_average(tr, lambda p, q: p * p, burn_in=0.5)
            assert avgs["p2"][i] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("name", ["savf", "sdg", "strang-spavf"])
    def test_averages_equal_across_chunkings(self, name, monkeypatch):
        # Each chunk adds into its own slice of the per-seed sums, so a
        # per-seed average is the same bits in 16-path chunks as in one.
        def run(chunk):
            monkeypatch.setattr(montecarlo, "PATH_CHUNK", chunk)
            return ergodic_averages(
                SchemeSpec.from_name(name), PRM10, 2.0**-6, 1.0, 0.25, 40,
                SeedPolicy(11), State(0.0, 0.0),
                {"p2": lambda p, q: p * p, "q4": lambda p, q: q**4})

        one, chunked = run(2048), run(16)
        for key in ("p2", "q4"):
            assert np.array_equal(one[key], chunked[key])


class TestEmpiricalDistribution:
    def test_point_mass(self):
        h = empirical_distribution(State(np.zeros(50), np.zeros(50)),
                                   (8, 8), (-1, 1), (-1, 1))
        assert h.n_samples == 50
        assert (h.mass > 0).sum() == 1
        assert h.mass.max() == 1.0

    def test_degenerate_cases(self):
        s = State(np.zeros(5), np.zeros(5))
        with pytest.raises(DegenerateRange):
            empirical_distribution(s, (4, 4), (1, 1), (-1, 1))
        with pytest.raises(DegenerateRange):
            empirical_distribution(s, (0, 4), (-1, 1), (-1, 1))
        with pytest.raises(DegenerateRange):
            empirical_distribution(State(np.full(5, 9.0), np.zeros(5)),
                                   (4, 4), (-1, 1), (-1, 1))

    def test_mass_normalization(self):
        rng = np.random.default_rng(12)
        h = empirical_distribution(State(rng.normal(0, 0.2, 4000),
                                         rng.normal(0, 0.3, 4000)),
                                   (20, 30), (-1, 1), (-1.5, 1.5))
        assert h.counts.sum() == h.n_samples
        bin_area = ((h.p_edges[1] - h.p_edges[0])
                    * (h.q_edges[1] - h.q_edges[0]))
        density = h.mass / bin_area
        assert density.sum() * bin_area == pytest.approx(1.0, rel=1e-12)

    def test_non_finite_samples_raise(self):
        s = State(np.array([0.0, np.nan, np.inf, 0.1]), np.zeros(4))
        with pytest.raises(NonConvergence) as info:
            empirical_distribution(s, (4, 4), (-1, 1), (-1, 1))
        assert info.value.path_index == 1

    def test_non_finite_trajectory_names_step_and_path(self):
        p = np.zeros((5, 3))
        p[3, 2] = np.inf
        with pytest.raises(NonConvergence) as info:
            empirical_distribution(State(p, np.zeros((5, 3))), (4, 4),
                                   (-1, 1), (-1, 1))
        assert (info.value.step_index, info.value.path_index) == (3, 2)


def _sample_gibbs(prm, n, seed):
    """Inverse-CDF sampler for the invariant law (independent oracle)."""
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, prm.sigma / math.sqrt(2 * prm.upsilon), n)
    c = prm.upsilon / (2 * prm.sigma**2)
    grid = np.linspace(-1.8, 1.8, 20001)
    pdf = np.exp(-c * grid**4)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    q = np.interp(rng.random(n), cdf, grid)
    return State(p, q)


class TestDistributionDistance:
    BINS = (40, 40)
    P_RANGE = (-1.0, 1.0)
    Q_RANGE = (-1.5, 1.5)

    def test_bin_masses_sum_to_one(self):
        edges_p = np.linspace(-1, 1, 41)
        edges_q = np.linspace(-1.5, 1.5, 41)
        rho = gibbs_bin_masses(PRM15, edges_p, edges_q)
        assert rho.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("ups, p_edges, q_edges", [
        # the acceptance gate's grid
        (15.0, np.linspace(-1.0, 1.0, 41), np.linspace(-1.5, 1.5, 41)),
        # the benchmark's ensemble-histogram grid
        (4.0, np.linspace(-2.0, 2.0, 41), np.linspace(-2.0, 2.0, 41)),
        # one wide bin: a single 20-node panel is off by 79% here
        (15.0, np.array([-1.0, 1.0]), np.array([-10.0, 10.0])),
    ])
    def test_bin_masses_match_adaptive_quadrature(self, ups, p_edges,
                                                  q_edges):
        # scipy serves only as an independent oracle here.
        prm = PhysParams(ups, 1.0)
        c = ups / 2.0
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        z, _ = integrate.quad(lambda q: math.exp(-c * q**4), -np.inf, np.inf,
                              **opts)
        q_mass = np.array([integrate.quad(lambda q: math.exp(-c * q**4),
                                          a, b, **opts)[0]
                           for a, b in zip(q_edges[:-1], q_edges[1:])]) / z
        p_mass = np.diff(stats.norm.cdf(p_edges,
                                        scale=1.0 / math.sqrt(2.0 * ups)))
        np.testing.assert_allclose(gibbs_bin_masses(prm, p_edges, q_edges),
                                   np.outer(p_mass, q_mass), rtol=0,
                                   atol=1e-13)

    def test_self_sampling_small_distance(self):
        s = _sample_gibbs(PRM15, 10**6, seed=5)
        h = empirical_distribution(s, self.BINS, self.P_RANGE, self.Q_RANGE)
        assert distribution_distance(h, PRM15) < 0.05

    def test_point_mass_distance(self):
        h = empirical_distribution(State(np.zeros(10), np.zeros(10)),
                                   self.BINS, self.P_RANGE, self.Q_RANGE)
        rho = gibbs_bin_masses(PRM15, h.p_edges, h.q_edges)
        occupied = np.unravel_index(np.argmax(h.mass), h.mass.shape)
        expected = (1.0 - rho[occupied]) + (rho.sum() - rho[occupied])
        assert distribution_distance(h, PRM15) == pytest.approx(expected,
                                                                rel=1e-9)

    def test_distance_is_plain_bin_sum(self):
        s = _sample_gibbs(PRM15, 2000, seed=6)
        h = empirical_distribution(s, self.BINS, self.P_RANGE, self.Q_RANGE)
        rho = gibbs_bin_masses(PRM15, h.p_edges, h.q_edges)
        manual = float(np.abs(h.mass - rho).sum())
        assert distribution_distance(h, PRM15) == pytest.approx(manual,
                                                                rel=1e-12)


class TestDistanceNoiseFloor:
    P_EDGES = np.linspace(-1.0, 1.0, 41)
    Q_EDGES = np.linspace(-1.5, 1.5, 41)

    def test_closed_form_matches_binomial_sums(self):
        n = 300
        floor = distance_noise_floor(PRM15, self.P_EDGES, self.Q_EDGES, n)
        rho = gibbs_bin_masses(PRM15, self.P_EDGES, self.Q_EDGES).reshape(-1)
        k = np.arange(n + 1)[:, None]
        pmf = stats.binom.pmf(k, n, rho)
        dev = np.abs(k / n - rho)
        mean = (pmf * dev).sum(axis=0)
        var = (pmf * dev * dev).sum(axis=0) - mean**2
        assert floor.mean == pytest.approx(mean.sum(), rel=1e-12)
        assert floor.sd == pytest.approx(math.sqrt(var.sum()), rel=1e-9)

    @pytest.mark.parametrize("n", [1, 10, 300, 4096, 5000])
    def test_binomial_pmf_matches_scipy(self, n):
        rhos = np.linspace(0.001, 0.999, 97)
        for rho in rhos:
            mode = int(n * rho)
            for k in range(max(0, mode - 20), min(n, mode + 20) + 1):
                assert analysis._binom_pmf(k, n, rho) == pytest.approx(
                    stats.binom.pmf(k, n, rho), rel=5e-11, abs=0.0)

    def test_binomial_pmf_degenerate_cases_are_exact(self):
        pmf = analysis._binom_pmf
        for k, n, rho in [(0, 5, 0.0), (1, 5, 0.0), (5, 5, 1.0), (4, 5, 1.0),
                          (6, 5, 0.3), (6, 5, 1.0), (5001, 5000, 1.0),
                          (-1, 5, 0.3)]:
            assert pmf(k, n, rho) == stats.binom.pmf(k, n, rho), (k, n, rho)

    def test_mean_matches_exact_draws(self):
        # _sample_gibbs is an independent sampler of the invariant law.
        n, reps = 5000, 100
        floor = distance_noise_floor(PRM15, self.P_EDGES, self.Q_EDGES, n)
        dists = []
        for seed in range(reps):
            h = empirical_distribution(_sample_gibbs(PRM15, n, 1000 + seed),
                                       (40, 40), (-1.0, 1.0), (-1.5, 1.5))
            dists.append(distribution_distance(h, PRM15))
        se = floor.sd / math.sqrt(reps)
        assert abs(np.mean(dists) - floor.mean) < 3.0 * se
        assert np.std(dists, ddof=1) == pytest.approx(floor.sd, rel=0.25)

    def test_rejects_mistempered_law(self):
        # Exact draws from the upsilon = 11 Gibbs law are about 0.19 away
        # from the upsilon = 15 law in L1.
        floor = distance_noise_floor(PRM15, self.P_EDGES, self.Q_EDGES, 5000)
        threshold = floor.mean + 4.0 * floor.sd
        for seed in range(5):
            h = empirical_distribution(
                _sample_gibbs(PhysParams(11.0, 1.0), 5000, 2000 + seed),
                (40, 40), (-1.0, 1.0), (-1.5, 1.5))
            assert distribution_distance(h, PRM15) > threshold


class TestMSD:
    def test_zero_at_initial_time(self):
        tr = simulate(State(np.zeros(8), np.zeros(8)), 0.25, 2.0**-6, PRM15,
                      SAVF, seed=list(range(8)))
        times, msd = msd_curve(tr, State(0.0, 0.0))
        assert msd[0] == 0.0
        assert np.all(msd[1:] > 0)

    def test_noise_free_origin_stays_zero(self):
        prm = PhysParams(15.0, 0.0)
        tr = simulate(State(np.zeros(4), np.zeros(4)), 0.25, 2.0**-6, prm,
                      SAVF, seed=list(range(4)))
        _, msd = msd_curve(tr, State(0.0, 0.0))
        assert np.all(msd == 0.0)

    def test_streaming_matches_in_memory(self):
        seeds = SeedPolicy(9)
        times_s, msd_s = msd_experiment(SAVF, PRM15, 2.0**-6, 0.5, 6, seeds,
                                        State(0.0, 0.0))
        tr = simulate(State(np.zeros(6), np.zeros(6)), 0.5, 2.0**-6, PRM15,
                      SAVF, seed=seeds.path_seeds(6))
        times_m, msd_m = msd_curve(tr, State(0.0, 0.0))
        np.testing.assert_allclose(msd_s, msd_m, rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(times_s, times_m)

    def test_plateau_window(self):
        times = np.linspace(0.0, 10.0, 101)
        msd = np.where(times < 9.0, 0.0, 2.0)
        assert msd_plateau(times, msd) == 2.0


class TestMSDFitWindow:
    # Synthetic curves shaped like the upsilon = 15 gate run: a momentum
    # mode of amplitude 1/30 relaxing at rate 2*upsilon, a position mode of
    # amplitude 0.125, and white noise.
    UPSILON = 15.0
    TIMES = np.arange(0.0, 512.0 + 1e-9, 2.0**-6)

    def noisy(self, curve):
        rng = np.random.default_rng(11)
        return curve + 5e-4 * rng.standard_normal(len(self.TIMES))

    def fit(self, msd):
        win = msd_fit_window(self.TIMES, msd, self.UPSILON)
        gap = msd_plateau(self.TIMES, msd) - msd[win]
        return win, linear_fit(self.TIMES[win], np.log(gap))

    def test_two_timescale_curve(self):
        t = self.TIMES
        msd = self.noisy(1 / 30 * (1 - np.exp(-2 * self.UPSILON * t))
                         + 0.125 * (1 - np.exp(-0.05 * t)))
        win, (slope, _, r2) = self.fit(msd)
        assert t[win.start] >= 10.0 / self.UPSILON
        assert slope == pytest.approx(-0.05, rel=0.1)
        assert r2 > 0.9
        # A window that takes in the fast transient fits no single line.
        early = (t <= 2.0)
        _, _, r2_early = linear_fit(
            t[early], np.log(msd_plateau(t, msd) - msd[early]))
        assert r2_early < 0.9

    def test_algebraic_approach_rejected(self):
        msd = self.noisy(0.158 * (1 - 1 / (1 + self.TIMES)))
        _, (slope, _, r2) = self.fit(msd)
        assert slope < 0 and r2 < 0.9

    def test_fits_match_polyfit(self):
        # Both lines of msd_approach, on the windows of both curve shapes.
        t = self.TIMES
        for curve in (1 / 30 * (1 - np.exp(-2 * self.UPSILON * t))
                      + 0.125 * (1 - np.exp(-0.05 * t)),
                      0.158 * (1 - 1 / (1 + t))):
            msd = self.noisy(curve)
            win = msd_fit_window(t, msd, self.UPSILON)
            log_gap = np.log(msd_plateau(t, msd) - msd[win])
            for x in (t[win], np.log1p(t[win])):
                assert_line_matches_polyfit(x, log_gap)

    def test_flat_curve_is_empty(self):
        with pytest.raises(EmptyWindow):
            msd_fit_window(self.TIMES, np.full(len(self.TIMES), 0.158),
                           self.UPSILON)
        with pytest.raises(EmptyWindow):
            msd_fit_window(self.TIMES, self.noisy(0.158), self.UPSILON)


class TestExpMomentMonitor:
    def test_initial_value_exact(self):
        rep = exp_moment_monitor(SAVF, PRM10, 2.0**-8, 0.125, 64,
                                 SeedPolicy(3), initial=State(1.0, 1.0))
        c_e = EnergyConstants.from_params(PRM10).c_e
        assert rep.estimates[0] == pytest.approx(math.exp(c_e * 2.0), rel=1e-12)
        assert rep.max_exponents[0] == pytest.approx(c_e * 2.0, rel=1e-12)

    def test_small_noise_near_one(self):
        prm = PhysParams(10.0, 1e-3)
        rep = exp_moment_monitor(SAVF, prm, 2.0**-8, 0.125, 64, SeedPolicy(3))
        assert np.all(np.abs(rep.estimates - 1.0) < 1e-4)
        assert not rep.flagged

    def test_desk_scale_not_flagged(self):
        rep = exp_moment_monitor(SAVF, PRM10, 2.0**-8, 0.5, 256, SeedPolicy(8))
        assert np.all(np.isfinite(rep.estimates))
        assert not rep.flagged


class TestJacobianDet:
    def test_identity_map(self):
        det = jacobian_det(lambda s: s, State(0.3, -0.8))
        assert det == pytest.approx(1.0, rel=1e-10)

    def test_stochastic_substep_contraction(self):
        tau = 2.0**-6
        inc = OUIncrement.from_params(PRM10, tau)
        det = jacobian_det(lambda s: inc.apply(s, 0.42), State(0.5, 0.5))
        assert det == pytest.approx(math.exp(-10 * tau), rel=1e-9)

    def test_lie_trotter_sympl_euler(self):
        prm = PhysParams(2.0, 1.0)
        spec = SchemeSpec.from_name("sympl-euler")
        det = jacobian_det(
            lambda s: scheme_step(s, 1e-4, prm, spec, 1.1), State(1.0, 0.0))
        assert det == pytest.approx(math.exp(-2e-4), rel=1e-6)

    def test_batched_states(self):
        prm = PhysParams(2.0, 1.0)
        rng = np.random.default_rng(2)
        s = State(rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100))
        spec = SchemeSpec.from_name("sympl-euler")
        det = jacobian_det(lambda x: scheme_step(x, 1e-4, prm, spec, 0.0), s)
        np.testing.assert_allclose(det, math.exp(-2e-4), rtol=1e-6)

    def test_invariant_to_noise_realization(self):
        # The noise is frozen inside each closure, so the additive shift
        # cancels out of the finite differences for every realization.
        prm = PhysParams(2.0, 1.0)
        spec = SchemeSpec.from_name("sympl-euler")
        rng = np.random.default_rng(14)
        dets = []
        for _ in range(100):
            z = rng.standard_normal()
            dets.append(jacobian_det(
                lambda s, z=z: scheme_step(s, 1e-3, prm, spec, z),
                State(0.2, 0.7)))
        np.testing.assert_allclose(dets, math.exp(-2e-3), rtol=1e-6)


class TestPhaseArea:
    def test_initial_polygon_area(self):
        prm = PhysParams(2.0, 1.0)
        times, areas = phase_area(SchemeSpec.from_name("sympl-euler"), prm,
                                  1e-3, 0.0, 10**4, seed=1)
        assert abs(areas[0] - math.pi) < 1e-6

    def test_noise_free_exponential_contraction(self):
        prm = PhysParams(2.0, 0.0)
        tau, T, n = 1e-3, 0.25, 4000
        times, areas = phase_area(SchemeSpec.from_name("sympl-euler"), prm,
                                  tau, T, n, seed=1)
        ngon = 0.5 * n * math.sin(2 * math.pi / n)
        np.testing.assert_allclose(areas, ngon * np.exp(-2.0 * times),
                                   rtol=1e-3)

    def test_noise_does_not_change_area_law(self):
        prm = PhysParams(2.0, 1.0)
        tau, T, n = 1e-3, 0.125, 4000
        _, areas = phase_area(SchemeSpec.from_name("sympl-euler"), prm,
                              tau, T, n, seed=7)
        assert areas[-1] == pytest.approx(math.pi * math.exp(-2.0 * T),
                                          rel=2e-3)


class TestDissipationCompare:
    def test_noise_free_exact_curves(self):
        prm = PhysParams(10.0, 0.0)
        p0, q0 = 1.0, 2.0
        curves = h0_dissipation_compare(prm, 2.0**-6, 0.25, State(p0, q0),
                                        n_paths=4, seeds=SeedPolicy(1))
        t = curves.times
        naive_exact = q0**4 / 4 + np.exp(-2 * 10 * t) * p0**2 / 2
        diss_exact = (np.exp(-10 * t) * p0**2 / 2
                      + np.exp(-2 * 10 * t) * q0**4 / 4)
        np.testing.assert_allclose(curves.naive_mean, naive_exact, rtol=1e-10)
        np.testing.assert_allclose(curves.dissipative_mean, diss_exact,
                                   rtol=1e-10)

    def test_with_noise_naive_never_below_start(self):
        curves = h0_dissipation_compare(PRM10, 2.0**-7, 0.5, State(0.0, 2.0),
                                        n_paths=20000, seeds=SeedPolicy(2))
        h0 = float(energy_H0(State(0.0, 2.0)))
        assert np.all(curves.naive_mean >= h0 - 3 * curves.naive_se)
        idx = np.searchsorted(curves.times, 0.2)
        assert np.all(curves.dissipative_mean[idx:] < 0.5 * h0)

    def test_cancelled_noise_is_an_error(self):
        # At upsilon 1e-14 both sub-steps' noise cancels to 0: no noise-free
        # curves pass as noisy ones.
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            h0_dissipation_compare(PhysParams(1e-14, 1.0), 2.0**-8, 0.25,
                                   State(0.0, 2.0), n_paths=4)


class TestLyapunovCheck:
    def test_noise_free_passes_deterministically(self):
        prm = PhysParams(10.0, 0.0)
        recs = lyapunov_check(SAVF, prm, 2.0**-6, [State(1.0, 1.0)], 100)
        assert recs[0].passed
        assert recs[0].std_error == 0.0
        assert recs[0].margin >= 0.0

    def test_origin_noise_only_mean(self):
        tau, n = 2.0**-6, 10**5
        recs = lyapunov_check(SAVF, PRM10, tau, [State(0.0, 0.0)], n, seed=4)
        c_h = EnergyConstants.from_params(PRM10).c_h
        analytic = (1 - math.exp(-10 * tau)) / 20 + c_h
        assert recs[0].mc_mean == pytest.approx(analytic,
                                                abs=4 * recs[0].std_error)
        assert recs[0].passed

    def test_rejects_non_conservative_map(self):
        with pytest.raises(ValueError):
            lyapunov_check(SchemeSpec.from_name("sympl-euler"), PRM10,
                           2.0**-6, [State(0.0, 0.0)], 10)


class TestStreamingDrivers:
    def test_histogram_snapshot_t0_is_delta(self):
        hists = histogram_snapshots(SAVF, PRM15, 2.0**-6, [0.0], 200,
                                    SeedPolicy(1), State(0.0, 0.0),
                                    (10, 10), (-1, 1), (-1, 1))
        assert (hists[0].mass > 0).sum() == 1

    def test_histogram_diverged_path_raises(self, monkeypatch):
        # The explicit map far beyond its stability limit sends path 149 to
        # infinity at step 49; it must not drop out of the histogram.
        for chunk in (64, 200):
            monkeypatch.setattr(montecarlo, "PATH_CHUNK", chunk)
            with pytest.raises(NonConvergence) as info, \
                    np.errstate(over="ignore", invalid="ignore"):
                histogram_snapshots(SchemeSpec.from_name("sympl-euler"),
                                    PhysParams(1.0, 1.0), 2.0, [0.0, 100.0],
                                    200, SeedPolicy(1), State(0.0, 0.0),
                                    (10, 10), (-2, 2), (-2, 2))
            assert (info.value.step_index, info.value.path_index) == (49, 149)

    def test_histogram_chunking_invariant(self, monkeypatch):
        args = (SAVF, PRM15, 2.0**-6, [0.25], 300, SeedPolicy(5),
                State(0.0, 0.0), (12, 12), (-2, 2), (-2, 2))
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
        a = histogram_snapshots(*args)
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", 300)
        b = histogram_snapshots(*args)
        assert np.array_equal(a[0].counts, b[0].counts)

    def test_long_time_error_zero_against_itself(self):
        times, errs = long_time_error(SAVF, 2.0**-8, 2.0**-8, 1.0, PRM10, 4,
                                      SeedPolicy(3), n_records=8)
        assert np.all(errs == 0.0)

    def test_long_time_error_grows_then_saturates(self):
        times, errs = long_time_error(SAVF, 2.0**-6, 2.0**-9, 4.0, PRM10, 16,
                                      SeedPolicy(3), n_records=16)
        assert errs[0] == 0.0
        assert np.all(errs[1:] > 0)

    def test_window_means(self):
        times = np.linspace(0, 10, 101)
        vals = np.ones(101)
        vals[:11] = 2.0
        early, late = window_means(times, vals)
        assert early == pytest.approx(2.0)
        assert late == pytest.approx(1.0)
        # Eight records after t = 0: the first tenth holds none.
        with pytest.raises(EmptyWindow):
            window_means(np.arange(1, 9) * 0.5, np.ones(8))


# The explicit map far beyond its stability limit: path 149 of SeedPolicy(1)
# is the first to leave the finite domain, at step 49 (t = 98).  On the
# coupled grid of SeedPolicy(3) (fine step 2, every run at that step) path
# 46 goes first, at step 85.  With a Newton budget of two iterations, dg on
# the coupled grid of SeedPolicy(2) first fails at step 222 in path 36.  The
# runs take chunks of 16, 32 or 64 paths and the coupled runs blocks of 8 fine
# steps, so these lie in later blocks and chunks.
SE = SchemeSpec.from_name("sympl-euler")
PRM1 = PhysParams(1.0, 1.0)
ORIGIN = State(0.0, 0.0)
COUPLED_SE = (SE, [2.0], 2.0, 200.0, PRM1, 200, SeedPolicy(3))
COUPLED_DG = (SchemeSpec("dg"), [2.0**-5], 2.0**-5, 8.0,
              PhysParams(10.0, 2.0), 100, SeedPolicy(2))

# name: (run, path chunk, (step, path)); simulate runs its paths in one
# batch.
DIVERGING_RUNS = {
    "simulate": (lambda: simulate(
        State(np.zeros(200), np.zeros(200)), 100.0, 2.0, PRM1, SE,
        seed=SeedPolicy(1).path_seeds(200)), None, (49, 149)),
    "ergodic_averages": (lambda: ergodic_averages(
        SE, PRM1, 2.0, 100.0, 0.0, 200, SeedPolicy(1), ORIGIN,
        {"p2": lambda p, q: p * p}), 64, (49, 149)),
    "msd_experiment": (lambda: msd_experiment(
        SE, PRM1, 2.0, 100.0, 200, SeedPolicy(1), ORIGIN), 64, (49, 149)),
    "exp_moment_monitor": (lambda: exp_moment_monitor(
        SE, PRM1, 2.0, 100.0, 200, SeedPolicy(1)), 64, (49, 149)),
    "coupled_terminal_stats": (lambda: analysis.coupled_terminal_stats(
        *COUPLED_SE), 16, (85, 46)),
    "coupled_terminal_stats_whole": (lambda: coupled_terminal_stats_whole(
        *COUPLED_SE), 16, (85, 46)),
    "long_time_error": (lambda: long_time_error(
        SE, 2.0, 2.0, 200.0, PRM1, 200, SeedPolicy(3)), 32, (85, 46)),
    "coupled_terminal_stats_dg": (lambda: analysis.coupled_terminal_stats(
        *COUPLED_DG), 32, (222, 36)),
    "coupled_terminal_stats_dg_whole": (lambda: coupled_terminal_stats_whole(
        *COUPLED_DG), 32, (222, 36)),
}


@pytest.mark.parametrize("name", sorted(DIVERGING_RUNS))
def test_non_finite_state_names_step_and_path(name, monkeypatch):
    # The whole-horizon forms run each chunk's grid in one piece and fail
    # at the same step and path.
    run, chunk, expected = DIVERGING_RUNS[name]
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", chunk)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 8)
    # The Newton budget of the dg runs; no other map reads it.
    monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 2)
    with pytest.raises(NonConvergence) as info, \
            np.errstate(over="ignore", invalid="ignore"):
        run()
    assert (info.value.step_index, info.value.path_index) == expected


# Each experiment given a horizon that its step does not tile (T = 1 is 33.3
# steps of 0.03, and 85.3 steps of 3 * 2^-8).
OFF_GRID_RUNS = {
    "simulate": lambda: simulate(ORIGIN, 1.0, 0.03, PRM10, SAVF, seed=1),
    "simulate_on_grid": lambda: simulate_on_grid(
        ORIGIN, 3 * 2.0**-8, PRM10, SAVF, np.zeros((256, 2)), 2.0**-8),
    "increment_matrix": lambda: increment_matrix(1.0, 0.03, [1, 2]),
    "ergodic_averages": lambda: ergodic_averages(
        SAVF, PRM10, 0.03, 1.0, 0.3, 4, SeedPolicy(1), ORIGIN, {}),
    "ergodic_averages_burn_in": lambda: ergodic_averages(
        SAVF, PRM10, 2.0**-6, 1.0, 0.1, 4, SeedPolicy(1), ORIGIN, {}),
    "msd_experiment": lambda: msd_experiment(
        SAVF, PRM10, 0.03, 1.0, 4, SeedPolicy(1), ORIGIN),
    "histogram_snapshots": lambda: histogram_snapshots(
        SAVF, PRM10, 0.03, [0.0, 1.0], 4, SeedPolicy(1), ORIGIN,
        (4, 4), (-1, 1), (-1, 1)),
    "exp_moment_monitor": lambda: exp_moment_monitor(
        SAVF, PRM10, 0.03, 1.0, 4, SeedPolicy(1)),
    "phase_area": lambda: phase_area(SE, PRM10, 0.03, 1.0, 8, seed=1),
    "h0_dissipation_compare": lambda: h0_dissipation_compare(
        PRM10, 0.03, 1.0, ORIGIN, 4),
    "coupled_terminal_stats_level": lambda: analysis.coupled_terminal_stats(
        SAVF, [0.03], 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1)),
    "coupled_terminal_stats_reference": lambda:
        analysis.coupled_terminal_stats(
            SAVF, [0.06], 0.03, 1.0, PRM10, 4, SeedPolicy(1)),
    "coupled_terminal_stats_horizon": lambda: analysis.coupled_terminal_stats(
        SAVF, [3 * 2.0**-8], 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1)),
    "long_time_error_level": lambda: long_time_error(
        SAVF, 0.03, 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1)),
    "long_time_error_reference": lambda: long_time_error(
        SAVF, 0.06, 0.03, 1.0, PRM10, 4, SeedPolicy(1)),
    "long_time_error_horizon": lambda: long_time_error(
        SAVF, 3 * 2.0**-8, 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1)),
}


@pytest.mark.parametrize("name", sorted(OFF_GRID_RUNS))
def test_off_grid_horizon_is_rejected(name):
    # One grid check, one error, which the CLI also reads as a ValueError.
    with pytest.raises(NonIntegralGrid):
        OFF_GRID_RUNS[name]()


def _coupled(g):
    return lambda: analysis.coupled_terminal_stats(
        SAVF, [2.0**-4, 2.0**-5], 2.0**-7, 0.5, PRM10, 300, SeedPolicy(5),
        g=g)


def _exp_moment():
    rep = exp_moment_monitor(SAVF, PRM10, 2.0**-6, 0.5, 300, SeedPolicy(5))
    return rep.estimates, rep.log_estimates, rep.max_exponents


def _dissipation():
    c = h0_dissipation_compare(PRM10, 2.0**-6, 0.5, State(0.0, 2.0), 300,
                               SeedPolicy(5))
    return c.naive_mean, c.naive_se, c.dissipative_mean, c.dissipative_se


# Every chunked experiment, 300 paths each.
CHUNKED_RUNS = {
    "msd_experiment": lambda: msd_experiment(
        SAVF, PRM10, 2.0**-6, 0.5, 300, SeedPolicy(5), ORIGIN),
    "exp_moment_monitor": _exp_moment,
    "coupled_terminal_stats_strong": _coupled(None),
    "coupled_terminal_stats_weak": _coupled(lambda p, q: np.sin(p) * np.sin(q)),
    "long_time_error": lambda: long_time_error(
        SAVF, 2.0**-5, 2.0**-7, 1.0, PRM10, 300, SeedPolicy(5), n_records=8),
    "h0_dissipation_compare": _dissipation,
}


@pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
def test_chunking_changes_only_rounding(name, monkeypatch):
    # Each path keeps its seed whatever the chunk size, so the chunkings
    # differ only in how the float sums over paths are grouped.  Standard
    # errors merge centred per-chunk moments, so they too move by ~1e-15
    # relative; a path with a wrong seed would move the results by ~1e-2.
    def run(chunk):
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", chunk)
        return CHUNKED_RUNS[name]()

    whole, chunked = run(300), run(64)
    assert all(np.array_equal(a, b) for a, b in zip(whole, run(300)))
    for a, b in zip(whole, chunked):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)


def _histogram():
    hists = histogram_snapshots(SAVF, PRM15, 2.0**-6, [0.0, 0.25], 300,
                                SeedPolicy(5), ORIGIN, (12, 12), (-2, 2),
                                (-2, 2))
    return [h.counts for h in hists] + [hists[-1].p_edges, hists[-1].q_edges]


def _ergodic():
    avgs = ergodic_averages(SAVF, PRM10, 2.0**-6, 0.5, 0.125, 300,
                            SeedPolicy(5), ORIGIN,
                            {"p2": lambda p, q: p * p,
                             "q4": lambda p, q: q**4})
    return list(avgs.values())


# Every driver that runs its paths in chunks.
POOLED_RUNS = {**CHUNKED_RUNS, "histogram_snapshots": _histogram,
               "ergodic_averages": _ergodic}


# Every driver that runs its paths through ``map_chunks``, at no paths.
EMPTY_ENSEMBLE_RUNS = {
    "ergodic_averages": lambda: ergodic_averages(
        SAVF, PRM10, 2.0**-6, 0.5, 0.125, 0, SeedPolicy(5), ORIGIN,
        {"p2": lambda p, q: p * p}),
    "msd_experiment": lambda: msd_experiment(
        SAVF, PRM10, 2.0**-6, 0.5, 0, SeedPolicy(5), ORIGIN),
    "histogram_snapshots": lambda: histogram_snapshots(
        SAVF, PRM15, 2.0**-6, [0.0, 0.25], 0, SeedPolicy(5), ORIGIN,
        (12, 12), (-2, 2), (-2, 2)),
    "long_time_error": lambda: long_time_error(
        SAVF, 2.0**-5, 2.0**-7, 1.0, PRM10, 0, SeedPolicy(5), n_records=8),
    "strong_error": lambda: analysis.strong_error(
        SAVF, [2.0**-3, 2.0**-4, 2.0**-5], 2.0**-7, 0.5, PRM10, 0,
        SeedPolicy(5)),
    "weak_error": lambda: analysis.weak_error(
        SAVF, lambda p, q: np.sin(p) * np.sin(q),
        [2.0**-3, 2.0**-4, 2.0**-5], 2.0**-7, 0.5, PRM10, 0, SeedPolicy(5)),
    "exp_moment_monitor": lambda: exp_moment_monitor(
        SAVF, PRM10, 2.0**-6, 0.5, 0, SeedPolicy(5)),
    "h0_dissipation_compare": lambda: h0_dissipation_compare(
        PRM10, 2.0**-6, 0.5, State(0.0, 2.0), 0, SeedPolicy(5)),
}


@pytest.mark.parametrize("name", sorted(EMPTY_ENSEMBLE_RUNS))
def test_an_empty_ensemble_raises(name):
    # Not a NaN, nor an error that blames the math or the window.
    with pytest.raises(ValueError, match="at least one path"):
        EMPTY_ENSEMBLE_RUNS[name]()


@pytest.mark.parametrize("name", sorted(POOLED_RUNS))
def test_worker_count_keeps_the_bits(name, monkeypatch):
    # Five chunks: workers return each chunk's partial result and the
    # parent folds them in chunk order, as one process does.
    monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)

    def run(workers):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        return POOLED_RUNS[name]()

    serial = run(1)
    for workers in (2, 3):
        pooled = run(workers)
        assert len(pooled) == len(serial)
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
    no_child_left()


@pytest.mark.parametrize("name", sorted(
    name for name, (_, chunk, _) in DIVERGING_RUNS.items() if chunk))
def test_pool_names_the_failure_of_the_serial_run(name, monkeypatch):
    # The failing path lies in a later chunk; the pool raises the exception
    # of the first chunk that fails, and no worker is left behind.
    run, chunk, expected = DIVERGING_RUNS[name]
    monkeypatch.setattr(montecarlo, "PATH_CHUNK", chunk)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 8)
    monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 2)
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        with pytest.raises(NonConvergence) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            run()
        assert (info.value.step_index, info.value.path_index) == expected
        # The message names the offset step and path, also once pickled.
        assert str(info.value).endswith("at step %d in path %d" % expected)
        no_child_left()


def _forks(monkeypatch):
    """The list of the forks ``coupled_terminal_stats`` makes from now on."""
    forks = []

    def counted(here, theres):
        forks.append(os.getpid())
        return montecarlo.beside(here, theres)

    monkeypatch.setattr(analysis, "beside", counted)
    return forks


@pytest.mark.parametrize("name", ["savf", "strang-sdg"])
@pytest.mark.parametrize("g", [None, lambda p, q: np.sin(p) * np.sin(q)],
                         ids=["strong", "weak"])
def test_reference_beside_levels_keeps_the_bits(name, g, monkeypatch):
    # One chunk whose levels are over the (lowered) threshold: at two
    # workers the reference runs here and the levels in a forked worker,
    # each drawing the fine increments in blocks of 8 from the same seeds.
    monkeypatch.setattr(analysis, "_SPLIT_MIN_LANE_STEPS", 100)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 8)
    forks = _forks(monkeypatch)

    def run(workers):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        return analysis.coupled_terminal_stats(
            SchemeSpec.from_name(name), [2.0**-4, 2.0**-5, 2.0**-6],
            2.0**-7, 0.5, PRM10, 40, SeedPolicy(5), g=g)

    serial = run(1)
    assert forks == []
    split = run(2)
    assert forks == [os.getpid()]
    assert all(np.array_equal(a, b) for a, b in zip(serial, split))
    no_child_left()


def test_small_levels_stay_in_one_process(monkeypatch):
    # 40 paths times 28 level steps are far below the fork's cost.
    monkeypatch.setattr(montecarlo, "WORKERS", 2)
    forks = _forks(monkeypatch)
    analysis.coupled_terminal_stats(SAVF, [2.0**-3, 2.0**-4, 2.0**-5],
                                    2.0**-7, 0.5, PRM10, 40, SeedPolicy(5))
    assert forks == []


def _planted(failures):
    """``_evolve`` whose run at step tau fails in block ``failures[tau]``
    (its k-th call is its k-th block), naming the run in the message and,
    as ``_evolve`` does, the step of the whole run."""
    calls = collections.Counter()

    def evolve(initial, shape, tau, *args, start=0):
        block = calls[tau]
        calls[tau] += 1
        if failures.get(tau) == block:
            raise NonConvergence(f"planted at tau {tau:g}",
                                 step_index=start + 1, path_index=2)
        return _evolve(initial, shape, tau, *args, start=start)
    return evolve


# Reference 2^-7 and levels 2^-4 (ratio 8) and 2^-5 (ratio 4) over 64 fine
# steps: eight blocks of 8.  {tau: block of its failure}: the joint run
# raises the failure of the earliest block, the reference's first.
REF, COARSE, FINE = 2.0**-7, 2.0**-4, 2.0**-5
PLANTED_FAILURES = {
    "reference": {REF: 3},
    "level": {FINE: 2},
    "level_in_an_earlier_block": {REF: 3, FINE: 2},
    "reference_in_an_earlier_block": {REF: 5, COARSE: 6},
    "both_in_one_block": {REF: 2, COARSE: 2},
    "two_levels_in_one_block": {COARSE: 5, FINE: 5},
}


@pytest.mark.parametrize("name", sorted(PLANTED_FAILURES))
def test_split_raises_the_failure_of_the_joint_run(name, monkeypatch):
    monkeypatch.setattr(analysis, "_SPLIT_MIN_LANE_STEPS", 100)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 8)
    raised = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        monkeypatch.setattr(analysis, "_evolve",
                            _planted(PLANTED_FAILURES[name]))
        forks = _forks(monkeypatch)
        with pytest.raises(NonConvergence) as info:
            analysis.coupled_terminal_stats(SAVF, [COARSE, FINE], REF, 0.5,
                                            PRM10, 40, SeedPolicy(5))
        assert len(forks) == workers - 1
        raised[workers] = (str(info.value), info.value.step_index,
                           info.value.path_index)
        no_child_left()
    assert raised[1] == raised[2]
    # The step index counts from the start of the failing run.
    failures = PLANTED_FAILURES[name]
    tau, block = min(failures.items(), key=lambda f: (f[1], f[0] != REF))
    assert raised[1][0].startswith(f"planted at tau {tau:g}")
    assert raised[1][1:] == (1 + block * 8 * REF / tau, 2)


@pytest.mark.parametrize("name", ["coupled_terminal_stats",
                                  "coupled_terminal_stats_dg"])
def test_split_names_the_step_and_path_of_a_divergence(name, monkeypatch):
    # The diverging runs above in one chunk: the reference and its level
    # have one step, so both processes fail, in one block.
    run = DIVERGING_RUNS[name][0]
    monkeypatch.setattr(analysis, "_SPLIT_MIN_LANE_STEPS", 100)
    monkeypatch.setattr(analysis, "_FINE_BLOCK", 8)
    monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 2)
    forks = _forks(monkeypatch)
    raised = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        with pytest.raises(NonConvergence) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            run()
        raised[workers] = (str(info.value), info.value.step_index,
                           info.value.path_index)
        no_child_left()
    assert len(forks) == 1
    assert raised[1] == raised[2]
