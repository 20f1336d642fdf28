import math

import numpy as np
import pytest
from scipy import integrate, stats

from langsplit import analysis
from langsplit.analysis import (distance_noise_floor, distribution_distance,
                                empirical_distribution, exp_moment_monitor,
                                fit_order, gibbs_bin_masses,
                                h0_dissipation_compare, jacobian_det,
                                linear_fit, lyapunov_check, msd_curve,
                                msd_fit_window, msd_plateau, phase_area,
                                time_average)
from langsplit.errors import (DegenerateRange, EmptyWindow, NonConvergence,
                              NonIntegralGrid, NonIntegralRatio,
                              NonPositiveError)
from langsplit.experiments import (ergodic_averages, histogram_snapshots,
                                   long_time_error, msd_experiment,
                                   window_means)
from langsplit.model import (EnergyConstants, PhysParams, State, energy_H0)
from langsplit.montecarlo import SeedPolicy, increment_matrix
from langsplit.splitting import (SchemeSpec, scheme_step, simulate,
                                 simulate_on_grid)
from langsplit.stochflow import OUIncrement

PRM10 = PhysParams(10.0, 1.0)
PRM15 = PhysParams(15.0, 1.0)
SAVF = SchemeSpec.from_name("savf")


class TestFitOrder:
    def test_exact_first_order(self):
        taus = [0.1, 0.05, 0.025, 0.0125]
        fit = fit_order([(t, 3.0 * t) for t in taus])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order(self):
        taus = [0.2, 0.1, 0.05]
        fit = fit_order([(t, t * t) for t in taus])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_non_positive_error(self):
        with pytest.raises(NonPositiveError):
            fit_order([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-4)])

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.05, 0.5)])


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
        density = h.mass / h.bin_area
        assert density.sum() * h.bin_area == pytest.approx(1.0, rel=1e-12)

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
        assert msd_plateau(times, msd, fraction=0.1) == 2.0


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

    def test_histogram_diverged_path_raises(self):
        # The explicit map far beyond its stability limit sends path 149 to
        # infinity at step 49; it must not drop out of the histogram.
        for chunk in (64, 200):
            with pytest.raises(NonConvergence) as info, \
                    np.errstate(over="ignore", invalid="ignore"):
                histogram_snapshots(SchemeSpec.from_name("sympl-euler"),
                                    PhysParams(1.0, 1.0), 2.0, [0.0, 100.0],
                                    200, SeedPolicy(1), State(0.0, 0.0),
                                    (10, 10), (-2, 2), (-2, 2), chunk=chunk)
            assert (info.value.step_index, info.value.path_index) == (49, 149)

    def test_histogram_chunking_invariant(self):
        kwargs = dict(snapshot_times=[0.25], n_paths=300,
                      seeds=SeedPolicy(5), initial=State(0.0, 0.0),
                      bins=(12, 12), p_range=(-2, 2), q_range=(-2, 2))
        a = histogram_snapshots(SAVF, PRM15, 2.0**-6, chunk=64, **kwargs)
        b = histogram_snapshots(SAVF, PRM15, 2.0**-6, chunk=300, **kwargs)
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


# The explicit map far beyond its stability limit: path 149 of SeedPolicy(1)
# is the first to leave the finite domain, at step 49 (t = 98).
SE = SchemeSpec.from_name("sympl-euler")
PRM1 = PhysParams(1.0, 1.0)
ORIGIN = State(0.0, 0.0)

DIVERGING_RUNS = {
    "simulate": lambda: simulate(
        State(np.zeros(200), np.zeros(200)), 100.0, 2.0, PRM1, SE,
        seed=SeedPolicy(1).path_seeds(200)),
    "ergodic_averages": lambda: ergodic_averages(
        SE, PRM1, 2.0, 100.0, 0.0, 200, SeedPolicy(1), ORIGIN,
        {"p2": lambda p, q: p * p}),
    "msd_experiment": lambda: msd_experiment(
        SE, PRM1, 2.0, 100.0, 200, SeedPolicy(1), ORIGIN, chunk=64),
    "exp_moment_monitor": lambda: exp_moment_monitor(
        SE, PRM1, 2.0, 100.0, 200, SeedPolicy(1), chunk=64),
}


@pytest.mark.parametrize("name", sorted(DIVERGING_RUNS))
def test_non_finite_state_names_step_and_path(name):
    with pytest.raises(NonConvergence) as info, \
            np.errstate(over="ignore", invalid="ignore"):
        DIVERGING_RUNS[name]()
    assert (info.value.step_index, info.value.path_index) == (49, 149)


# Each experiment given a horizon that its step does not tile (T = 1 is 33.3
# steps of 0.03, and 85.3 steps of 3 * 2^-8).
OFF_GRID_RUNS = {
    "simulate": (ValueError, lambda: simulate(
        ORIGIN, 1.0, 0.03, PRM10, SAVF, seed=1)),
    "simulate_on_grid": (NonIntegralRatio, lambda: simulate_on_grid(
        ORIGIN, 3 * 2.0**-8, PRM10, SAVF, np.zeros((256, 2)), 2.0**-8)),
    "increment_matrix": (NonIntegralGrid, lambda: increment_matrix(
        1.0, 0.03, [1, 2])),
    "ergodic_averages": (ValueError, lambda: ergodic_averages(
        SAVF, PRM10, 0.03, 1.0, 0.3, 4, SeedPolicy(1), ORIGIN, {})),
    "ergodic_averages_burn_in": (ValueError, lambda: ergodic_averages(
        SAVF, PRM10, 2.0**-6, 1.0, 0.1, 4, SeedPolicy(1), ORIGIN, {})),
    "msd_experiment": (ValueError, lambda: msd_experiment(
        SAVF, PRM10, 0.03, 1.0, 4, SeedPolicy(1), ORIGIN)),
    "histogram_snapshots": (ValueError, lambda: histogram_snapshots(
        SAVF, PRM10, 0.03, [0.0, 1.0], 4, SeedPolicy(1), ORIGIN,
        (4, 4), (-1, 1), (-1, 1))),
    "exp_moment_monitor": (ValueError, lambda: exp_moment_monitor(
        SAVF, PRM10, 0.03, 1.0, 4, SeedPolicy(1))),
    "phase_area": (ValueError, lambda: phase_area(
        SE, PRM10, 0.03, 1.0, 8, seed=1)),
    "h0_dissipation_compare": (ValueError, lambda: h0_dissipation_compare(
        PRM10, 0.03, 1.0, ORIGIN, 4)),
    "coupled_terminal_stats_level": (ValueError, lambda:
        analysis.coupled_terminal_stats(
            SAVF, [0.03], 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1))),
    "coupled_terminal_stats_reference": (NonIntegralGrid, lambda:
        analysis.coupled_terminal_stats(
            SAVF, [0.06], 0.03, 1.0, PRM10, 4, SeedPolicy(1))),
    "coupled_terminal_stats_horizon": (NonIntegralRatio, lambda:
        analysis.coupled_terminal_stats(
            SAVF, [3 * 2.0**-8], 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1))),
    "long_time_error_level": (NonIntegralRatio, lambda: long_time_error(
        SAVF, 0.03, 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1))),
    "long_time_error_reference": (NonIntegralGrid, lambda: long_time_error(
        SAVF, 0.06, 0.03, 1.0, PRM10, 4, SeedPolicy(1))),
    "long_time_error_horizon": (NonIntegralRatio, lambda: long_time_error(
        SAVF, 3 * 2.0**-8, 2.0**-8, 1.0, PRM10, 4, SeedPolicy(1))),
}


@pytest.mark.parametrize("name", sorted(OFF_GRID_RUNS))
def test_off_grid_horizon_is_rejected(name):
    error, run = OFF_GRID_RUNS[name]
    with pytest.raises(error):
        run()


def _coupled(g):
    return lambda chunk: analysis.coupled_terminal_stats(
        SAVF, [2.0**-4, 2.0**-5], 2.0**-7, 0.5, PRM10, 300, SeedPolicy(5),
        g=g, chunk=chunk)


def _exp_moment(chunk):
    rep = exp_moment_monitor(SAVF, PRM10, 2.0**-6, 0.5, 300, SeedPolicy(5),
                             chunk=chunk)
    return rep.estimates, rep.max_exponents


def _dissipation(chunk):
    c = h0_dissipation_compare(PRM10, 2.0**-6, 0.5, State(0.0, 2.0), 300,
                               SeedPolicy(5), chunk=chunk)
    return c.naive_mean, c.naive_se, c.dissipative_mean, c.dissipative_se


# Every chunked experiment as a function of its chunk size, 300 paths each.
CHUNKED_RUNS = {
    "msd_experiment": lambda chunk: msd_experiment(
        SAVF, PRM10, 2.0**-6, 0.5, 300, SeedPolicy(5), ORIGIN, chunk=chunk),
    "exp_moment_monitor": _exp_moment,
    "coupled_terminal_stats_strong": _coupled(None),
    "coupled_terminal_stats_weak": _coupled(lambda p, q: np.sin(p) * np.sin(q)),
    "long_time_error": lambda chunk: long_time_error(
        SAVF, 2.0**-5, 2.0**-7, 1.0, PRM10, 300, SeedPolicy(5), n_records=8,
        chunk=chunk),
    "h0_dissipation_compare": _dissipation,
}


@pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
def test_chunking_changes_only_rounding(name):
    # Each path keeps its seed whatever the chunk size, so the chunkings
    # differ only in how the float sums over paths are grouped.  Standard
    # errors subtract the squared mean from the mean square, which lifts
    # that rounding to ~1e-11 relative; a path with a wrong seed would move
    # the results by ~1e-2.
    run = CHUNKED_RUNS[name]
    whole, chunked = run(300), run(64)
    assert all(np.array_equal(a, b) for a, b in zip(whole, run(300)))
    for a, b in zip(whole, chunked):
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=0)
