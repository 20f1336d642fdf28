import dataclasses
import math

import numpy as np
import pytest

from langsplit import detflow
from langsplit.detflow import avf_step, dg_step, pavf_step, sympl_euler_step
from langsplit.errors import NonConvergence, NonIntegralGrid
from langsplit.model import PhysParams, State, energy_H
from langsplit.montecarlo import SeedPolicy, increment_matrix
from langsplit.splitting import (SchemeSpec, lie_trotter_step, scheme_step,
                                 simulate, simulate_on_grid, strang_step)
from langsplit.stochflow import FineWindow, OUIncrement

from helpers import consistency_residuals

PRM10 = PhysParams(10.0, 1.0)
SAVF = SchemeSpec.from_name("savf")


class TestSchemeSpec:
    def test_from_name(self):
        assert SchemeSpec.from_name("savf") == SchemeSpec("avf", "lie_trotter")
        assert SchemeSpec.from_name("strang-savf").composition == "strang"
        assert SchemeSpec.from_name("SPAVF").map_kind == "pavf"
        assert SchemeSpec.from_name("sympl-euler").map_kind == "sympl_euler"

    def test_two_fields(self):
        # A scheme is a map and a composition; solver budgets are constants.
        assert [f.name for f in dataclasses.fields(SchemeSpec)] == [
            "map_kind", "composition"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeSpec("rk4")
        with pytest.raises(ValueError):
            SchemeSpec("avf", "yoshida")
        with pytest.raises(ValueError):
            SchemeSpec.from_name("unknown")

    def test_strang_defined_for_every_kind(self):
        for kind in ("avf", "dg", "pavf", "sympl_euler"):
            spec = SchemeSpec(kind, "strang")
            out = strang_step(State(0.5, -0.5), 2.0**-8, PRM10, spec, 0.3)
            assert np.isfinite(out.p) and np.isfinite(out.q)

    def test_names_round_trip(self):
        for name in ("savf", "sdg", "spavf", "strang-savf", "sympl-euler"):
            assert SchemeSpec.from_name(name).name == name


# Every map and both compositions, one step of size tau from one state.
STEP_TAKERS = {
    "avf": lambda s, tau: avf_step(s, tau, PRM10),
    "dg": lambda s, tau: dg_step(s, tau, PRM10),
    "pavf": lambda s, tau: pavf_step(s, tau, PRM10),
    "sympl_euler": lambda s, tau: sympl_euler_step(s, tau, PRM10),
    "lie_trotter": lambda s, tau: lie_trotter_step(s, tau, PRM10, SAVF, 1.3),
    "strang": lambda s, tau: strang_step(
        s, tau, PRM10, SchemeSpec.from_name("strang-savf"), 0.4),
}


@pytest.mark.parametrize("tau", [0.0, -2.0**-8, math.nan],
                         ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name", sorted(STEP_TAKERS))
def test_a_step_that_is_not_positive_is_refused(name, tau):
    # Not an identity map, nor a NaN state or a failure of a later stage.
    with pytest.raises(ValueError, match="step size must be positive, got "):
        STEP_TAKERS[name](State(0.3, -1.7), tau)


class TestLieTrotterStep:
    def test_noise_free_sympl_euler_composition(self):
        prm = PhysParams(2.0, 0.0)
        spec = SchemeSpec.from_name("sympl-euler")
        out = lie_trotter_step(State(1.0, 0.0), 0.1, prm, spec, 0.0)
        d = math.exp(-0.1)
        assert out.p == pytest.approx(d / 1.1, rel=1e-14)
        assert out.q == pytest.approx(d * 0.1 / 1.1, rel=1e-14)

    @pytest.mark.parametrize("name", ["savf", "sdg", "spavf"])
    def test_one_step_conditional_lyapunov(self, name):
        spec = SchemeSpec.from_name(name)
        tau, n = 2.0**-6, 10**5
        rng = np.random.default_rng(8)
        s0 = State(1.0, 1.0)
        out = lie_trotter_step(State(np.full(n, s0.p), np.full(n, s0.q)),
                               tau, PRM10, spec, rng.standard_normal(n))
        h = energy_H(out, PRM10)
        bound = (math.exp(-10 * tau) * energy_H(s0, PRM10)
                 + (1 - math.exp(-10 * tau)) / 20)
        se = float(np.std(h, ddof=1) / math.sqrt(n))
        assert float(np.mean(h)) <= bound + 3 * se

    def test_window_mismatch_raises(self):
        win = FineWindow(np.zeros(5), 2.0**-9)
        with pytest.raises(NonIntegralGrid):
            lie_trotter_step(State(1.0, 1.0), 2.0**-6, PRM10, SAVF, win)


class TestStrangStep:
    def test_noise_free_half_steps_conserve_energy(self):
        prm = PhysParams(10.0, 0.0)
        tau = 2.0**-6
        s = State(1.2, -0.4)
        half1 = avf_step(s, tau / 2, prm)
        assert abs(energy_H(half1, prm) - energy_H(s, prm)) \
            <= 1e-10 * (1 + abs(energy_H(s, prm)))
        mid = OUIncrement.from_params(prm, tau).apply(half1, 0.0)
        half2 = avf_step(mid, tau / 2, prm)
        assert abs(energy_H(half2, prm) - energy_H(mid, prm)) \
            <= 1e-10 * (1 + abs(energy_H(mid, prm)))
        # and the composed step equals the strang_step output
        spec = SchemeSpec.from_name("strang-savf")
        out = strang_step(s, tau, prm, spec, 0.0)
        assert out.p == pytest.approx(half2.p, rel=1e-14)
        assert out.q == pytest.approx(half2.q, rel=1e-14)

    def test_agrees_with_lie_trotter_to_second_order_deterministic(self):
        prm = PhysParams(10.0, 0.0)
        s = State(1.0, 1.0)
        lt_spec = SchemeSpec("avf", "lie_trotter")
        st_spec = SchemeSpec("avf", "strang")

        def diff(tau):
            a = lie_trotter_step(s, tau, prm, lt_spec, 0.0)
            b = strang_step(s, tau, prm, st_spec, 0.0)
            return math.hypot(a.p - b.p, a.q - b.q)

        ratio = diff(2.0**-7) / diff(2.0**-8)
        assert 3.4 <= ratio <= 4.6

    def test_superlinear_pathwise_agreement_with_shared_noise(self):
        # On shared Wiener windows the root-mean-square single-step gap
        # between the two compositions shrinks superlinearly in tau.
        tau_f = 2.0**-14
        n_paths = 200
        rng = np.random.default_rng(3)
        base = rng.standard_normal((2**9, n_paths)) * math.sqrt(tau_f)
        s = State(np.ones(n_paths), np.ones(n_paths))
        gaps, taus = [], []
        for k in (5, 6, 7, 8, 9):
            tau = 2.0**-k
            win = FineWindow(base[:int(tau / tau_f)], tau_f)
            a = lie_trotter_step(s, tau, PRM10, SchemeSpec("avf"), win)
            b = strang_step(s, tau, PRM10, SchemeSpec("avf", "strang"), win)
            gaps.append(float(np.sqrt(np.mean((a.p - b.p)**2 + (a.q - b.q)**2))))
            taus.append(tau)
        slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
        assert slope >= 1.4


class TestSimulate:
    def test_zero_steps(self):
        tr = simulate(State(0.3, 0.4), 0.0, 2.0**-6, PRM10, SAVF, seed=1)
        assert len(tr) == 1
        assert tr.p[0] == 0.3 and tr.q[0] == 0.4

    def test_cancelled_noise_is_an_error(self):
        # At upsilon 1e-14, tau 2^-8 the sampled sub-step's noise cancels to
        # 0: the run raises instead of returning a noise-free path.
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            simulate(State(0.0, 0.0), 0.25, 2.0**-8, PhysParams(1e-14, 1.0),
                     SAVF, seed=1)

    def test_initial_state_recorded(self):
        tr = simulate(State(1.0, -1.0), 0.25, 2.0**-6, PRM10, SAVF, seed=1)
        assert tr.p[0] == 1.0 and tr.q[0] == -1.0
        assert len(tr) == 17

    def test_bit_identical_repeats(self):
        a = simulate(State(0.0, 0.0), 1.0, 2.0**-10, PRM10, SAVF, seed=42)
        b = simulate(State(0.0, 0.0), 1.0, 2.0**-10, PRM10, SAVF, seed=42)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    def test_noise_free_per_step_contraction(self):
        prm = PhysParams(10.0, 0.0)
        tr = simulate(State(1.0, 1.0), 0.5, 2.0**-7, prm, SAVF, seed=0)
        h = energy_H(State(tr.p, tr.q), prm)
        decay = math.exp(-10 * 2.0**-7)
        assert np.all(h[1:] <= decay * h[:-1] + 1e-10 * (1 + np.abs(h[:-1])))

    def test_per_path_seeds_batch(self):
        seeds = [5, 6, 7]
        tr = simulate(State(np.zeros(3), np.zeros(3)), 0.5, 2.0**-6, PRM10,
                      SAVF, seed=seeds)
        assert tr.p.shape == (33, 3)
        # column k is bit-identical to the scalar run driven by seed k
        for k, s in enumerate(seeds):
            single = simulate(State(0.0, 0.0), 0.5, 2.0**-6, PRM10, SAVF, seed=s)
            assert np.array_equal(tr.p[:, k], single.p)
            assert np.array_equal(tr.q[:, k], single.q)

    def test_seed_batch_mismatch(self):
        with pytest.raises(ValueError):
            simulate(State(np.zeros(2), np.zeros(2)), 0.5, 2.0**-6, PRM10,
                     SAVF, seed=[1, 2, 3])

    def test_non_integral_horizon(self):
        with pytest.raises(ValueError):
            simulate(State(0.0, 0.0), 0.3, 2.0**-6, PRM10, SAVF, seed=1)

    def test_nonconvergence_carries_step_index(self, monkeypatch):
        # dg is the only map that still runs the Newton solver
        monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergence) as err:
            simulate(State(60.0, 60.0), 0.38, 0.19, PRM10, SchemeSpec("dg"),
                     seed=1)
        assert err.value.step_index == 0

    def test_finite_state_with_overflowing_product_passes(self):
        # p*q overflows to inf in both lanes, so the one-reduction screen
        # trips; the lane-by-lane search finds every state finite.
        se = SchemeSpec.from_name("sympl-euler")
        tr = simulate(State(np.full(2, 1e300), np.full(2, 1e10)), 2.0**-8,
                      2.0**-8, PRM10, se, seed=[1, 2])
        assert np.all(np.isfinite(tr.p)) and np.all(np.isfinite(tr.q))
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.vdot(tr.p[-1], tr.q[-1]))

    def test_sampled_substep_is_built_once_per_run(self):
        # Every step asks for the sub-step; only the first computes it.
        cache = OUIncrement.from_params.__func__
        for spec in (SAVF, SchemeSpec.from_name("strang-savf")):
            cache.cache_clear()
            simulate(State(np.zeros(3), np.zeros(3)), 0.5, 2.0**-6, PRM10,
                     spec, seed=[1, 2, 3])
            info = cache.cache_info()
            assert (info.misses, info.hits) == (1, 31)

    def test_moment_averages_stay_bounded(self):
        prm = PhysParams(15.0, 1.0)
        tr = simulate(State(np.zeros(4), np.zeros(4)), 32.0, 2.0**-8, prm,
                      SAVF, seed=[1, 2, 3, 4])
        assert np.all(np.isfinite(tr.p)) and np.all(np.isfinite(tr.q))
        assert np.mean(tr.p**2) < 1.0  # stationary value is 1/30
        assert np.mean(tr.q**4) < 1.0


class TestSimulateOnGrid:
    def test_reference_level_is_identity_coupling(self):
        tau_f = 2.0**-9
        inc = increment_matrix(0.5, tau_f, SeedPolicy(3).path_seeds(4))
        a = simulate_on_grid(State(0.0, 0.0), tau_f, PRM10, SAVF, inc, tau_f,
                             keep="last")
        b = simulate_on_grid(State(0.0, 0.0), tau_f, PRM10, SAVF, inc, tau_f,
                             keep="last")
        assert np.array_equal(a.p, b.p)

    def test_coarse_consistency_with_windows(self):
        # one coarse step over the whole grid == one step on the summed window
        tau_f, tau = 2.0**-9, 2.0**-6
        inc = increment_matrix(tau, tau_f, SeedPolicy(5).path_seeds(2))
        out = simulate_on_grid(State(1.0, 0.5), tau, PRM10, SAVF, inc, tau_f,
                               keep="last")
        manual = scheme_step(State(np.ones(2), np.full(2, 0.5)), tau, PRM10,
                             SAVF, FineWindow(inc, tau_f))
        np.testing.assert_array_equal(out.p, manual.p)

    def test_non_integral_ratio(self):
        inc = np.zeros((10, 2))
        with pytest.raises(NonIntegralGrid):
            simulate_on_grid(State(0.0, 0.0), 3 * 2.0**-9, PRM10, SAVF, inc,
                             2.0**-9, keep="last")

    def test_continued_run_equals_one_piece(self):
        # The second half continues from the first half's last state on the
        # next increments; its records are those of the whole run, and its
        # times count from its own start.
        tau_f, tau = 2.0**-8, 2.0**-6
        inc = increment_matrix(1.0, tau_f, SeedPolicy(6).path_seeds(3))
        whole = simulate_on_grid(State(0.0, 0.0), tau, PRM10, SAVF, inc,
                                 tau_f, record_every=4)
        head = simulate_on_grid(State(0.0, 0.0), tau, PRM10, SAVF, inc[:128],
                                tau_f, record_every=4)
        tail = simulate_on_grid(State(head.p[-1], head.q[-1]), tau, PRM10,
                                SAVF, inc[128:], tau_f, record_every=4)
        assert np.array_equal(whole.p, np.concatenate([head.p, tail.p[1:]]))
        assert np.array_equal(whole.q, np.concatenate([head.q, tail.q[1:]]))
        assert np.array_equal(tail.times, head.times)

    def test_record_every(self):
        tau_f = 2.0**-8
        inc = increment_matrix(1.0, tau_f, SeedPolicy(6).path_seeds(2))
        tr = simulate_on_grid(State(0.0, 0.0), 2.0**-6, PRM10, SAVF, inc,
                              tau_f, keep="all", record_every=16)
        assert tr.p.shape == (5, 2)
        assert tr.times[-1] == pytest.approx(1.0)


class TestConsistencyResiduals:
    def test_zero_at_fixed_point(self):
        res = consistency_residuals("avf", State(0.0, 0.0), 2.0**-8, PRM10)
        assert res.rA == 0.0 and res.rB == 0.0

    def test_first_order_richardson_ratio(self):
        r1 = consistency_residuals("avf", State(1.0, 1.0), 2.0**-8, PRM10)
        r2 = consistency_residuals("avf", State(1.0, 1.0), 2.0**-9, PRM10)
        assert 1.8 <= r1.rA / r2.rA <= 2.2
        assert 1.8 <= r1.rB / r2.rB <= 2.2

    def test_avf_rb_identity(self):
        # rB = |(p - p1)/2 + (u/4)(q - q1)| identically for the AVF map
        s, tau = State(1.0, 1.0), 2.0**-8
        out = avf_step(s, tau, PRM10)
        res = consistency_residuals("avf", s, tau, PRM10)
        expected = abs(0.5 * (s.p - out.p) + 2.5 * (s.q - out.q))
        assert res.rA >= 0
        assert res.rB == pytest.approx(expected, abs=1e-12)


def test_conformal_jacobian_of_lie_trotter_step():
    from langsplit.analysis import jacobian_det
    prm = PhysParams(2.0, 1.0)
    spec = SchemeSpec.from_name("sympl-euler")
    tau, z = 1e-4, -0.9
    det = jacobian_det(lambda x: scheme_step(x, tau, prm, spec, z),
                       State(0.4, 0.1))
    assert det == pytest.approx(math.exp(-prm.upsilon * tau), rel=1e-6)
