import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from langsplit import stochflow
from langsplit.errors import NonIntegralGrid
from langsplit.model import PhysParams, State, energy_H, energy_H0
from langsplit.stochflow import (FineWindow, OUIncrement, naive_increment,
                                 ou_substep_coupled, ou_substep_exact)

from helpers import naive_substep_exact

PRM10 = PhysParams(10.0, 1.0)


class TestOUIncrement:
    def test_formulas(self):
        inc = OUIncrement.from_params(PRM10, 2.0**-6)
        assert inc.decay == pytest.approx(math.exp(-10 * 2.0**-6 / 2), rel=1e-15)
        assert inc.noise_std == pytest.approx(
            math.sqrt((1 - math.exp(-10 * 2.0**-6)) / 10), rel=1e-14)

    @given(st.floats(0.1, 20), st.floats(1e-4, 0.5), st.floats(0.0, 3.0))
    def test_variance_identity(self, upsilon, tau, sigma):
        inc = OUIncrement.from_params(PhysParams(upsilon, sigma), tau)
        assert 0 < inc.decay <= 1
        assert inc.noise_std**2 == pytest.approx(
            sigma**2 * (1 - inc.decay**2) / upsilon, rel=1e-12, abs=1e-300)

    def test_bad_tau(self):
        for build in (OUIncrement.from_params, naive_increment):
            for tau in (0.0, -0.0, -2.0**-8, math.nan):
                with pytest.raises(ValueError, match="upsilon \\* tau"):
                    build(PRM10, tau)


class TestRequireNoise:
    """``1 - decay^2`` cancels as upsilon * tau falls; where it has lost
    more than half its digits, both constructors refuse the step."""

    @pytest.mark.parametrize("upsilon", [1e-10, 1e-13, 1e-14, 1e-300])
    def test_cancelled_noise_is_an_error(self, upsilon):
        # At tau = 2^-8: 6.2e-5 relative off in amplitude at 1e-10, 6.6% at
        # 1e-13, and no noise at all at 1e-14, where the runs reported a
        # noise-free run.
        prm = PhysParams(upsilon, 1.0)
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            OUIncrement.from_params(prm, 2.0**-8)
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            naive_increment(prm, 2.0**-8)

    def test_naive_substep_is_checked_with_naive(self):
        # Each sub-step rounds on its own: at upsilon 2.9e-7, tau 2^-8 the
        # naive 1 - decay^2 is 1.04e-8 relative off, just over the bound,
        # and the dissipative one 9.8e-9, just under it.
        prm = PhysParams(2.9e-7, 1.0)
        OUIncrement.from_params(prm, 2.0**-8)
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            naive_increment(prm, 2.0**-8)

    @pytest.mark.parametrize("upsilon", [2.0, 4.0, 10.0, 15.0])
    def test_every_gate_and_test_step_passes(self, upsilon):
        prm = PhysParams(upsilon, 1.0)
        for tau in [1e-4, 1e-3, *(2.0**-k for k in range(3, 14))]:
            OUIncrement.from_params(prm, tau)
            naive_increment(prm, tau)


class TestOUSubstepExact:
    def test_noise_free_decay(self):
        prm = PhysParams(10.0, 0.0)
        out = ou_substep_exact(State(2.0, -3.0), 0.1, prm, z=1.7)
        d = math.exp(-0.5)
        assert out.p == pytest.approx(2.0 * d, rel=1e-15)
        assert out.q == pytest.approx(-3.0 * d, rel=1e-15)

    def test_small_step_limit(self):
        # At tau = 1e-14 the plain 1 - decay^2 is 8e-4 off: no sub-step.
        with pytest.raises(ValueError, match="upsilon \\* tau"):
            ou_substep_exact(State(1.0, 1.0), 1e-14, PRM10, z=0.8)
        # At a step the rule accepts, decay -> 1 and noise_std -> sigma
        # sqrt(tau), each to O(upsilon tau) = 1e-7.
        tau = 1e-8
        inc = OUIncrement.from_params(PhysParams(10.0, 2.0), tau)
        assert inc.decay == pytest.approx(1.0, abs=1e-7)
        assert inc.noise_std == pytest.approx(2.0 * math.sqrt(tau), rel=1e-7)

    def test_ito_isometry(self):
        tau = 2.0**-10
        n = 10**6
        rng = np.random.default_rng(21)
        out = ou_substep_exact(State(np.zeros(n), np.zeros(n)), tau, PRM10,
                               z=rng.standard_normal(n))
        target = (1 - math.exp(-10 * tau)) / 10
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(out.p.var(ddof=1) - target) < 3 * se

    def test_affine_in_state_and_noise(self):
        tau = 2.0**-6
        rng = np.random.default_rng(4)
        s1 = State(rng.normal(), rng.normal())
        s2 = State(rng.normal(), rng.normal())
        z1, z2 = rng.normal(), rng.normal()
        a, b = 0.3, -1.2
        combo = ou_substep_exact(
            State(a * s1.p + b * s2.p, a * s1.q + b * s2.q), tau, PRM10,
            z=a * z1 + b * z2)
        o1 = ou_substep_exact(s1, tau, PRM10, z=z1)
        o2 = ou_substep_exact(s2, tau, PRM10, z=z2)
        assert combo.p == pytest.approx(a * o1.p + b * o2.p, rel=1e-12)
        assert combo.q == pytest.approx(a * o1.q + b * o2.q, rel=1e-12)


class TestOUSubstepCoupled:
    def test_single_cell_midpoint_weight(self):
        tau = 2.0**-6
        dw = 0.013
        s = State(0.8, -0.4)
        out = ou_substep_coupled(s, FineWindow(np.array([dw]), tau), PRM10)
        d = math.exp(-0.5 * 10 * tau)
        assert out.p == pytest.approx(d * s.p + math.exp(-10 * tau / 4) * dw,
                                      rel=1e-13)
        assert out.q == pytest.approx(d * s.q, rel=1e-15)
        # O(tau) agreement with the distribution-exact form on z = dw/sqrt(tau)
        exact = ou_substep_exact(s, tau, PRM10, z=dw / math.sqrt(tau))
        assert abs(out.p - exact.p) <= tau * abs(dw) + 1e-12

    def test_noise_free_matches_exact(self):
        prm = PhysParams(10.0, 0.0)
        tau, tau_f = 2.0**-6, 2.0**-9
        win = FineWindow(np.full(8, 0.37), tau_f)
        out = ou_substep_coupled(State(1.0, 2.0), win, prm)
        exact = ou_substep_exact(State(1.0, 2.0), tau, prm, z=0.0)
        assert out.p == pytest.approx(exact.p, rel=1e-15)
        assert out.q == pytest.approx(exact.q, rel=1e-15)

    def test_convolution_variance_geometric_series(self):
        # Deterministic check: the weighted-sum variance against the exact
        # convolution variance, summed geometric series as oracle.
        u, tau, tau_f = 10.0, 2.0**-6, 2.0**-13
        n = int(tau / tau_f)
        k = np.arange(n)
        w = np.exp(-0.5 * u * (tau - (k + 0.5) * tau_f))
        var_sum = (w**2).sum() * tau_f
        x = u * tau_f
        oracle = tau_f * math.exp(x / 2) * (1 - math.exp(-u * tau)) / (math.exp(x) - 1)
        assert var_sum == pytest.approx(oracle, rel=1e-12)
        exact_var = (1 - math.exp(-u * tau)) / u
        assert abs(var_sum / exact_var - 1) <= 1e-3

    def test_sampled_variance_matches_exact(self):
        tau, tau_f = 2.0**-6, 2.0**-13
        n_paths = 4000
        rng = np.random.default_rng(9)
        inc = rng.standard_normal((int(tau / tau_f), n_paths)) * math.sqrt(tau_f)
        out = ou_substep_coupled(State(np.zeros(n_paths), np.zeros(n_paths)),
                                 FineWindow(inc, tau_f), PRM10)
        target = (1 - math.exp(-10 * tau)) / 10
        se = target * math.sqrt(2.0 / (n_paths - 1))
        assert abs(out.p.var(ddof=1) - target) < 3 * se

    def test_grid_mismatch(self):
        win = FineWindow(np.zeros(3), 2.0**-8)
        with pytest.raises(NonIntegralGrid):
            ou_substep_coupled(State(0.0, 0.0), win, PRM10, tau=2.0**-6)
        with pytest.raises(NonIntegralGrid):
            FineWindow(np.zeros(0), 2.0**-8)

    def test_window_is_one_or_two_dimensional(self):
        for shape in ((), (4, 2, 3)):
            with pytest.raises(ValueError):
                FineWindow(np.zeros(shape), 2.0**-8)

    @pytest.mark.parametrize("ratio", [1, 2, 128])
    @pytest.mark.parametrize("width", [None, 1, 32, 256],
                             ids=["1-D", "1", "32", "256"])
    def test_matches_tensordot_bitwise(self, ratio, width):
        tau_f = 2.0**-13
        shape = (ratio,) if width is None else (ratio, width)
        rng = np.random.default_rng(ratio)
        inc = rng.standard_normal(shape) * math.sqrt(tau_f)
        s = State(rng.standard_normal(shape[1:]),
                  rng.standard_normal(shape[1:]))
        prm = PhysParams(10.0, 0.7)
        tau = ratio * tau_f
        k = np.arange(ratio)
        w = np.exp(-0.5 * prm.upsilon * (tau - (k + 0.5) * tau_f))
        conv = np.tensordot(w, inc, axes=(0, 0))
        decay = math.exp(-0.5 * prm.upsilon * tau)
        for _ in range(2):  # the second call uses the cached weights
            out = ou_substep_coupled(s, FineWindow(inc, tau_f), prm, tau=tau)
            assert np.array_equal(out.p, decay * s.p + prm.sigma * conv)
            assert np.array_equal(out.q, decay * s.q)

    def test_cached_weights_are_shared_and_read_only(self):
        w = stochflow._midpoint_weights(10.0, 2.0**-6, 128, 2.0**-13)
        assert stochflow._midpoint_weights(10.0, 2.0**-6, 128, 2.0**-13) is w
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestNaiveSubstep:
    def test_position_frozen(self):
        for tau, z in ((0.1, 0.0), (2.0**-8, 2.3), (0.5, -1.1)):
            out = naive_substep_exact(State(1.0, -2.5), tau, PRM10, z=z)
            assert out.q == -2.5

    def test_noise_free_full_rate_decay(self):
        prm = PhysParams(10.0, 0.0)
        out = naive_substep_exact(State(3.0, 1.0), 0.1, prm, z=0.9)
        assert out.p == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)

    def test_energy_not_dissipated_from_rest(self):
        # One step from (0, q0): E[H0] grows by exactly the OU variance term.
        tau, q0 = 2.0**-6, 2.0
        n = 10**5
        rng = np.random.default_rng(31)
        out = naive_substep_exact(State(np.zeros(n), np.full(n, q0)), tau,
                                  PRM10, z=rng.standard_normal(n))
        h0 = energy_H0(out)
        gain = (1 - math.exp(-2 * 10 * tau)) / (4 * 10)
        target = q0**4 / 4 + gain
        se = float(np.std(h0, ddof=1) / math.sqrt(n))
        assert abs(float(h0.mean()) - target) < 3 * se
        assert float(h0.mean()) >= q0**4 / 4  # never below the frozen level


def test_dissipative_substep_strict_dissipation():
    # E[H(out)] <= e^{-u tau} H(in) + sigma^2 (1 - e^{-u tau}) / (2u).
    tau, n = 2.0**-6, 10**5
    rng = np.random.default_rng(12)
    for s0 in (State(1.0, 1.0), State(0.0, 2.0), State(2.0, -1.0)):
        out = ou_substep_exact(State(np.full(n, s0.p), np.full(n, s0.q)),
                               tau, PRM10, z=rng.standard_normal(n))
        h = energy_H(out, PRM10)
        bound = (math.exp(-10 * tau) * energy_H(s0, PRM10)
                 + (1 - math.exp(-10 * tau)) / 20)
        se = float(np.std(h, ddof=1) / math.sqrt(n))
        assert float(h.mean()) <= bound + 3 * se


def test_naive_increment_formulas():
    decay, std = naive_increment(PRM10, 2.0**-6)
    assert decay == pytest.approx(math.exp(-10 * 2.0**-6), rel=1e-15)
    assert std == pytest.approx(
        math.sqrt((1 - math.exp(-2 * 10 * 2.0**-6)) / 20), rel=1e-14)
