import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from langsplit.model import (EnergyConstants, PhysParams, QuarticPotential,
                             State, energy_H, energy_H0, gibbs_moments,
                             position_marginal_normalizer)

from helpers import gibbs_log_density


def test_grad_U_values():
    grad = QuarticPotential().grad
    assert grad(0.0) == 0.0
    assert grad(1.0) == 1.0
    assert grad(-2.0) == -8.0


def test_energy_H0_values():
    assert energy_H0(State(0.0, 0.0)) == 0.0
    assert energy_H0(State(1.0, 0.0)) == 0.5
    assert energy_H0(State(1.0, 1.0)) == 0.75


def test_energy_H_values():
    prm = PhysParams(2.0, 1.0)
    assert energy_H(State(0.0, 0.0), prm) == 0.0
    assert energy_H(State(1.0, 1.0), prm) == pytest.approx(1.75, abs=1e-15)
    for p in (0.5, -3.0, 7.25):
        assert energy_H(State(p, 0.0), prm) == pytest.approx(p**2 / 2, rel=1e-15)


def test_energy_difference_is_coupling_term():
    prm = PhysParams(10.0, 1.0)
    rng = np.random.default_rng(1)
    p, q = rng.uniform(-5, 5, 1000), rng.uniform(-5, 5, 1000)
    s = State(p, q)
    np.testing.assert_allclose(energy_H(s, prm) - energy_H0(s),
                               0.5 * prm.upsilon * p * q, rtol=1e-11, atol=1e-13)


def test_gibbs_log_density():
    prm = PhysParams(1.0, 1.0)
    assert gibbs_log_density(State(0.0, 0.0), prm) == 0.0
    assert gibbs_log_density(State(1.0, 0.0), prm) == pytest.approx(-1.0)
    # doubling sigma^2 halves the log density at a fixed state
    s = State(0.7, -1.3)
    doubled = PhysParams(1.0, math.sqrt(2.0))
    assert gibbs_log_density(s, doubled) == pytest.approx(
        0.5 * gibbs_log_density(s, prm), rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, -0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PhysParams(bad, 1.0)
        with pytest.raises(ValueError):
            PhysParams(1.0, bad)
    with pytest.raises(ValueError):
        gibbs_log_density(State(0.0, 0.0), PhysParams(1.0, 0.0))


def test_params_are_values():
    # Two fields; the quartic potential is one shared class attribute, so
    # equal parameters compare and hash equal.
    assert PhysParams(10, 1) == PhysParams(10, 1)
    assert hash(PhysParams(10, 1)) == hash(PhysParams(10.0, 1.0))
    assert PhysParams(10, 1) != PhysParams(10, 2)
    assert [f.name for f in dataclasses.fields(PhysParams)] == ["upsilon",
                                                                 "sigma"]
    assert PhysParams(10, 1).potential is PhysParams(2, 3).potential


class TestGibbsMoments:
    def test_closed_forms(self):
        m = gibbs_moments(PhysParams(15.0, 1.0))
        assert m.Ep2 == pytest.approx(1.0 / 30.0, rel=1e-14)
        assert m.Eq4 == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_eq2_against_gamma_ratio(self):
        # E[q^2] = Gamma(3/4)/Gamma(1/4) * sqrt(2 sigma^2 / upsilon)
        for ups, sig in ((15.0, 1.0), (10.0, 1.0), (2.0, 0.5)):
            m = gibbs_moments(PhysParams(ups, sig))
            oracle = (math.gamma(0.75) / math.gamma(0.25)
                      * math.sqrt(2.0 * sig**2 / ups))
            assert m.Eq2 == pytest.approx(oracle, rel=1e-9)

    def test_eq2_against_dense_trapezoid(self):
        prm = PhysParams(15.0, 1.0)
        c = prm.upsilon / (2 * prm.sigma**2)
        q = np.linspace(0.0, 3.0, 400001)
        w = np.exp(-c * q**4)
        oracle = np.trapezoid(q * q * w, q) / np.trapezoid(w, q)
        assert gibbs_moments(prm).Eq2 == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("sig", [0.5, 1.0])
    @pytest.mark.parametrize("ups", [2.0, 4.0, 10.0, 15.0])
    def test_closed_forms_match_adaptive_quadrature(self, ups, sig):
        # scipy serves only as an independent oracle here.
        prm = PhysParams(ups, sig)
        c = ups / (2.0 * sig**2)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        z, _ = integrate.quad(lambda q: math.exp(-c * q**4), -np.inf, np.inf,
                              **opts)
        num, _ = integrate.quad(lambda q: q * q * math.exp(-c * q**4),
                                -np.inf, np.inf, **opts)
        assert position_marginal_normalizer(prm) == pytest.approx(z, rel=1e-13)
        assert gibbs_moments(prm).Eq2 == pytest.approx(num / z, rel=1e-13)

    def test_ep2_matches_gaussian_sampling(self):
        prm = PhysParams(15.0, 1.0)
        n = 10**6
        rng = np.random.default_rng(7)
        draws = rng.normal(0.0, prm.sigma / math.sqrt(2 * prm.upsilon), n)
        sample_var = draws.var(ddof=1)
        target = gibbs_moments(prm).Ep2
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - target) < 3 * se


class TestEnergyConstants:
    @pytest.mark.parametrize("upsilon", [2.0, 10.0, 15.0])
    def test_values(self, upsilon):
        consts = EnergyConstants.from_params(PhysParams(upsilon, 1.0))
        assert consts.c_h == upsilon**4 / 64.0 + 1.0
        assert consts.c_e == 0.125

    @pytest.mark.parametrize("upsilon", [2.0, 10.0, 15.0])
    def test_shift_and_equivalence_sweep(self, upsilon):
        prm = PhysParams(upsilon, 1.0)
        consts = EnergyConstants.from_params(prm)
        rng = np.random.default_rng(11)
        n = 10**6
        p = rng.uniform(-10, 10, n)
        q = rng.uniform(-10, 10, n)
        h = energy_H(State(p, q), prm)
        assert np.min(h + consts.c_h) >= 1.0 - 1e-9
        assert np.all(consts.c_e * (p**2 + q**4)
                      <= h + consts.c_h + upsilon**4 / 8.0 + 1e-9)
        # two-sided equivalence chain
        assert np.all((p**2 + q**4) / 8.0 - upsilon**4 / 8.0 <= h + 1e-9)
        assert np.all(h <= (0.5 + upsilon / 4.0) * (p**2 + q**4 + 1.0) + 1e-9)


class TestQuarticPotential:
    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_avg_grad_matches_simpson(self, a, b):
        # Simpson's rule is exact for the cubic integrand, so it is an
        # independent oracle for the segment-averaged gradient.
        pot = QuarticPotential()
        mid = 0.5 * (a + b)
        simpson = (a**3 + 4 * mid**3 + b**3) / 6.0
        assert pot.avg_grad(a, b) == pytest.approx(simpson, rel=1e-12, abs=1e-9)

    def test_avg_grad_db_is_derivative(self):
        pot = QuarticPotential()
        a, b, h = 0.7, -1.2, 1e-6
        fd = (pot.avg_grad(a, b + h) - pot.avg_grad(a, b - h)) / (2 * h)
        assert pot.avg_grad_db(a, b) == pytest.approx(fd, rel=1e-8)

    def test_hess_is_grad_derivative(self):
        pot = QuarticPotential()
        q, h = 1.3, 1e-6
        fd = (pot.grad(q + h) - pot.grad(q - h)) / (2 * h)
        assert pot.hess(q) == pytest.approx(fd, rel=1e-8)
