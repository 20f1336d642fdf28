import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langsplit import detflow
from langsplit.analysis import jacobian_det
from langsplit.detflow import (avf_step, conservative_step, dg_step, newton_solve_2d, pavf_step,
                               sympl_euler_step)
from langsplit.errors import NonConvergence
from langsplit.model import PhysParams, QuarticPotential, State, energy_H

from helpers import energy_residual, subsystem_field

PRM10 = PhysParams(10.0, 1.0)


def picard_solve(kind, s, tau, prm, sweeps=400):
    """Independent fixed-point solve of the implicit map equations."""
    pot = prm.potential
    u = prm.upsilon
    f = subsystem_field(s, prm)
    p1, q1 = s.p + tau * f.p, s.q + tau * f.q
    for _ in range(sweeps):
        if kind == "avf":
            p1 = s.p - 0.25 * tau * u * (p1 + s.p) - tau * pot.avg_grad(s.q, q1)
            q1 = s.q + 0.5 * tau * (p1 + s.p) + 0.25 * tau * u * (q1 + s.q)
        elif kind == "pavf":
            p1 = (s.p - tau * pot.avg_grad(s.q, q1)) / (1.0 + 0.5 * tau * u)
            q1 = s.q + 0.5 * tau * (p1 + s.p) + 0.5 * tau * u * s.q
        elif kind == "dg":
            mp, mq = 0.5 * (p1 + s.p), 0.5 * (q1 + s.q)
            dp, dq = p1 - s.p, q1 - s.q
            dd = dp * dp + dq * dq
            c = 0.0 if dd < 1e-28 else (
                (pot.avg_grad(s.q, q1) - pot.grad(mq)) * dq / dd)
            p1 = s.p - tau * (pot.grad(mq) + 0.5 * u * mp + c * dq)
            q1 = s.q + tau * (mp + 0.5 * u * mq + c * dp)
    return State(p1, q1)


class TestAvgCubic:
    avg_grad = staticmethod(QuarticPotential().avg_grad)

    def test_values(self):
        assert self.avg_grad(2.0, 2.0) == 8.0
        assert self.avg_grad(0.0, 1.0) == 0.25
        assert self.avg_grad(-1.0, 1.0) == 0.0

    @given(st.floats(-30, 30), st.floats(-30, 30))
    def test_matches_simpson(self, a, b):
        mid = 0.5 * (a + b)
        simpson = (a**3 + 4 * mid**3 + b**3) / 6.0
        assert self.avg_grad(a, b) == pytest.approx(simpson, rel=1e-12,
                                                    abs=1e-9)


@pytest.mark.parametrize("step", [avf_step, dg_step, pavf_step])
class TestImplicitMapsCommon:
    def test_origin_is_fixed_point(self, step):
        for tau in (2.0**-10, 0.01):
            out = step(State(0.0, 0.0), tau, PRM10)
            assert out.p == 0.0 and out.q == 0.0

    def test_matches_picard_oracle(self, step):
        kind = step.__name__.split("_")[0]
        s, tau = State(1.0, 1.0), 2.0**-10
        out = step(s, tau, PRM10)
        oracle = picard_solve(kind, s, tau, PRM10)
        assert out.p == pytest.approx(oracle.p, abs=1e-12)
        assert out.q == pytest.approx(oracle.q, abs=1e-12)

    def test_energy_conserved_at_unit_state(self, step):
        s, tau = State(1.0, 1.0), 2.0**-10
        h0 = energy_H(s, PRM10)
        h1 = energy_H(step(s, tau, PRM10), PRM10)
        assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))

    def test_step_size_outside_window_raises(self, step):
        with pytest.raises(ValueError):
            step(State(1.0, 1.0), 0.5, PRM10)  # 0.5 >= 2/upsilon
        with pytest.raises(ValueError):
            step(State(1.0, 1.0), -0.1, PRM10)

    def test_deterministic(self, step):
        rng = np.random.default_rng(5)
        s = State(rng.uniform(-2, 2, 64), rng.uniform(-2, 2, 64))
        a = step(s, 2.0**-8, PRM10)
        b = step(s, 2.0**-8, PRM10)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


def newton_oracle(kind, s, tau, prm):
    """The average-vector-field equations solved by 2-D Newton iteration."""
    pot, u = prm.potential, prm.upsilon
    p0, q0 = s.p, s.q
    if kind == "avf":
        a = 0.25 * tau * u

        def residual(x):
            return (x.p - p0 + a * (x.p + p0) + tau * pot.avg_grad(q0, x.q),
                    x.q - q0 - 0.5 * tau * (x.p + p0) - a * (x.q + q0))

        def jacobian(x):
            return (1.0 + a, tau * pot.avg_grad_db(q0, x.q),
                    -0.5 * tau, 1.0 - a)
    else:
        a = 0.5 * tau * u

        def residual(x):
            return (x.p - p0 + a * x.p + tau * pot.avg_grad(q0, x.q),
                    x.q - q0 - 0.5 * tau * (x.p + p0) - a * q0)

        def jacobian(x):
            return (1.0 + a, tau * pot.avg_grad_db(q0, x.q), -0.5 * tau, 1.0)
    f = subsystem_field(s, prm)
    guess = State(p0 + tau * f.p, q0 + tau * f.q)
    # Tighter than the solver's relative tolerance, so that the oracle's own
    # error stays well below the 1e-12 the closed forms are compared at.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detflow, "NEWTON_REL_TOL", 1e-14)
        return newton_solve_2d(residual, jacobian, guess)


closed_form_cases = dict(
    kind=st.sampled_from(["avf", "pavf"]),
    p=st.floats(-30, 30), q=st.floats(-30, 30),
    tau=st.sampled_from([2.0**-4, 2.0**-8, 2.0**-13]),
    upsilon=st.sampled_from([2.0, 10.0]))


class TestClosedForms:
    """avf and pavf take the real root of a cubic instead of iterating."""

    @settings(max_examples=300, deadline=None)
    @given(**closed_form_cases)
    def test_matches_newton_oracle(self, kind, p, q, tau, upsilon):
        prm, s = PhysParams(upsilon, 1.0), State(p, q)
        out = conservative_step(kind, s, tau, prm)
        ref = newton_oracle(kind, s, tau, prm)
        tol = 1e-12 * (1.0 + max(abs(ref.p), abs(ref.q)))
        assert abs(out.p - ref.p) <= tol and abs(out.q - ref.q) <= tol

    @settings(max_examples=300, deadline=None)
    @given(**closed_form_cases)
    def test_energy_to_rounding(self, kind, p, q, tau, upsilon):
        # Rounding of H itself scales with the size of its terms, which
        # near H = 0 is far above |H|.
        prm, s = PhysParams(upsilon, 1.0), State(p, q)
        out = conservative_step(kind, s, tau, prm)
        terms = 1.0 + 0.5 * p * p + 0.25 * q**4 + 0.5 * upsilon * abs(p * q)
        assert abs(energy_H(out, prm) - energy_H(s, prm)) <= 1e-13 * terms

    def test_calls_no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("newton_solve_2d called")

        monkeypatch.setattr(detflow, "newton_solve_2d", refuse)
        s = State(np.linspace(-3, 3, 7), np.linspace(2, -2, 7))
        for step in (avf_step, pavf_step):
            out = step(s, 2.0**-8, PRM10)
            assert np.all(np.isfinite(out.p)) and np.all(np.isfinite(out.q))

    def test_scalar_in_float_out(self):
        for step in (avf_step, pavf_step):
            out = step(State(0.5, -1.0), 2.0**-8, PRM10)
            assert type(out.p) is float and type(out.q) is float


def closed_form_reference(kind, s, tau, prm):
    """avf and pavf with each expression written out once, no work arrays."""
    p0, q0 = np.asarray(s.p, dtype=float), np.asarray(s.q, dtype=float)
    if kind == "avf":
        a = 0.25 * tau * prm.upsilon
        k = 8.0 * (1.0 - a * a) / (tau * tau)
        c0 = (4.0 * q0 * q0 * q0 - (8.0 / tau) * p0
              - (16.0 * a * (1.0 + a) / (tau * tau)) * q0)
    else:
        a = 0.5 * tau * prm.upsilon
        k = 8.0 * (1.0 + a) / (tau * tau)
        c0 = (4.0 * q0 * q0 * q0 - (4.0 * (2.0 + a) / tau) * p0
              - (8.0 * a * (1.0 + a) / (tau * tau)) * q0)
    q2 = q0 * q0
    c1 = 6.0 * q2 + k
    r = np.sqrt((k + (2.0 / 3.0) * q2) / 3.0)
    big_q = c0 - q0 * ((88.0 / 27.0) * q2 + (4.0 / 3.0) * k)
    d = -2.0 * r * np.sinh(np.arcsinh(big_q / (2.0 * r * r * r)) / 3.0)
    d -= (4.0 / 3.0) * q0
    f = ((d + 4.0 * q0) * d + c1) * d + c0
    df = (3.0 * d + 8.0 * q0) * d + c1
    q1 = q0 + (d - f / df)
    avg = prm.potential.avg_grad(q0, q1)
    if kind == "avf":
        return State(((1.0 - a) * p0 - tau * avg) / (1.0 + a), q1)
    return State((p0 - tau * avg) / (1.0 + a), q1)


@pytest.mark.parametrize("kind", ["avf", "pavf"])
@pytest.mark.parametrize("width", [None, 1, 7, 256, 4099])
def test_closed_forms_match_plain_expressions_bitwise(kind, width):
    # The maps evaluate the cubic in place; every rounding stays as in the
    # plain expressions.
    rng = np.random.default_rng(8)
    shape = () if width is None else (width,)
    s = State(rng.uniform(-30, 30, shape), rng.uniform(-30, 30, shape))
    for upsilon, tau in ((2.0, 2.0**-4), (10.0, 2.0**-8), (15.0, 2.0**-13)):
        prm = PhysParams(upsilon, 1.0)
        out = conservative_step(kind, s, tau, prm)
        ref = closed_form_reference(kind, s, tau, prm)
        assert np.array_equal(out.p, ref.p) and np.array_equal(out.q, ref.q)


class TestFrozenValues:
    """Outputs verified against the Picard oracle, frozen for regression."""

    def test_avf_unit_state(self):
        out = avf_step(State(1.0, 1.0), 2.0**-10, PRM10)
        assert out.p == pytest.approx(0.9941462827158917, abs=1e-12)
        assert out.q == pytest.approx(1.0058708498691709, abs=1e-12)

    def test_pavf_spec_point(self):
        prm = PhysParams(2.0, 1.0)
        s = State(1.0, 0.0)
        out = pavf_step(s, 0.01, prm)
        h0, h1 = energy_H(s, prm), energy_H(out, prm)
        assert abs(h1 - h0) <= 1e-10 * (1.0 + abs(h0))
        # explicit position update given the solved momentum
        assert out.q == pytest.approx(
            0.0 * 1.01 + 0.005 * (out.p + 1.0), abs=1e-14)

    def test_dg_degenerate_branch_at_origin(self):
        out = dg_step(State(0.0, 0.0), 2.0**-8, PRM10)
        assert out.p == 0.0 and out.q == 0.0


def test_dg_solves_literal_discrete_gradient_system():
    # Rebuild the discrete gradient from the literal energy-difference
    # quotient (independent of the factored form used internally) and check
    # that the solver output satisfies the scheme equations.
    prm = PRM10
    s, tau = State(1.0, 1.0), 2.0**-10
    out = dg_step(s, tau, prm)
    mp, mq = 0.5 * (out.p + s.p), 0.5 * (out.q + s.q)
    dp, dq = out.p - s.p, out.q - s.q
    dd = dp * dp + dq * dq
    grad_mid = np.array([mp + 0.5 * prm.upsilon * mq,
                         mq**3 + 0.5 * prm.upsilon * mp])
    num = energy_H(out, prm) - energy_H(s, prm) - grad_mid @ np.array([dp, dq])
    dbar = grad_mid + (num / dd) * np.array([dp, dq])
    assert dp == pytest.approx(-tau * dbar[1], abs=1e-11)
    assert dq == pytest.approx(tau * dbar[0], abs=1e-11)


class TestSymplecticEuler:
    def test_hand_values(self):
        prm = PhysParams(2.0, 1.0)
        out = sympl_euler_step(State(1.0, 0.0), 0.1, prm)
        assert out.p == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert out.q == pytest.approx(0.1 / 1.1, rel=1e-15)

    def test_fixed_point(self):
        prm = PhysParams(2.0, 1.0)
        out = sympl_euler_step(State(0.0, 0.0), 0.05, prm)
        assert (out.p, out.q) == (0.0, 0.0)

    def test_unit_jacobian_determinant(self):
        prm = PhysParams(2.0, 1.0)
        rng = np.random.default_rng(3)
        s = State(rng.uniform(-2, 2, 1000), rng.uniform(-2, 2, 1000))
        det = jacobian_det(lambda x: sympl_euler_step(x, 0.01, prm), s)
        np.testing.assert_allclose(det, 1.0, rtol=1e-6)


class TestNewton:
    def test_linear_residual_one_iteration(self):
        target = State(2.5, -0.75)
        out, info = newton_solve_2d(
            lambda x: (x.p - target.p, x.q - target.q),
            lambda x: (1.0, 0.0, 0.0, 1.0),
            State(0.0, 0.0), return_info=True)
        assert info["iterations"] == 1
        assert out.p == pytest.approx(target.p) and out.q == pytest.approx(target.q)

    def test_avf_residual_converges_quickly(self):
        prm, s, tau = PRM10, State(1.0, 1.0), 2.0**-10
        pot, u = prm.potential, prm.upsilon

        def residual(x):
            f1 = x.p - s.p + 0.25 * tau * u * (x.p + s.p) + tau * pot.avg_grad(s.q, x.q)
            f2 = x.q - s.q - 0.5 * tau * (x.p + s.p) - 0.25 * tau * u * (x.q + s.q)
            return f1, f2

        def jac(x):
            return (1 + 0.25 * tau * u, tau * pot.avg_grad_db(s.q, x.q),
                    -0.5 * tau, 1 - 0.25 * tau * u)

        f = subsystem_field(s, prm)
        guess = State(s.p + tau * f.p, s.q + tau * f.q)
        _, info = newton_solve_2d(residual, jac, guess, return_info=True)
        assert info["iterations"] <= 6
        assert not info["fallback_used"]

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 0)
        with pytest.raises(NonConvergence):
            newton_solve_2d(lambda x: (x.p - 1.0, x.q),
                            lambda x: (1.0, 0.0, 0.0, 1.0), State(0.0, 0.0))

    def test_exhausted_budget_names_first_unconverged_lane(self, monkeypatch):
        monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 0)
        target = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        guess = target.copy()
        guess[[2, 4]] += 1.0
        with pytest.raises(NonConvergence) as err:
            newton_solve_2d(lambda x: (x.p - target, x.q),
                            lambda x: (1.0, 0.0, 0.0, 1.0),
                            State(guess, np.zeros(5)))
        assert err.value.path_index == 2
        with pytest.raises(NonConvergence) as err:
            newton_solve_2d(lambda x: (x.p - 1.0, x.q),
                            lambda x: (1.0, 0.0, 0.0, 1.0), State(0.0, 0.0))
        assert err.value.path_index is None

    def test_stalled_newton_raises(self, monkeypatch):
        # Badly scaled Jacobian entries stall Newton within its budget.
        monkeypatch.setattr(detflow, "NEWTON_MAX_ITER", 10)
        residual = lambda x: (x.p - 2.0, x.q + 1.0)
        bad_jac = lambda x: (100.0, 0.0, 0.0, 100.0)
        with pytest.raises(NonConvergence):
            newton_solve_2d(residual, bad_jac, State(10.0, 10.0))


class TestEnergyResidual:
    def test_conservative_maps_near_zero(self):
        s = State(1.0, 1.0)
        h = energy_H(s, PRM10)
        for kind in ("avf", "dg", "pavf"):
            r = energy_residual(kind, s, 2.0**-10, PRM10)
            assert abs(r) <= 1e-10 * (1.0 + abs(h))

    def test_zero_at_fixed_point(self):
        for kind in ("avf", "dg", "pavf", "sympl_euler"):
            assert energy_residual(kind, State(0.0, 0.0), 2.0**-8, PRM10) == 0.0

    def test_sympl_euler_second_order_defect(self):
        prm = PhysParams(2.0, 1.0)
        s = State(1.0, 1.0)
        r1 = energy_residual("sympl_euler", s, 1e-3, prm)
        r2 = energy_residual("sympl_euler", s, 5e-4, prm)
        assert 3.5 <= abs(r1 / r2) <= 4.5


@pytest.mark.parametrize("upsilon", [2.0, 10.0, 15.0])
@pytest.mark.parametrize("tau", [2.0**-6, 2.0**-12])
def test_energy_conservation_sweep(upsilon, tau):
    prm = PhysParams(upsilon, 1.0)
    rng = np.random.default_rng(17)
    s = State(rng.uniform(-3, 3, 2000), rng.uniform(-3, 3, 2000))
    h0 = energy_H(s, prm)
    for kind in ("avf", "dg", "pavf"):
        h1 = energy_H(conservative_step(kind, s, tau, prm), prm)
        assert np.all(np.abs(h1 - h0) <= 1e-9 * (1.0 + np.abs(h0)))


@pytest.mark.parametrize("kind", ["avf", "dg", "pavf", "sympl_euler"])
def test_first_order_consistency_with_subsystem_flow(kind):
    # map(s, tau) - s - tau f(s) = O(tau^2): Richardson ratio near 4.
    prm = PRM10
    grid = State(np.array([1.0, -0.5, 2.0, 0.3]),
                 np.array([0.5, 1.5, -1.0, -0.2]))
    f = subsystem_field(grid, prm)

    def defect(tau):
        out = conservative_step(kind, grid, tau, prm)
        return np.hypot(out.p - grid.p - tau * f.p, out.q - grid.q - tau * f.q)

    ratio = defect(2.0**-7) / defect(2.0**-8)
    assert np.all(ratio > 3.0) and np.all(ratio < 5.0)


def dg_reference(s, tau, prm):
    """dg_step in its quartic form, as its docstring writes it out: every
    term recomputed in each callable and every lane masked."""
    p0 = np.asarray(s.p, dtype=float)
    q0 = np.asarray(s.q, dtype=float)
    a = 0.25 * tau * prm.upsilon
    e1 = (2.0 * a) * p0
    e2 = tau * p0 + (2.0 * a) * q0

    def parts(x):
        dp, dq = x.p - p0, x.q - q0
        h = 0.5 * dq
        mq = q0 + h
        dd = dp * dp + dq * dq
        live = dd >= 1e-28
        inv = np.where(live, 1.0 / np.where(live, dd, 1.0), 0.0)
        w = h * h * inv
        return dp, dq, h, mq, inv, w, mq * dq * w

    def residual(x):
        dp, dq, _, mq, _, _, c = parts(x)
        return ((1.0 + a) * dp + e1 + tau * (mq * mq * mq + c * dq),
                (1.0 - a) * dq - e2 - tau * ((0.5 + c) * dp))

    def jacobian(x):
        dp, dq, h, mq, inv, w, c = parts(x)
        dc_dp1 = -2.0 * c * inv * dp
        dc_dq1 = (h + 3.0 * mq) * w + -2.0 * c * inv * dq
        return ((1.0 + a) + tau * (dc_dp1 * dq),
                tau * (0.5 * (3.0 * mq**2) + dc_dq1 * dq + c),
                -tau * (0.5 + c + dc_dp1 * dp),
                (1.0 - a) - tau * (dc_dq1 * dp))

    guess = State(p0 - e1 - tau * (q0 * q0 * q0), q0 + e2)
    return detflow.newton_solve_2d(residual, jacobian, guess)


def dg_avg_grad_oracle(s, tau, prm):
    """The discrete-gradient map in its general form: the correction
    ``(avg_grad(q, q1) - U'(mq)) dq / |delta|^2``, from the Euler guess."""
    u, pot = prm.upsilon, prm.potential
    p0 = np.asarray(s.p, dtype=float)
    q0 = np.asarray(s.q, dtype=float)

    def parts(x):
        mp, mq = 0.5 * (x.p + p0), 0.5 * (x.q + q0)
        dp, dq = x.p - p0, x.q - q0
        dd = dp * dp + dq * dq
        live = dd >= 1e-28
        dd_safe = np.where(live, dd, 1.0)
        corr_num = (pot.avg_grad(q0, x.q) - pot.grad(mq)) * dq
        c = np.where(live, corr_num / dd_safe, 0.0)
        return mp, mq, dp, dq, dd_safe, live, c

    def residual(x):
        mp, mq, dp, dq, _, _, c = parts(x)
        return (x.p - p0 + tau * (pot.grad(mq) + 0.5 * u * mp + c * dq),
                x.q - q0 - tau * (mp + 0.5 * u * mq + c * dp))

    def jacobian(x):
        mp, mq, dp, dq, dd_safe, live, c = parts(x)
        s_term = pot.avg_grad(q0, x.q) - pot.grad(mq)
        ds_dq1 = pot.avg_grad_db(q0, x.q) - 0.5 * pot.hess(mq)
        dc_dp1 = np.where(live, -2.0 * c * dp / dd_safe, 0.0)
        dc_dq1 = np.where(
            live, (ds_dq1 * dq + s_term) / dd_safe - 2.0 * c * dq / dd_safe,
            0.0)
        return (1.0 + tau * (0.25 * u + dc_dp1 * dq),
                tau * (0.5 * pot.hess(mq) + dc_dq1 * dq + c),
                -tau * (0.5 + dc_dp1 * dp + c),
                1.0 - tau * (0.25 * u + dc_dq1 * dp))

    f = subsystem_field(s, prm)
    guess = State(s.p + tau * f.p, s.q + tau * f.q)
    return detflow.newton_solve_2d(residual, jacobian, guess)


def mixed_batch(n, seed):
    """Live lanes of all sizes, the degenerate origin and near-rest lanes."""
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
    p[0] = q[0] = 0.0
    p[1], q[1] = 1e-16, 0.0
    p[2], q[2] = 0.0, -2.5
    return State(p, q)


class TestDgBitIdentity:
    """The one-pass iterate gives the written-out map's results bit for bit."""

    @pytest.mark.parametrize("upsilon", [2.0, 10.0, 15.0])
    @pytest.mark.parametrize("tau", [2.0**-4, 2.0**-8, 2.0**-13])
    def test_matches_reference_form(self, upsilon, tau):
        prm = PhysParams(upsilon, 1.0)
        s = mixed_batch(256, 3)
        for batch in (s, State(s.p[3:], s.q[3:])):  # masked, then all live
            out, ref = dg_step(batch, tau, prm), dg_reference(batch, tau, prm)
            assert np.array_equal(out.p, ref.p)
            assert np.array_equal(out.q, ref.q)

    @pytest.mark.parametrize("upsilon", [2.0, 10.0, 15.0])
    @pytest.mark.parametrize("tau", [2.0**-4, 2.0**-8, 2.0**-13])
    def test_agrees_with_general_form(self, upsilon, tau):
        # avg_grad(q, q1) - U'(mq) = mq dq^2 / 4 exactly, so both forms solve
        # one system; each root meets the Newton tolerance, and the two stay
        # within it of each other (the quartic form moved them by at most
        # 4.4e-16 here).
        prm = PhysParams(upsilon, 1.0)
        s = mixed_batch(256, 3)
        out, ref = dg_step(s, tau, prm), dg_avg_grad_oracle(s, tau, prm)
        scale = np.maximum(np.abs(ref.p), np.abs(ref.q))
        tol = detflow.NEWTON_ABS_TOL + detflow.NEWTON_REL_TOL * scale
        assert np.all(np.abs(out.p - ref.p) <= tol)
        assert np.all(np.abs(out.q - ref.q) <= tol)

    def test_batch_equals_lane_by_lane(self):
        s, tau = mixed_batch(33, 4), 2.0**-8
        out = dg_step(s, tau, PRM10)
        for i in range(len(s.p)):
            lane = dg_step(State(float(s.p[i]), float(s.q[i])), tau, PRM10)
            assert (lane.p, lane.q) == (out.p[i], out.q[i]), i

    def test_same_solver_iterations(self, monkeypatch):
        counts = []
        solve = detflow.newton_solve_2d

        def counting(*args, **kwargs):
            out, info = solve(*args, return_info=True)
            counts.append(info["iterations"])
            return out

        monkeypatch.setattr(detflow, "newton_solve_2d", counting)
        s = mixed_batch(64, 5)
        for tau in (2.0**-4, 2.0**-10):
            dg_step(s, tau, PRM10)
            dg_reference(s, tau, PRM10)
        assert counts[0::2] == counts[1::2]


def test_newton_asks_for_jacobian_at_latest_residual_point():
    # dg_step reuses the terms of the latest residual in its Jacobian, so
    # the solver must ask for the Jacobian only with the state it last
    # passed to the residual.  Lanes that converge at different iterations
    # exercise the masked update too.
    calls = []
    target = np.array([0.5, -1.5, 2.0])

    def residual(x):
        calls.append(("residual", x))
        return x.p ** 3 - target, x.q - 0.1 * x.p

    def jacobian(x):
        calls.append(("jacobian", x))
        return 3.0 * x.p ** 2, np.zeros(3), -0.1 * np.ones(3), np.ones(3)

    out, info = newton_solve_2d(residual, jacobian,
                                State(np.ones(3), np.zeros(3)),
                                return_info=True)
    np.testing.assert_allclose(out.p ** 3, target, rtol=1e-12)
    assert info["iterations"] >= 3
    kinds = [kind for kind, _ in calls]
    pairs = ["jacobian", "residual"] * info["iterations"]
    assert kinds == ["residual"] + pairs
    for i in range(1, len(calls), 2):
        assert calls[i][1] is calls[i - 1][1]
