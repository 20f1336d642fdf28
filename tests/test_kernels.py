"""The step kernels against their expression forms, bit for bit.

Each kernel (:mod:`langsplit.kernel`) runs its passes into work buffers, on
numpy scalars, or into fresh arrays, by the shape of its state.  Every
lane must see the same IEEE operations in the same order as the oracle in
``tests/helpers.py``, so the two agree in every bit, signed zeros and NaN
payloads included, and a returned state is never a work buffer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from langsplit import detflow
from langsplit.detflow import avf_step, dg_step, pavf_step, sympl_euler_step
from langsplit.model import PhysParams, State
from langsplit.stochflow import FineWindow, OUIncrement, ou_substep_coupled

from helpers import (oracle_avf_step, oracle_dg_step, oracle_ou_apply,
                     oracle_ou_coupled, oracle_pavf_step,
                     oracle_sympl_euler_step)

SHAPES = [(), (1,), (2,), (257,), (3, 5)]
UPSILONS = (1.0, 4.0, 10.0, 15.0)

MAPS = {
    "avf": (avf_step, oracle_avf_step),
    "pavf": (pavf_step, oracle_pavf_step),
    "dg": (dg_step, lambda s, tau, prm: oracle_dg_step(s, tau, prm)[0]),
    "sympl_euler": (sympl_euler_step, oracle_sympl_euler_step),
}


def bits(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


def assert_same_bits(out: State, ref: State):
    assert bits(out.p) == bits(ref.p)
    assert bits(out.q) == bits(ref.q)


def draw_state(shape, seed, scale, zero_lanes):
    """Normal lanes times ``scale``; with ``zero_lanes`` every third lane is
    the origin, a fixed point where dg's displacement vanishes."""
    rng = np.random.default_rng(seed)
    p = scale * rng.standard_normal(shape)
    q = scale * rng.standard_normal(shape)
    if zero_lanes and p.size > 1:
        p.reshape(-1)[::3] = 0.0
        q.reshape(-1)[::3] = 0.0
    if shape == ():
        return State(float(p), float(q))
    return State(p, q)


steps = st.integers(3, 13).map(lambda e: 2.0 ** -e)
common = dict(shape=st.sampled_from(SHAPES), upsilon=st.sampled_from(UPSILONS),
              tau=steps, seed=st.integers(0, 2**32 - 1),
              scale=st.sampled_from([1e-3, 0.5, 2.0, 4.0]),
              zero_lanes=st.booleans())
kernel_settings = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", list(MAPS))
@kernel_settings
@given(**common)
def test_map_equals_its_oracle(kind, shape, upsilon, tau, seed, scale,
                               zero_lanes):
    prm = PhysParams(upsilon, 1.0)
    kernel, oracle = MAPS[kind]
    s = draw_state(shape, seed, scale, zero_lanes)
    out = kernel(s, tau, prm)
    assert_same_bits(out, oracle(s, tau, prm))
    # The next call's work buffers must not be the returned state's.
    kept = bits(out.p), bits(out.q)
    kernel(draw_state(shape, seed + 1, scale, zero_lanes), tau, prm)
    assert (bits(out.p), bits(out.q)) == kept


def test_dg_lanes_converge_at_different_iterations(monkeypatch):
    # Origin lanes converge at the guess, wide lanes take several
    # iterations: the masked update must freeze each lane as its own solve.
    prm, tau = PhysParams(10.0, 1.0), 2.0**-4
    s = State(np.array([0.0, 3.0, 0.0, -5.0, 1e-3, 0.0]),
              np.array([0.0, -2.0, 0.0, 4.0, 1e-3, 0.0]))
    iterations = []
    solve = detflow.newton_solve_2d

    def counting(*args):
        out, info = solve(*args, return_info=True)
        iterations.append(info["iterations"])
        return out

    monkeypatch.setattr(detflow, "newton_solve_2d", counting)
    lanes = [oracle_dg_step(State(p, q), tau, prm)[1]
             for p, q in zip(s.p, s.q)]
    assert len(set(lanes)) >= 3, lanes
    ref, n_ref = oracle_dg_step(s, tau, prm)
    assert_same_bits(dg_step(s, tau, prm), ref)
    assert iterations == [n_ref] == [max(lanes)]


@kernel_settings
@given(**common)
def test_sampled_substep_equals_its_oracle(shape, upsilon, tau, seed, scale,
                                           zero_lanes):
    prm = PhysParams(upsilon, 1.0)
    inc = OUIncrement.from_params(prm, tau)
    s = draw_state(shape, seed, scale, zero_lanes)
    z = draw_state(shape, seed + 7, 1.0, False).p
    out = inc.apply(s, z)
    assert_same_bits(out, oracle_ou_apply(inc.decay, inc.noise_std, s, z))
    kept = bits(out.p), bits(out.q)
    inc.apply(draw_state(shape, seed + 1, scale, zero_lanes), z)
    assert (bits(out.p), bits(out.q)) == kept


@kernel_settings
@given(shape=st.sampled_from([(), (1,), (2,), (257,)]),
       upsilon=st.sampled_from(UPSILONS), tau=steps,
       n_fine=st.sampled_from([1, 8, 256]), seed=st.integers(0, 2**32 - 1))
def test_coupled_substep_equals_its_oracle(shape, upsilon, tau, n_fine, seed):
    prm = PhysParams(upsilon, 1.0)
    tau_f = tau / n_fine
    rng = np.random.default_rng(seed)
    increments = np.sqrt(tau_f) * rng.standard_normal((n_fine,) + shape)
    s = draw_state(shape, seed, 0.5, False)
    out = ou_substep_coupled(s, FineWindow(increments, tau_f), prm, tau=tau)
    assert_same_bits(out, oracle_ou_coupled(s, increments, tau_f, prm))
    kept = bits(out.p), bits(out.q)
    ou_substep_coupled(draw_state(shape, seed + 1, 0.5, False),
                       FineWindow(-increments, tau_f), prm, tau=tau)
    assert (bits(out.p), bits(out.q)) == kept
