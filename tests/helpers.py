"""Test-only helpers: reference forms that the package itself never runs."""

from __future__ import annotations

from langsplit.detflow import SolverSettings, conservative_step
from langsplit.model import ArrayLike, PhysParams, State, energy_H
from langsplit.stochflow import naive_increment


def energy_residual(kind: str, s: State, tau: float, prm: PhysParams,
                    settings: SolverSettings = SolverSettings()) -> ArrayLike:
    """``H(map(s)) - H(s)`` for one deterministic sub-step.

    Near machine zero for the conservative kinds; O(tau^2) and generally
    nonzero for ``sympl_euler``.
    """
    out = conservative_step(kind, s, tau, prm, settings)
    return energy_H(out, prm) - energy_H(s, prm)


def naive_substep_exact(s: State, tau: float, prm: PhysParams,
                        z: ArrayLike) -> State:
    """Naive stochastic sub-step: full-rate OU momentum, frozen position.

    Exact solution of ``dP = -upsilon P dt + sigma dW, dQ = 0``.  The
    position (hence the potential energy) is untouched, which is why this
    sub-step cannot damp the physical energy.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    decay, noise_std = naive_increment(prm, tau)
    return State(decay * s.p + noise_std * z, s.q)
