"""Exact flows of the stochastic sub-systems.

The dissipative stochastic subsystem contracts both coordinates at rate
``upsilon/2`` and drives the momentum with additive noise:

    dP = -(upsilon/2) P dt + sigma dW,    dQ = -(upsilon/2) Q dt.

It is solved exactly in two interchangeable forms: distribution-exact
sampling from a single standard normal draw, and path-coupled evaluation of
the stochastic convolution on a window of fine Brownian increments (so a
coarse run and a fine reference run can share one Wiener path).  Each is
built once and shared by every step: the sampled sub-step once per
``(prm, tau)``, the path-coupled quadrature weights once per level.

The constants of the naive sub-step (full-rate Ornstein-Uhlenbeck momentum,
frozen position) are kept for the non-dissipation comparison; that sub-step
is exactly the sub-flow whose failure to damp the physical energy motivates
the dissipative splitting.  Both sampled constructors refuse a step whose
noise variance ``1 - decay^2`` has cancelled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegralGrid
from .kernel import SCALAR, Work, constants, fixed, kernel
from .model import ArrayLike, PhysParams, State, new_state

__all__ = [
    "OUIncrement",
    "FineWindow",
    "ou_substep_exact",
    "ou_substep_coupled",
    "naive_increment",
]


_OU_WORK, _OU_COUPLED_WORK = Work(2), Work(2)


@dataclass(frozen=True)
class OUIncrement:
    """Exact one-step statistics of the dissipative stochastic subsystem.

    ``decay`` multiplies both coordinates; ``noise_std`` is the standard
    deviation of the stochastic convolution added to the momentum, satisfying
    ``noise_std^2 == sigma^2 (1 - decay^2) / upsilon``.
    """

    decay: float
    noise_std: float
    # Both, as the kernel of a state takes them.
    _constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_constants",
                           fixed(self.decay, self.noise_std))

    @classmethod
    @functools.lru_cache(maxsize=64)
    def from_params(cls, prm: PhysParams, tau: float) -> "OUIncrement":
        decay = math.exp(-0.5 * prm.upsilon * tau)
        var = _keeps_noise(decay, prm.upsilon * tau) / prm.upsilon
        return cls(decay=decay, noise_std=prm.sigma * math.sqrt(var))

    def apply(self, s: State, z: ArrayLike) -> State:
        """``(decay p + noise_std z, decay q)``, in fresh arrays."""
        p, q = s
        k = kernel(p.shape) if isinstance(p, np.ndarray) else SCALAR
        decay, noise_std = self._constants[k.form]
        dp, dz = k.work[_OU_WORK]
        p = k.add(k.mul(decay, p, dp), k.mul(noise_std, z, dz), None)
        return new_state((p, k.mul(decay, q, None)))


@dataclass(frozen=True)
class FineWindow:
    """Fine Brownian increments spanning one coarse step.

    ``increments`` has the time axis first: shape ``(n_fine,)`` for one path
    or ``(n_fine, n_paths)`` for a batch; entries are N(0, tau_f) draws.
    """

    increments: np.ndarray
    tau_f: float

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "increments", inc)
        if inc.ndim not in (1, 2):
            raise ValueError("fine increments must be (n_fine,) or "
                             f"(n_fine, n_paths), got shape {inc.shape}")
        if inc.shape[0] == 0:
            raise NonIntegralGrid("fine window is empty")
        if self.tau_f <= 0:
            raise ValueError(f"fine spacing must be positive, got {self.tau_f}")

    @property
    def span(self) -> float:
        return self.increments.shape[0] * self.tau_f


def ou_substep_exact(s: State, tau: float, prm: PhysParams,
                     z: ArrayLike) -> State:
    """One exact step of the dissipative stochastic subsystem.

    ``z`` is a standard normal draw (caller-owned randomness); the output is
    equal in distribution to the subsystem solution after time ``tau``.
    """
    return OUIncrement.from_params(prm, tau).apply(s, z)


@functools.lru_cache(maxsize=64)
def _midpoint_weights(upsilon: float, tau: float, n_fine: int,
                      tau_f: float) -> np.ndarray:
    # Deterministic weight of fine cell k, evaluated at the cell midpoint:
    # exp(-(u/2) (tau - (k + 1/2) tau_f)).  Second-order quadrature of the
    # exact convolution kernel.  Cached, so callers share one read-only array.
    k = np.arange(n_fine)
    w = np.exp(-0.5 * upsilon * (tau - (k + 0.5) * tau_f))
    w.flags.writeable = False
    return w


def ou_substep_coupled(s: State, window: FineWindow, prm: PhysParams,
                       tau: float = None) -> State:
    """Dissipative stochastic sub-step driven by a shared fine Wiener path.

    The stochastic convolution is evaluated as a midpoint-weighted sum of the
    window's fine increments, so a coarse run and a fine-step reference run
    consume the same Brownian path.  Consistent with
    :func:`ou_substep_exact` to O(tau_f) in mean and variance.  The weights
    depend only on the step and the fine spacing, so they are computed once
    per level and reused by every step of it.

    Parameters
    ----------
    s, prm : state and model constants.
    window : FineWindow
        Fine increments spanning the step; its span defines the step size.
    tau : float, optional
        Intended coarse step; raises :class:`NonIntegralGrid` if the window
        does not tile it.
    """
    span = window.span
    if tau is not None and abs(span - tau) > 1e-9 * max(tau, window.tau_f):
        raise NonIntegralGrid(
            f"window spans {span:g} but the step is {tau:g}; fine spacing "
            f"{window.tau_f:g} must tile the step exactly")
    u = prm.upsilon
    increments = window.increments
    w = _midpoint_weights(u, span, increments.shape[0], window.tau_f)
    k = kernel(increments.shape[1:])
    decay, sigma = _coupled_constants(u, span, prm.sigma)[k.form]
    conv, dp = k.work[_OU_COUPLED_WORK]
    conv = k.matmul(w, increments, conv)
    p = k.add(k.mul(decay, s.p, dp), k.mul(sigma, conv, conv), None)
    return new_state((p, k.mul(decay, s.q, None)))


@constants
def _coupled_constants(upsilon: float, span: float, sigma: float) -> tuple:
    return math.exp(-0.5 * upsilon * span), sigma


def naive_increment(prm: PhysParams, tau: float):
    """(decay, noise_std) of the full-rate OU momentum sub-step."""
    decay = math.exp(-prm.upsilon * tau)
    var = _keeps_noise(decay, 2.0 * prm.upsilon * tau) / (2.0 * prm.upsilon)
    return decay, prm.sigma * math.sqrt(var)


def _keeps_noise(decay: float, rate: float) -> float:
    """``1 - decay^2``, where ``decay^2`` is ``exp(-rate)``.  The plain form,
    which every run's bits rest on, cancels as the rate falls (14% off at
    3.9e-16, 0 below 1.1e-16): a ValueError where it is more than 1e-8
    relative off ``-expm1(-rate)``, as at any rate <= 0 (tau <= 0)."""
    direct = 1.0 - decay * decay
    exact = -math.expm1(-rate)
    if not (exact > 0 and abs(direct - exact) <= 1e-8 * exact):
        raise ValueError(f"upsilon * tau is too small: 1 - exp({-rate:g}) "
                         f"cancels to {direct:g}, not {exact:g}")
    return direct
