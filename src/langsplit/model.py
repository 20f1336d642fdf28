"""Model constants, energies, and the Gibbs measure.

The dynamics evolved everywhere else in the package is the damped/driven
oscillator pair

    dP = -upsilon * P dt - U'(Q) dt + sigma dW,
    dQ = P dt,

with the quartic well ``U(q) = q^4 / 4`` as the shipped potential.  Two
energies matter: the physical energy ``H0 = p^2/2 + U(q)`` whose Gibbs
exponential is the invariant density, and the shifted energy
``H = H0 + (upsilon/2) p q`` which is the conserved quantity of the
deterministic half of the dissipative splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "State",
    "QuarticPotential",
    "PhysParams",
    "EnergyConstants",
    "GibbsMoments",
    "energy_H0",
    "energy_H",
    "gibbs_log_density",
    "gibbs_moments",
    "exp_moment_rate_constant",
]


class State(NamedTuple):
    """Phase point (momentum, position).

    Both fields may be scalars or equally shaped arrays; every map in the
    package acts elementwise, so a ``State`` of arrays is a batch of phase
    points evolved in lockstep.
    """

    p: ArrayLike
    q: ArrayLike


class QuarticPotential:
    """The potential ``U(q) = q^4 / 4``.

    Any even-order polynomial well could implement this interface (value,
    gradient, segment-averaged gradient plus the derivatives the implicit
    solvers need); the quartic instance is the only one shipped.
    """

    # Integer powers are written as products: numpy sends ``q**3`` and
    # ``q**4`` through ``pow``, many times slower than multiplying.

    def value(self, q: ArrayLike) -> ArrayLike:
        q2 = q * q
        return 0.25 * q2 * q2

    def grad(self, q: ArrayLike) -> ArrayLike:
        return q * q * q

    def hess(self, q: ArrayLike) -> ArrayLike:
        return 3.0 * q**2

    def avg_grad(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Average of the gradient along the segment from ``a`` to ``b``.

        Closed form of ``int_0^1 (a + lam*(b-a))^3 dlam``; the factored
        form ``(a+b)(a^2+b^2)/4`` has no removable singularity at a == b.
        """
        return 0.25 * (a + b) * (a * a + b * b)

    def avg_grad_db(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Derivative of :meth:`avg_grad` with respect to its endpoint ``b``."""
        return 0.25 * (a * a + 2.0 * a * b + 3.0 * b * b)

    def __repr__(self):
        return "QuarticPotential()"


@dataclass(frozen=True)
class PhysParams:
    """Friction, noise amplitude, and the potential.

    Parameters
    ----------
    upsilon : float
        Friction coefficient, strictly positive.
    sigma : float
        Noise amplitude.  The model of interest has ``sigma > 0``;
        ``sigma = 0`` is accepted as the deterministic limit so the
        noise-free identities of the sub-flows can be checked directly.
    potential : QuarticPotential
        Potential descriptor; only the quartic instance ships.
    """

    upsilon: float
    sigma: float
    potential: QuarticPotential = field(default_factory=QuarticPotential)

    def __post_init__(self):
        if not self.upsilon > 0:
            raise ValueError(f"upsilon must be positive, got {self.upsilon}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class EnergyConstants:
    """Derived constants of the shifted energy.

    ``c_h`` shifts ``H`` so that ``H + c_h >= 1`` everywhere; ``c_e`` is the
    lower equivalence coefficient in
    ``c_e (p^2 + q^4) <= H + c_h + upsilon^4 / 8``.  Both follow from two
    Young-inequality chains for the quartic well.
    """

    c_h: float
    c_e: float

    @classmethod
    def from_params(cls, prm: PhysParams) -> "EnergyConstants":
        u2 = prm.upsilon * prm.upsilon
        return cls(c_h=u2 * u2 / 64.0 + 1.0, c_e=0.125)


class GibbsMoments(NamedTuple):
    """Second/fourth moments of the invariant measure."""

    Ep2: float
    Eq2: float
    Eq4: float


def energy_H0(s: State) -> ArrayLike:
    """Physical energy ``p^2/2 + q^4/4``."""
    q2 = s.q * s.q
    return 0.5 * s.p * s.p + 0.25 * q2 * q2


def energy_H(s: State, prm: PhysParams) -> ArrayLike:
    """Shifted energy ``H0 + (upsilon/2) p q``.

    This is the invariant of the deterministic subsystem of the dissipative
    splitting, and the Lyapunov function of the full scheme.
    """
    return energy_H0(s) + 0.5 * prm.upsilon * s.p * s.q


def gibbs_log_density(s: State, prm: PhysParams) -> ArrayLike:
    """Unnormalized log of the invariant density: ``-(2 upsilon / sigma^2) H0``."""
    if prm.sigma == 0:
        raise ValueError("the invariant density needs sigma > 0")
    return -(2.0 * prm.upsilon / prm.sigma**2) * energy_H0(s)


def _position_weight_scale(prm: PhysParams) -> float:
    """Decay coefficient c in the position marginal ``exp(-c q^4)``."""
    if prm.sigma == 0:
        raise ValueError("the invariant density needs sigma > 0")
    return prm.upsilon / (2.0 * prm.sigma**2)


def position_marginal_normalizer(prm: PhysParams) -> float:
    """``int exp(-c q^4) dq`` over the real line: ``2 Gamma(5/4) c^(-1/4)``.

    Written as ``Gamma(1/4)/2 * c^(-1/4)``, which is within 1.1 ulp of the
    exact value, where ``math.gamma(1.25)`` alone is off by up to 2 ulp.
    """
    c = _position_weight_scale(prm)
    return 0.5 * math.gamma(0.25) * c ** -0.25


def gibbs_moments(prm: PhysParams) -> GibbsMoments:
    """Moments ``E[p^2]``, ``E[q^2]``, ``E[q^4]`` under the invariant measure.

    All three are closed forms in ``c = upsilon / (2 sigma^2)``.
    ``E[p^2]`` and ``E[q^4]`` both equal ``sigma^2 / (2 upsilon)`` (Gaussian
    momentum marginal; integration by parts on the quartic marginal), and
    ``E[q^2] = Gamma(3/4) / (Gamma(1/4) sqrt(c))`` (substitute ``u = c q^4``
    in both integrals of the ratio).
    """
    c = _position_weight_scale(prm)
    second = prm.sigma**2 / (2.0 * prm.upsilon)
    eq2 = math.gamma(0.75) / (math.gamma(0.25) * math.sqrt(c))
    return GibbsMoments(Ep2=second, Eq2=eq2, Eq4=second)


def exp_moment_rate_constant(prm: PhysParams) -> float:
    """Growth rate of the exponential-moment envelope.

    ``upsilon * c_h + sigma^2/2 + sigma^2 * upsilon^4 / 64``: the per-unit-time
    exponent by which the scaled exponential moment of the numerical solution
    is allowed to grow.
    """
    c_h = EnergyConstants.from_params(prm).c_h
    u, s2 = prm.upsilon, prm.sigma**2
    u2 = u * u
    return u * c_h + 0.5 * s2 + s2 * (u2 * u2) / 64.0
