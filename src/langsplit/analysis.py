"""Measurement harness: error functions, order fits, and structure monitors.

Estimators here verify, empirically, the structures the schemes are built
to preserve: strong/weak convergence orders against a path-coupled fine
reference, ergodic averages against the exact moments and bin masses of the
invariant measure, the one-step Lyapunov contraction, exponential-moment
boundedness, and the conformal contraction of phase-space volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .detflow import CONSERVATIVE_KINDS
from .errors import (DegenerateRange, EmptyWindow, NonIntegralGrid,
                     NonIntegralRatio, NonPositiveError)
from .model import (ArrayLike, EnergyConstants, PhysParams, State, energy_H,
                    energy_H0, exp_moment_rate_constant,
                    position_marginal_normalizer)
from .montecarlo import (SeedPolicy, increment_matrix, path_chunks, path_noise,
                         steps_for)
from .splitting import (SchemeSpec, Trajectory, _evolve, require_finite,
                        scheme_step, simulate_on_grid)
from .stochflow import OUIncrement, naive_increment

Observable = Callable[[ArrayLike, ArrayLike], ArrayLike]

__all__ = [
    "OrderFit",
    "Histogram2D",
    "NoiseFloor",
    "ExpMomentReport",
    "DissipationCurves",
    "LyapunovRecord",
    "fit_order",
    "linear_fit",
    "coupled_terminal_stats",
    "strong_error",
    "weak_error",
    "time_average",
    "empirical_distribution",
    "distribution_distance",
    "gibbs_bin_masses",
    "distance_noise_floor",
    "msd_curve",
    "msd_plateau",
    "msd_fit_window",
    "exp_moment_monitor",
    "jacobian_det",
    "phase_area",
    "h0_dissipation_compare",
    "lyapunov_check",
]


# ---------------------------------------------------------------------------
# order fitting


@dataclass
class OrderFit:
    """Least-squares log-log fit of error against step size."""

    taus: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    std_errors: Optional[np.ndarray] = None

    @property
    def levels(self) -> List[Tuple[float, float]]:
        return list(zip(self.taus.tolist(), self.errors.tolist()))


def linear_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Ordinary least squares ``y ~ slope * x + intercept`` with r^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_order(levels, std_errors=None) -> OrderFit:
    """Fit ``log(error)`` against ``log(tau)`` over >= 3 levels.

    Raises
    ------
    NonPositiveError
        If any level has error <= 0 (the Monte Carlo noise floor has been
        reached; more paths are needed before an order can be read off).
    """
    pairs = np.asarray(levels, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 3:
        raise ValueError("fit_order needs at least 3 (tau, error) levels")
    taus, errors = pairs[:, 0], pairs[:, 1]
    if np.any(taus <= 0):
        raise ValueError("step sizes must be positive")
    if np.any(errors <= 0):
        raise NonPositiveError(
            "error <= 0 at some level; below the Monte Carlo noise floor")
    slope, intercept, r2 = linear_fit(np.log(taus), np.log(errors))
    return OrderFit(taus=taus, errors=errors, slope=slope, intercept=intercept,
                    r_squared=r2,
                    std_errors=None if std_errors is None
                    else np.asarray(std_errors, dtype=float))


# ---------------------------------------------------------------------------
# coupled convergence studies


def coupled_terminal_stats(scheme: SchemeSpec, tau_levels: Sequence[float],
                           reference_tau_f: float, T: float, prm: PhysParams,
                           n_paths: int, seeds: SeedPolicy,
                           initial: State = State(0.0, 0.0),
                           g: Optional[Observable] = None,
                           chunk: int = 1024):
    """Per-level terminal statistics on one shared Wiener path per sample.

    The reference is the same scheme run at ``reference_tau_f``; every level
    consumes the same fine increments through block windows.  With ``g``
    None the statistic is the root-mean-square terminal error and its
    (delta-method) standard error; otherwise it is
    ``|mean(g(numerical) - g(reference))|`` with the standard error of the
    coupled difference.

    Returns
    -------
    (errors, std_errors) : two arrays over levels.

    Raises
    ------
    ValueError
        If a level is not an integer multiple of ``reference_tau_f``.
    NonIntegralGrid, NonIntegralRatio
        If ``T`` is not a multiple of ``reference_tau_f`` or of a level.
    """
    for tau in tau_levels:
        steps_for(tau, reference_tau_f, minimum=1)
    steps_for(T, reference_tau_f, NonIntegralGrid, minimum=1)
    for tau in tau_levels:
        steps_for(T, tau, NonIntegralRatio)
    n_levels = len(tau_levels)
    sums = np.zeros(n_levels)
    sumsq = np.zeros(n_levels)
    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        fine = increment_matrix(T, reference_tau_f, path_seeds)
        ref = simulate_on_grid(initial, reference_tau_f, prm, scheme, fine,
                               reference_tau_f, keep="last", first_path=first)
        for i, tau in enumerate(tau_levels):
            num = simulate_on_grid(initial, tau, prm, scheme, fine,
                                   reference_tau_f, keep="last",
                                   first_path=first)
            if g is None:
                val = (num.p - ref.p) ** 2 + (num.q - ref.q) ** 2
            else:
                val = g(num.p, num.q) - g(ref.p, ref.q)
            sums[i] += val.sum()
            sumsq[i] += (val * val).sum()

    mean = sums / n_paths
    var = np.maximum(sumsq / n_paths - mean**2, 0.0) * n_paths / max(n_paths - 1, 1)
    se_mean = np.sqrt(var / n_paths)
    if g is None:
        rms = np.sqrt(np.maximum(mean, 0.0))
        se = np.where(rms > 0, se_mean / np.maximum(2.0 * rms, 1e-300), 0.0)
        return rms, se
    return np.abs(mean), se_mean


def strong_error(scheme: SchemeSpec, tau_levels: Sequence[float],
                 reference_tau_f: float, T: float, prm: PhysParams,
                 n_paths: int, seeds: SeedPolicy,
                 initial: State = State(0.0, 0.0), chunk: int = 1024) -> OrderFit:
    """Root-mean-square terminal error per level and its log-log order fit."""
    errors, se = coupled_terminal_stats(
        scheme, tau_levels, reference_tau_f, T, prm, n_paths, seeds,
        initial=initial, g=None, chunk=chunk)
    return fit_order(list(zip(tau_levels, errors)), std_errors=se)


def weak_error(scheme: SchemeSpec, g: Observable, tau_levels: Sequence[float],
               reference_tau_f: float, T: float, prm: PhysParams,
               n_paths: int, seeds: SeedPolicy,
               initial: State = State(0.0, 0.0), chunk: int = 1024) -> OrderFit:
    """Coupled-difference weak error per level and its log-log order fit.

    Coupling is used purely to cut the variance of the difference
    estimator; the estimator stays unbiased for the weak error.
    """
    errors, se = coupled_terminal_stats(
        scheme, tau_levels, reference_tau_f, T, prm, n_paths, seeds,
        initial=initial, g=g, chunk=chunk)
    return fit_order(list(zip(tau_levels, errors)), std_errors=se)


# ---------------------------------------------------------------------------
# ergodic observables


def time_average(trajectory: Trajectory, g: Observable,
                 burn_in: float) -> ArrayLike:
    """Left-endpoint Riemann average of ``g`` after ``burn_in``.

    Averages ``g`` over the states at ``burn_in <= t_n < T``; for a batched
    trajectory the average is taken per path.
    """
    times = trajectory.times
    horizon = times[-1]
    if burn_in >= horizon:
        raise EmptyWindow(
            f"burn-in {burn_in} leaves no window before horizon {horizon}")
    start = int(np.searchsorted(times, burn_in - 1e-12 * max(horizon, 1.0)))
    vals = g(trajectory.p[start:-1], trajectory.q[start:-1])
    return np.mean(vals, axis=0)


# ---------------------------------------------------------------------------
# empirical distribution vs the invariant density


@dataclass
class Histogram2D:
    """Normalized 2-D histogram over a rectangular (p, q) window."""

    p_edges: np.ndarray
    q_edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def mass(self) -> np.ndarray:
        return self.counts / self.n_samples

    @property
    def bin_area(self) -> float:
        return float((self.p_edges[1] - self.p_edges[0])
                     * (self.q_edges[1] - self.q_edges[0]))


def empirical_distribution(states: State, bins: Tuple[int, int],
                           p_range: Tuple[float, float],
                           q_range: Tuple[float, float]) -> Histogram2D:
    """Histogram an ensemble of states; samples outside the window are dropped.

    A non-finite sample is not dropped: it raises :class:`NonConvergence`
    (see :func:`require_finite`).
    """
    n_p, n_q = bins
    if not (p_range[1] > p_range[0] and q_range[1] > q_range[0]):
        raise DegenerateRange(f"bad window {p_range} x {q_range}")
    if n_p < 1 or n_q < 1:
        raise DegenerateRange("need at least one bin per axis")
    p, q = np.broadcast_arrays(np.asarray(states.p, dtype=float),
                               np.asarray(states.q, dtype=float))
    require_finite(p, q)
    counts, p_edges, q_edges = np.histogram2d(
        p.reshape(-1), q.reshape(-1), bins=[n_p, n_q],
        range=[p_range, q_range])
    total = int(counts.sum())
    if total == 0:
        raise DegenerateRange("no samples fall inside the window")
    return Histogram2D(p_edges=p_edges, q_edges=q_edges, counts=counts,
                       n_samples=total)


# Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1].
_GL_NODES, _GL_WEIGHTS = leggauss(20)


def gibbs_bin_masses(prm: PhysParams, p_edges: np.ndarray,
                     q_edges: np.ndarray) -> np.ndarray:
    """Exact invariant-measure mass of each bin.

    The density factorizes into a Gaussian momentum marginal and a quartic
    position marginal, so bin masses are products of 1-D interval masses.
    Momentum masses come from ``erf``.  Position masses integrate
    ``exp(-c q^4)`` by a composite 20-node Gauss-Legendre rule: each bin is
    clipped to ``|q| <= (45/c)^(1/4)``, beyond which the integrand is below
    1e-19, and split into equal panels no wider than ``c^(-1/4) / 2``, on
    which the integrand is smooth enough for the rule to reach rounding.
    """
    sd = prm.sigma / math.sqrt(2.0 * prm.upsilon)
    p_cdf = np.array([0.5 * (1.0 + math.erf(e / (sd * math.sqrt(2.0))))
                      for e in p_edges])
    p_mass = np.diff(p_cdf)

    c = prm.upsilon / (2.0 * prm.sigma**2)
    q_cut = (45.0 / c) ** 0.25
    q_edges = np.asarray(q_edges, dtype=float)
    lo = np.clip(q_edges[:-1], -q_cut, q_cut)
    hi = np.clip(q_edges[1:], -q_cut, q_cut)
    width = np.maximum(hi - lo, 0.0)
    n_panels = np.ceil(width / (0.5 * c ** -0.25)).astype(int)
    # One row per panel, k-th of its bin; bins clipped to nothing get none.
    owner = np.repeat(np.arange(len(lo)), n_panels)
    k = np.arange(len(owner)) - (np.cumsum(n_panels) - n_panels)[owner]
    half = 0.5 * width[owner] / n_panels[owner]
    q = (lo[owner] + (2 * k + 1) * half)[:, None] + half[:, None] * _GL_NODES
    q2 = q * q
    panel = half * (np.exp(-c * (q2 * q2)) @ _GL_WEIGHTS)
    q_mass = np.bincount(owner, weights=panel, minlength=len(lo))
    return np.outer(p_mass, q_mass / position_marginal_normalizer(prm))


def distribution_distance(h: Histogram2D, prm: PhysParams) -> float:
    """L1 distance ``sum |empirical bin mass - integral of rho over bin|``."""
    rho = gibbs_bin_masses(prm, h.p_edges, h.q_edges)
    return float(np.abs(h.mass - rho).sum())


def _binom_pmf(k: int, n: int, rho: float) -> float:
    """``P(X = k)`` for ``X ~ Binomial(n, rho)``, from log-gamma.

    The degenerate laws ``rho = 0`` and ``rho = 1`` and the impossible
    counts ``k < 0`` and ``k > n`` are exact.
    """
    if k < 0 or k > n:
        return 0.0
    if rho == 0.0 or rho == 1.0:
        return float(k == (0 if rho == 0.0 else n))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * math.log(rho)
                    + (n - k) * math.log1p(-rho))


class NoiseFloor(NamedTuple):
    """Mean and standard deviation of an exact sampler's L1 distance."""

    mean: float
    sd: float


def distance_noise_floor(prm: PhysParams, p_edges: np.ndarray,
                         q_edges: np.ndarray, n_samples: int) -> NoiseFloor:
    """:func:`distribution_distance` reached by ``n_samples`` exact draws.

    A sampler that draws exactly from the invariant law puts
    ``X_i ~ Binomial(n, rho_i)`` samples in bin ``i``, so the plug-in
    distance is ``sum_i |X_i/n - rho_i|`` and never reaches 0 at finite n.
    Each bin's mean absolute deviation has De Moivre's closed form
    ``E|X - n rho| = 2 (m+1) (1-rho) P(X = m+1)`` with ``m = floor(n rho)``,
    and its variance is ``rho (1-rho) / n - E|X/n - rho|^2``.  The mean is
    exact; the standard deviation sums the per-bin variances and so leaves
    out the weak covariances between bins.  The window is assumed to hold
    all of the invariant mass (``sum rho_i = 1``).  No random draws.
    """
    n = int(n_samples)
    if n < 1:
        raise ValueError("need at least one sample")
    rho = gibbs_bin_masses(prm, p_edges, q_edges).reshape(-1)
    m = np.floor(n * rho)
    pmf = np.array([_binom_pmf(int(k), n, r) for k, r in zip(m + 1.0, rho)])
    mad = 2.0 * (m + 1.0) * (1.0 - rho) * pmf / n
    var = np.maximum(rho * (1.0 - rho) / n - mad * mad, 0.0)
    return NoiseFloor(mean=float(mad.sum()), sd=float(math.sqrt(var.sum())))


# ---------------------------------------------------------------------------
# mean square displacement


def msd_curve(trajectory: Trajectory, initial: State):
    """Ensemble mean square displacement from the common initial value.

    Returns ``(times, msd)`` with ``msd[n]`` the across-path mean of
    ``|X_n - X_0|^2``.
    """
    p0 = np.asarray(initial.p, dtype=float)
    q0 = np.asarray(initial.q, dtype=float)
    disp = (trajectory.p - p0) ** 2 + (trajectory.q - q0) ** 2
    axes = tuple(range(1, disp.ndim))
    msd = disp.mean(axis=axes) if axes else disp
    return trajectory.times, msd


_PLATEAU_FRACTION = 0.1


def _plateau_samples(times: np.ndarray, msd: np.ndarray,
                     fraction: float) -> np.ndarray:
    return np.asarray(msd)[np.asarray(times) >= times[-1] * (1.0 - fraction)]


def msd_plateau(times: np.ndarray, msd: np.ndarray,
                fraction: float = _PLATEAU_FRACTION) -> float:
    """Equilibrium estimate: the mean over the final ``fraction`` of the horizon."""
    return float(_plateau_samples(times, msd, fraction).mean())


def msd_fit_window(times: np.ndarray, msd: np.ndarray,
                   upsilon: float) -> slice:
    """Index window over which ``log(plateau - msd)`` is fitted by a line.

    The approach to equilibrium has two timescales: the momentum relaxes at
    rate ``upsilon`` and the position mode far more slowly.  The window
    opens at ``t = 10 / upsilon``, ten momentum-relaxation times, and closes
    at the first later step where ``plateau - msd`` falls to three standard
    deviations of ``msd`` over the default plateau window of
    :func:`msd_plateau`, where the gap drowns in sampling noise.  Every
    point inside has ``msd < plateau``.

    Raises
    ------
    EmptyWindow
        If the window holds fewer than 3 points (the curve reaches its
        plateau before the momentum transient is over).
    """
    tail = _plateau_samples(times, msd, _PLATEAU_FRACTION)
    gap = float(tail.mean()) - np.asarray(msd, dtype=float)
    start = int(np.searchsorted(times, 10.0 / upsilon))
    resolved = gap[start:] > 3.0 * float(tail.std())
    stop = start + (len(resolved) if resolved.all()
                    else int(np.argmin(resolved)))
    if stop - start < 3:
        raise EmptyWindow(
            f"fewer than 3 points between t = 10/upsilon = {10.0 / upsilon:g} "
            "and the plateau noise band")
    return slice(start, stop)


# ---------------------------------------------------------------------------
# exponential-moment monitor


@dataclass
class ExpMomentReport:
    """Per-step estimates of the scaled exponential moment.

    ``estimates[n]`` is the Monte Carlo mean of
    ``exp(c_e (P_n^2 + Q_n^4) / exp(sigma^2 t_n))``; ``max_exponents``
    tracks the largest exponent seen at each step (the direct blow-up
    diagnostic).  ``flagged`` is set when any estimate escapes the envelope
    ``exp(C (T+1) + H(X_0))``; overflow flags, it never raises.
    """

    times: np.ndarray
    estimates: np.ndarray
    max_exponents: np.ndarray
    envelope_log: float
    flagged: bool


def exp_moment_monitor(scheme: SchemeSpec, prm: PhysParams, tau: float,
                       T: float, n_paths: int, seeds: SeedPolicy,
                       initial: State = State(0.0, 0.0),
                       chunk: int = 2048) -> ExpMomentReport:
    """Monitor the exponential moment of the numerical solution, streamed."""
    c_e = EnergyConstants.from_params(prm).c_e
    n_steps = steps_for(T, tau)
    times = np.arange(n_steps + 1) * tau
    scale = np.exp(prm.sigma**2 * times)

    sum_exp = np.zeros(n_steps + 1)
    max_expo = np.full(n_steps + 1, -np.inf)

    def visit(n, st):
        q2 = st.q * st.q
        expo = c_e * (st.p * st.p + q2 * q2) / scale[n]
        with np.errstate(over="ignore"):
            sum_exp[n] += np.exp(expo).sum()
        max_expo[n] = np.maximum(max_expo[n], expo.max())

    for first, path_seeds in path_chunks(n_paths, chunk, seeds):
        _evolve(initial, (len(path_seeds),), tau, prm, scheme,
                path_noise(path_seeds, n_steps), visit, first)

    estimates = sum_exp / n_paths
    envelope_log = (exp_moment_rate_constant(prm) * (T + 1.0)
                    + float(energy_H(initial, prm)))
    with np.errstate(divide="ignore"):
        flagged = bool(np.any(~np.isfinite(estimates))
                       or np.any(np.log(estimates) > envelope_log))
    return ExpMomentReport(times=times, estimates=estimates,
                           max_exponents=max_expo,
                           envelope_log=envelope_log, flagged=flagged)


# ---------------------------------------------------------------------------
# structure diagnostics


def jacobian_det(step: Callable[[State], State], s: State,
                 h: Optional[float] = None) -> ArrayLike:
    """Central-difference Jacobian determinant of a one-step map.

    The closure must hold its noise fixed so all perturbed evaluations see
    the same realization.  Default scale ``h = 1e-5 * (1 + |s|)`` balances
    truncation and rounding for double precision.
    """
    p = np.asarray(s.p, dtype=float)
    q = np.asarray(s.q, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.maximum(np.abs(p), np.abs(q)))
    pp = step(State(p + h, q))
    pm = step(State(p - h, q))
    qp = step(State(p, q + h))
    qm = step(State(p, q - h))
    dpdp = (pp.p - pm.p) / (2.0 * h)
    dqdp = (pp.q - pm.q) / (2.0 * h)
    dpdq = (qp.p - qm.p) / (2.0 * h)
    dqdq = (qp.q - qm.q) / (2.0 * h)
    return dpdp * dqdq - dpdq * dqdp


def phase_area(scheme: SchemeSpec, prm: PhysParams, tau: float, T: float,
               n_vertices: int, seed: int):
    """Shoelace area of an evolving phase-space polygon.

    Vertices start on the unit circle and every vertex is advanced with the
    same noise realization, so the polygon is carried by one random map per
    step.  Returns ``(times, areas)``.
    """
    n_steps = steps_for(T, tau)
    theta = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    areas = np.empty(n_steps + 1)

    def shoelace(n, x):
        areas[n] = 0.5 * abs(float(
            x.p @ np.roll(x.q, -1) - x.q @ np.roll(x.p, -1)))

    _evolve(State(np.cos(theta), np.sin(theta)), (n_vertices,), tau, prm,
            scheme, path_noise(seed, n_steps), shoelace)
    return np.arange(n_steps + 1) * tau, areas


@dataclass
class DissipationCurves:
    """Ensemble physical-energy curves under the two stochastic sub-flows."""

    times: np.ndarray
    naive_mean: np.ndarray
    naive_se: np.ndarray
    dissipative_mean: np.ndarray
    dissipative_se: np.ndarray


def h0_dissipation_compare(prm: PhysParams, tau: float, T: float,
                           initial: State, n_paths: int,
                           seeds: SeedPolicy = SeedPolicy(0),
                           chunk: int = 20000) -> DissipationCurves:
    """Evolve ``E[H0]`` under the naive and the dissipative stochastic sub-flows.

    Both ensembles start from ``initial`` and share draws path-by-path.
    The naive sub-flow freezes the position, so it can only add momentum
    energy on top of the frozen potential energy; the dissipative sub-flow
    contracts both coordinates.
    """
    n_steps = steps_for(T, tau)
    times = np.arange(n_steps + 1) * tau
    stats = np.zeros((4, n_steps + 1))  # sums and square-sums per flow

    dec_n, std_n = naive_increment(prm, tau)
    inc_d = OUIncrement.from_params(prm, tau)

    def tally(n, *flows):
        for row, st in zip((0, 2), flows):
            h0 = energy_H0(st)
            stats[row, n] += h0.sum()
            stats[row + 1, n] += (h0 * h0).sum()

    for _, path_seeds in path_chunks(n_paths, chunk, seeds):
        nv = State(np.full(len(path_seeds), float(initial.p)),
                   np.full(len(path_seeds), float(initial.q)))
        dv = State(nv.p.copy(), nv.q.copy())
        tally(0, nv, dv)
        for n, z in enumerate(path_noise(path_seeds, n_steps), 1):
            nv = State(dec_n * nv.p + std_n * z, nv.q)
            dv = inc_d.apply(dv, z)
            tally(n, nv, dv)

    def mean_se(row):
        mean = stats[row] / n_paths
        var = np.maximum(stats[row + 1] / n_paths - mean**2, 0.0)
        var *= n_paths / max(n_paths - 1, 1)
        return mean, np.sqrt(var / n_paths)

    naive_mean, naive_se = mean_se(0)
    diss_mean, diss_se = mean_se(2)
    return DissipationCurves(times=times, naive_mean=naive_mean,
                             naive_se=naive_se, dissipative_mean=diss_mean,
                             dissipative_se=diss_se)


@dataclass
class LyapunovRecord:
    """Monte Carlo check of the one-step energy contraction at one state."""

    state: State
    mc_mean: float
    std_error: float
    bound: float
    margin: float
    passed: bool


def lyapunov_check(scheme: SchemeSpec, prm: PhysParams, tau: float,
                   states: Sequence[State], n_draws: int,
                   seed: int = 0) -> List[LyapunovRecord]:
    """Verify ``E[H(X1) + c_h | X0] <= exp(-u tau) (H(X0) + c_h) + beta``.

    ``beta = sigma^2 (1 - e^{-u tau}) / (2u) + c_h (1 - e^{-u tau})``; the
    Monte Carlo mean over ``n_draws`` one-step transitions may exceed the
    bound by at most three standard errors.  Violations are reported in the
    records, never raised.
    """
    if scheme.map_kind not in CONSERVATIVE_KINDS:
        raise ValueError(
            "the one-step contraction is asserted for the conservative maps "
            f"only, got {scheme.map_kind!r}")
    u = prm.upsilon
    c_h = EnergyConstants.from_params(prm).c_h
    contraction = math.exp(-u * tau)
    beta = (prm.sigma**2 * (1.0 - contraction) / (2.0 * u)
            + c_h * (1.0 - contraction))
    rng = np.random.default_rng(seed)

    records = []
    for s0 in states:
        z = rng.standard_normal(n_draws)
        batch = State(np.full(n_draws, float(s0.p)),
                      np.full(n_draws, float(s0.q)))
        x1 = scheme_step(batch, tau, prm, scheme, z)
        vals = energy_H(x1, prm) + c_h
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n_draws))
        bound = contraction * (float(energy_H(s0, prm)) + c_h) + beta
        margin = bound + 3.0 * se - mean
        records.append(LyapunovRecord(state=s0, mc_mean=mean, std_error=se,
                                      bound=bound, margin=margin,
                                      passed=margin >= 0.0))
    return records
