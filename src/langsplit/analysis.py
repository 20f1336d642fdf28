"""Measurement harness: error functions, order fits, and structure monitors.

Estimators here verify, empirically, the structures the schemes are built
to preserve: strong/weak convergence orders against a path-coupled fine
reference, ergodic averages against the exact moments and bin masses of the
invariant measure, the one-step Lyapunov contraction, exponential-moment
boundedness, and the conformal contraction of phase-space volume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .detflow import CONSERVATIVE_KINDS
from .errors import EmptyWindow, NonPositiveError
from .model import (ArrayLike, EnergyConstants, PhysParams, State,
                    _position_weight_scale, energy_H, energy_H0,
                    exp_moment_rate_constant, position_marginal_normalizer)
from . import montecarlo
from .montecarlo import (SeedPolicy, beside, increment_matrix, map_chunks,
                         path_noise, steps_for)
# ``require_finite`` stays importable here: the benchmark traces it as
# ``analysis.require_finite``.
from .splitting import (SchemeSpec, _evolve, _fine_windows,
                        require_finite, scheme_step)  # noqa: F401
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
    "distribution_distance",
    "gibbs_bin_masses",
    "distance_noise_floor",
    "msd_plateau",
    "msd_window_start",
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
    std_errors: np.ndarray


def linear_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Ordinary least squares ``y ~ slope * x + intercept`` with r^2.

    The line in closed form from centred sums: ``slope = sum(dx * dy) /
    sum(dx^2)`` and ``intercept = mean(y) - slope * mean(x)``, with ``dx``
    and ``dy`` the deviations from the means.  It agrees with
    ``np.polyfit(x, y, 1)`` to rounding, without its LAPACK least-squares
    solve, whose pages (about 1 MiB) stay resident once loaded.

    Raises
    ------
    ValueError
        If ``x`` holds fewer than two distinct values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    ss_x = float(dx @ dx)
    if not ss_x > 0:
        raise ValueError("a line fit needs two distinct x values")
    slope = float(dx @ dy) / ss_x
    intercept = float(y_mean) - slope * float(x_mean)
    resid = y - (slope * x + intercept)
    ss_tot = float(dy @ dy)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_order(levels, std_errors) -> OrderFit:
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
                    r_squared=r2, std_errors=np.asarray(std_errors, float))


# ---------------------------------------------------------------------------
# coupled convergence studies

# Fine steps drawn at a time in a path-coupled run.  A chunk then holds one
# (block, width) matrix of fine increments whatever the horizon and the
# record stride, 4 MiB at width 2048.  The block rounds up to a multiple of
# every run's step ratio, so that each run's steps tile it.
_FINE_BLOCK = 256

# Level lane-steps that repay a fork: 2-6 ms at >= 64 ns a lane-step.
_SPLIT_MIN_LANE_STEPS = 100_000


def _fine_block(taus: Sequence[float], tau_f: float) -> int:
    """The fine steps of a block of a coupled study at the steps ``taus``."""
    grain = math.lcm(*(steps_for(tau, tau_f, minimum=1) for tau in taus))
    return -(-_FINE_BLOCK // grain) * grain


def _ignore(n: int, s: State) -> None:
    pass


def _coupled_runs(scheme: SchemeSpec, taus: Sequence[float], tau_f: float,
                  n_fine: int, prm: PhysParams, initial: State,
                  path_seeds: Sequence[int],
                  visits: Optional[Sequence[Callable[[int, State], None]]]
                  = None) -> List[State]:
    """Run the scheme at each step of ``taus`` on shared fine Wiener paths.

    Path i's fine increments are the N(0, tau_f) draws of the stream of
    ``path_seeds[i]`` in time order, as in one ``increment_matrix`` over the
    ``n_fine`` steps.  They are drawn :func:`_fine_block` of ``taus`` fine
    steps at a time, and every run crosses a block before the next one is
    drawn, in its place: one block is live at a time.  Run i is one
    :func:`_evolve` loop cut into blocks: ``visits[i](n, state)`` sees its
    steps n = 0 through the last once each, counted over the whole run, and
    a ``NonConvergence`` names the step of the whole run.  Returns the final
    state of each run.
    """
    ratios = [steps_for(tau, tau_f, minimum=1) for tau in taus]
    block = _fine_block(taus, tau_f)
    visits = visits or [_ignore] * len(taus)
    width = len(path_seeds)
    rngs = [np.random.default_rng(seed) for seed in path_seeds]
    states = [initial] * len(taus)
    for start in range(0, n_fine, block):
        # A Generator passed as a seed continues its stream.
        fine = increment_matrix(min(block, n_fine - start) * tau_f, tau_f,
                                rngs)
        for i, (tau, ratio) in enumerate(zip(taus, ratios)):
            states[i] = _evolve(states[i], (width,), tau, prm, scheme,
                                _fine_windows(fine, ratio, tau_f), visits[i],
                                start=start // ratio)
        # Every run has crossed the block: let it go before the next draw,
        # so that a run holds one block of increments, not two.
        del fine
    return states


def levels_beside(tau_levels: Sequence[float], tau_f: float, n_fine: int,
                  width: int) -> bool:
    """Whether a chunk of ``width`` paths runs its levels in a worker beside
    its reference: at ``montecarlo.WORKERS >= 2``, if they repay a fork."""
    lane_steps = width * sum(
        n_fine // steps_for(tau, tau_f, minimum=1) for tau in tau_levels)
    return montecarlo.WORKERS >= 2 and lane_steps >= _SPLIT_MIN_LANE_STEPS


def _reference_and_levels(scheme: SchemeSpec, tau_levels: Sequence[float],
                          tau_f: float, n_fine: int, prm: PhysParams,
                          initial: State,
                          path_seeds: Sequence[int]) -> List[State]:
    """The final states of the reference run at ``tau_f`` and of the levels.

    Given the Wiener paths the reference and the levels are independent
    runs.  Where :func:`levels_beside` says so, the levels run in a worker
    beside the reference, drawing the same fine increments from the same
    seeds in blocks of their own, so every state has the bits of the joint
    :func:`_coupled_runs`, run otherwise.  If either part raises, the joint
    run is made again in this process and raises what a run in one process
    raises.
    """
    def run(part):
        return _coupled_runs(scheme, part, tau_f, n_fine, prm, initial,
                             path_seeds)

    taus = [tau_f, *tau_levels]
    if not levels_beside(tau_levels, tau_f, n_fine, len(path_seeds)):
        return run(taus)

    def reference():
        try:
            return run(taus[:1])
        except Exception:
            return None  # the joint run below fails in its place

    ref, [(ok, levels)] = beside(reference, [lambda: run(taus[1:])])
    if ok and ref is not None:
        return ref + levels
    if not ok and not isinstance(levels, Exception):
        raise levels
    # A part failed: the joint run, made here, fails as one process does.
    return run(taus)


class _ChunkMoments:
    """Means and standard errors of cells whose samples arrive in chunks.

    A chunk's ``summarise(i, x)`` keeps the count, the sum and the sum of
    squared deviations from their own mean of the 1-D samples ``x`` of cell
    ``i``.  ``merge(part)`` adds a chunk's summaries by Chan's pairwise
    update, where ``sumsq / n - mean^2`` would cancel digits for a mean
    large against the spread.  A mean is the plain sum of a cell's samples
    over their count.
    """

    def __init__(self, shape):
        self.count = np.zeros(shape)
        self.sums = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def summarise(self, i, x: np.ndarray) -> None:
        n, total = len(x), x.sum()
        dev = x - total / n
        self.count[i], self.sums[i], self.m2[i] = n, total, (dev * dev).sum()

    def merge(self, part: "_ChunkMoments") -> None:
        n_a, n_b = self.count, part.count
        delta = part.sums / n_b - self.sums / np.maximum(n_a, 1)
        weight = n_a * n_b / (n_a + n_b)
        self.m2 += part.m2 + delta * delta * weight
        self.sums += part.sums
        self.count += n_b

    def mean_se(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell mean and standard error of the mean (n - 1 variance)."""
        var = self.m2 / np.maximum(self.count - 1, 1)
        return self.sums / self.count, np.sqrt(var / self.count)


def coupled_terminal_stats(scheme: SchemeSpec, tau_levels: Sequence[float],
                           reference_tau_f: float, T: float, prm: PhysParams,
                           n_paths: int, seeds: SeedPolicy,
                           initial: State = State(0.0, 0.0),
                           g: Optional[Observable] = None):
    """Per-level terminal statistics on one shared Wiener path per sample.

    The reference is the same scheme run at ``reference_tau_f``; every level
    consumes the same fine increments through windows of its step, drawn
    a block of about 256 fine steps at a time.  With ``g``
    None the statistic is the root-mean-square terminal error and its
    (delta-method) standard error; otherwise it is
    ``|mean(g(numerical) - g(reference))|`` with the standard error of the
    coupled difference.

    Returns
    -------
    (errors, std_errors) : two arrays over levels.

    Raises
    ------
    NonIntegralGrid
        If ``T`` is not a multiple of ``reference_tau_f`` or of a level, or
        a level is not a multiple of ``reference_tau_f``.
    """
    n_fine = steps_for(T, reference_tau_f, minimum=1)
    for tau in tau_levels:
        steps_for(T, tau)

    def work(path_seeds):
        ref, *levels = _reference_and_levels(
            scheme, tau_levels, reference_tau_f, n_fine, prm, initial,
            path_seeds)
        part = _ChunkMoments(len(tau_levels))
        for i, num in enumerate(levels):
            if g is None:
                val = (num.p - ref.p) ** 2 + (num.q - ref.q) ** 2
            else:
                val = g(num.p, num.q) - g(ref.p, ref.q)
            part.summarise(i, val)
        return part

    moments = _ChunkMoments(len(tau_levels))
    for part in map_chunks(work, n_paths, seeds):
        moments.merge(part)

    mean, se_mean = moments.mean_se()
    if g is None:
        rms = np.sqrt(np.maximum(mean, 0.0))
        se = np.where(rms > 0, se_mean / np.maximum(2.0 * rms, 1e-300), 0.0)
        return rms, se
    return np.abs(mean), se_mean


def strong_error(scheme: SchemeSpec, tau_levels: Sequence[float],
                 reference_tau_f: float, T: float, prm: PhysParams,
                 n_paths: int, seeds: SeedPolicy,
                 initial: State = State(0.0, 0.0)) -> OrderFit:
    """Root-mean-square terminal error per level and its log-log order fit."""
    errors, se = coupled_terminal_stats(
        scheme, tau_levels, reference_tau_f, T, prm, n_paths, seeds,
        initial=initial, g=None)
    return fit_order(list(zip(tau_levels, errors)), std_errors=se)


def weak_error(scheme: SchemeSpec, g: Observable, tau_levels: Sequence[float],
               reference_tau_f: float, T: float, prm: PhysParams,
               n_paths: int, seeds: SeedPolicy,
               initial: State = State(0.0, 0.0)) -> OrderFit:
    """Coupled-difference weak error per level and its log-log order fit.

    Coupling is used purely to cut the variance of the difference
    estimator; the estimator stays unbiased for the weak error.
    """
    errors, se = coupled_terminal_stats(
        scheme, tau_levels, reference_tau_f, T, prm, n_paths, seeds,
        initial=initial, g=g)
    return fit_order(list(zip(tau_levels, errors)), std_errors=se)


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


@functools.cache
def _gauss_legendre_20() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1],
    built on first use so that importing the package loads no
    ``numpy.polynomial``."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(20)


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
    c = _position_weight_scale(prm)
    nodes, weights = _gauss_legendre_20()
    sd = prm.sigma / math.sqrt(2.0 * prm.upsilon)
    p_cdf = np.array([0.5 * (1.0 + math.erf(e / (sd * math.sqrt(2.0))))
                      for e in p_edges])
    p_mass = np.diff(p_cdf)

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
    q = (lo[owner] + (2 * k + 1) * half)[:, None] + half[:, None] * nodes
    q2 = q * q
    panel = half * (np.exp(-c * (q2 * q2)) @ weights)
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


def _plateau_samples(times: np.ndarray, msd: np.ndarray) -> np.ndarray:
    # The plateau window: the final tenth of the horizon.
    return np.asarray(msd)[np.asarray(times) >= times[-1] * 0.9]


def msd_plateau(times: np.ndarray, msd: np.ndarray) -> float:
    """Equilibrium estimate: the mean over the final tenth of the horizon."""
    return float(_plateau_samples(times, msd).mean())


def msd_window_start(times: np.ndarray, upsilon: float) -> int:
    """Index of the first time at or after ``10 / upsilon``, where the fit
    window of :func:`msd_fit_window` opens."""
    return int(np.searchsorted(times, 10.0 / upsilon))


def msd_fit_window(times: np.ndarray, msd: np.ndarray,
                   upsilon: float) -> slice:
    """Index window over which ``log(plateau - msd)`` is fitted by a line.

    The approach to equilibrium has two timescales: the momentum relaxes at
    rate ``upsilon`` and the position mode far more slowly.  The window
    opens at ``t = 10 / upsilon``, ten momentum-relaxation times, and closes
    at the first later step where ``plateau - msd`` falls to three standard
    deviations of ``msd`` over the plateau window of :func:`msd_plateau`,
    where the gap drowns in sampling noise.  Every point inside has
    ``msd < plateau``.

    Raises
    ------
    EmptyWindow
        If the window holds fewer than 3 points (the curve reaches its
        plateau before the momentum transient is over).
    """
    tail = _plateau_samples(times, msd)
    gap = float(tail.mean()) - np.asarray(msd, dtype=float)
    start = msd_window_start(times, upsilon)
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
    ``exp(c_e (P_n^2 + Q_n^4) / exp(sigma^2 t_n))``, which overflows to
    ``inf`` once an exponent passes about 709; ``log_estimates[n]`` is its
    logarithm, taken by log-sum-exp about the largest exponent where the
    mean overflows, so it stays finite.  ``max_exponents`` tracks the
    largest exponent seen at each step (the direct blow-up diagnostic).
    ``flagged`` is set when any log-estimate escapes the envelope's log
    ``C (T+1) + H(X_0)``; it never raises.
    """

    times: np.ndarray
    estimates: np.ndarray
    log_estimates: np.ndarray
    max_exponents: np.ndarray
    envelope_log: float
    flagged: bool


def exp_moment_monitor(scheme: SchemeSpec, prm: PhysParams, tau: float,
                       T: float, n_paths: int, seeds: SeedPolicy,
                       initial: State = State(0.0, 0.0)) -> ExpMomentReport:
    """Monitor the exponential moment of the numerical solution, streamed."""
    c_e = EnergyConstants.from_params(prm).c_e
    n_steps = steps_for(T, tau)
    times = np.arange(n_steps + 1) * tau
    scale = np.exp(prm.sigma**2 * times)

    def work(path_seeds):
        sums = np.zeros(n_steps + 1)
        maxima = np.full(n_steps + 1, -np.inf)
        log_sums = np.empty(n_steps + 1)

        def visit(n, st):
            q2 = st.q * st.q
            expo = c_e * (st.p * st.p + q2 * q2) / scale[n]
            with np.errstate(over="ignore"):
                sums[n] = np.exp(expo).sum()
            maxima[n] = expo.max()
            # Where the sum overflows, log-sum-exp about the largest exponent.
            log_sums[n] = (math.log(sums[n]) if sums[n] < math.inf else
                           maxima[n]
                           + math.log(np.exp(expo - maxima[n]).sum()))

        _evolve(initial, (len(path_seeds),), tau, prm, scheme,
                path_noise(path_seeds, n_steps), visit)
        return sums, maxima, log_sums

    sum_exp = np.zeros(n_steps + 1)
    max_expo = np.full(n_steps + 1, -np.inf)
    log_sum = np.full(n_steps + 1, -np.inf)
    for sums, maxima, log_sums in map_chunks(work, n_paths, seeds):
        sum_exp += sums
        np.maximum(max_expo, maxima, out=max_expo)
        np.logaddexp(log_sum, log_sums, out=log_sum)

    estimates = sum_exp / n_paths
    # Every exponent is >= 0, so every estimate is >= 1.
    log_estimates = np.where(estimates < math.inf, np.log(estimates),
                             log_sum - math.log(n_paths))
    envelope_log = (exp_moment_rate_constant(prm) * (T + 1.0)
                    + float(energy_H(initial, prm)))
    return ExpMomentReport(times=times, estimates=estimates,
                           log_estimates=log_estimates,
                           max_exponents=max_expo, envelope_log=envelope_log,
                           flagged=bool(np.any(log_estimates > envelope_log)))


# ---------------------------------------------------------------------------
# structure diagnostics


def jacobian_det(step: Callable[[State], State], s: State) -> ArrayLike:
    """Central-difference Jacobian determinant of a one-step map.

    The closure must hold its noise fixed so all perturbed evaluations see
    the same realization.  The scale ``h = 1e-5 * (1 + |s|)`` balances
    truncation and rounding for double precision.
    """
    p = np.asarray(s.p, dtype=float)
    q = np.asarray(s.q, dtype=float)
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
                           seeds: SeedPolicy = SeedPolicy(0)
                           ) -> DissipationCurves:
    """Evolve ``E[H0]`` under the naive and the dissipative stochastic sub-flows.

    Both ensembles start from ``initial`` and share draws path-by-path.
    The naive sub-flow freezes the position, so it can only add momentum
    energy on top of the frozen potential energy; the dissipative sub-flow
    contracts both coordinates.
    """
    n_steps = steps_for(T, tau)
    times = np.arange(n_steps + 1) * tau
    dec_n, std_n = naive_increment(prm, tau)
    inc_d = OUIncrement.from_params(prm, tau)

    def work(path_seeds):
        part = _ChunkMoments((2, n_steps + 1))  # naive, dissipative

        def tally(n, *flows):
            for row, st in enumerate(flows):
                part.summarise((row, n), energy_H0(st))

        nv = State(np.full(len(path_seeds), float(initial.p)),
                   np.full(len(path_seeds), float(initial.q)))
        dv = State(nv.p.copy(), nv.q.copy())
        tally(0, nv, dv)
        for n, z in enumerate(path_noise(path_seeds, n_steps), 1):
            nv = State(dec_n * nv.p + std_n * z, nv.q)
            dv = inc_d.apply(dv, z)
            tally(n, nv, dv)
        return part

    moments = _ChunkMoments((2, n_steps + 1))
    for part in map_chunks(work, n_paths, seeds):
        moments.merge(part)

    (naive_mean, diss_mean), (naive_se, diss_se) = moments.mean_se()
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
