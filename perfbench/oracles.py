"""Correctness oracles of the benchmark, computed apart from the program.

Nothing here imports ``langsplit`` or numpy: the Gibbs bin masses, the
exact-sampler noise floor, the log-log order fit and the long-time window
means are recomputed with the standard library alone, and the checks read
the CSV bodies the recipes wrote, never their ``checks`` records.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

# Five-point Gauss-Legendre rule on [-1, 1].
_GL_NODES = (-0.9061798459386640, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.9061798459386640)
_GL_WEIGHTS = (0.2369268850562616, 0.4786286704993665, 0.5688888888888889,
               0.4786286704993665, 0.2369268850562616)
_GL_PANELS = 16


def read_csv_body(path: Path) -> Tuple[List[str], List[List[float]]]:
    """Column names and float rows of a recipe CSV, provenance lines skipped."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [[float(x) for x in ln.split(",")]
                                 for ln in lines[1:]]


def csv_body(path: Path) -> str:
    """The CSV body (header row and data), without the comment block."""
    return "\n".join(ln for ln in Path(path).read_text().splitlines()
                     if not ln.startswith("#"))


# ---------------------------------------------------------------------------
# Gibbs law of dP = -u P dt - Q^3 dt + s dW, dQ = P dt:
# density proportional to exp(-(2u/s^2) (p^2/2 + q^4/4)).


def _quartic_integral(c: float, a: float, b: float) -> float:
    """int_a^b exp(-c q^4) dq by composite Gauss-Legendre."""
    h = (b - a) / _GL_PANELS
    total = 0.0
    for k in range(_GL_PANELS):
        mid = a + (k + 0.5) * h
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            q = mid + 0.5 * h * x
            total += w * math.exp(-c * q ** 4)
    return 0.5 * h * total


def gibbs_bin_masses(upsilon: float, sigma: float, p_edges: Sequence[float],
                     q_edges: Sequence[float]) -> List[List[float]]:
    """Invariant-law mass of each (p, q) bin, ``[i][j]`` for p bin i, q bin j.

    The momentum marginal is N(0, sigma^2/(2 upsilon)), integrated with
    ``erf``; the position marginal is proportional to ``exp(-c q^4)`` with
    ``c = upsilon/(2 sigma^2)``, integrated by quadrature and normalised by
    its closed-form total ``2 Gamma(5/4) c^(-1/4)``.
    """
    scale = sigma / math.sqrt(2.0 * upsilon) * math.sqrt(2.0)
    p_cdf = [0.5 * (1.0 + math.erf(e / scale)) for e in p_edges]
    p_mass = [b - a for a, b in zip(p_cdf, p_cdf[1:])]
    c = upsilon / (2.0 * sigma ** 2)
    z = 2.0 * math.gamma(1.25) * c ** -0.25
    q_mass = [_quartic_integral(c, a, b) / z
              for a, b in zip(q_edges, q_edges[1:])]
    return [[pm * qm for qm in q_mass] for pm in p_mass]


class Floor(NamedTuple):
    """Mean and sd of the L1 distance that exact draws reach."""

    mean: float
    sd: float


def _binomial_abs_moments(n: int, rho: float) -> Tuple[float, float]:
    """E|X/n - rho| and E(X/n - rho)^2 for X ~ Binomial(n, rho), summed."""
    if rho <= 0.0 or rho >= 1.0:
        return 0.0, 0.0
    spread = math.sqrt(n * rho * (1.0 - rho))
    lo = max(0, int(n * rho - 14.0 * spread) - 2)
    hi = min(n, int(n * rho + 14.0 * spread) + 2)
    log_norm = math.lgamma(n + 1)
    log_r, log_1r = math.log(rho), math.log1p(-rho)
    mad = 0.0
    for k in range(lo, hi + 1):
        log_pmf = (log_norm - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   + k * log_r + (n - k) * log_1r)
        mad += abs(k / n - rho) * math.exp(log_pmf)
    return mad, rho * (1.0 - rho) / n


def exact_sampler_floor(masses: Sequence[Sequence[float]], n: int) -> Floor:
    """L1 distance that ``n`` exact draws from the law reach, mean and sd.

    Each bin holds ``X_i ~ Binomial(n, rho_i)`` draws; the mean distance is
    the sum of the per-bin mean absolute deviations, summed term by term
    from ``lgamma``.  The sd sums the per-bin variances (the covariances
    between bins are left out, as in the program's own floor).
    """
    mean = var = 0.0
    for row in masses:
        for rho in row:
            mad, second = _binomial_abs_moments(n, rho)
            mean += mad
            var += max(second - mad * mad, 0.0)
    return Floor(mean=mean, sd=math.sqrt(var))


def l1_distance(empirical: Sequence[Sequence[float]],
                masses: Sequence[Sequence[float]]) -> float:
    return sum(abs(e - m) for er, mr in zip(empirical, masses)
               for e, m in zip(er, mr))


# ---------------------------------------------------------------------------
# fits and window means


class LineFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def line_fit(x: Sequence[float], y: Sequence[float]) -> LineFit:
    """Ordinary least squares ``y ~ slope x + intercept`` with r^2."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    return LineFit(slope, intercept, 1.0 - ss_res / ss_tot if ss_tot else 1.0)


def log_log_fit(taus: Sequence[float], errors: Sequence[float]) -> LineFit:
    return line_fit([math.log(t) for t in taus],
                    [math.log(e) for e in errors])


def window_means(times: Sequence[float], values: Sequence[float],
                 fraction: float = 0.1) -> Tuple[float, float]:
    """Means of ``values`` over the first and the last ``fraction`` of the horizon."""
    horizon = times[-1]
    early = [v for t, v in zip(times, values) if t <= horizon * fraction]
    late = [v for t, v in zip(times, values) if t >= horizon * (1.0 - fraction)]
    return sum(early) / len(early), sum(late) / len(late)


# ---------------------------------------------------------------------------
# checks: each returns {name: (passed, detail)}

Checks = Dict[str, Tuple[bool, str]]


def histogram_grid(path: Path) -> Tuple[List[float], List[float],
                                        List[List[float]]]:
    """Edges and the ``[i][j]`` mass grid of a ``histogram_t*.csv`` body."""
    _, rows = read_csv_body(path)
    p_edges = sorted({r[0] for r in rows} | {r[1] for r in rows})
    q_edges = sorted({r[2] for r in rows} | {r[3] for r in rows})
    n_q = len(q_edges) - 1
    mass = [[0.0] * n_q for _ in range(len(p_edges) - 1)]
    for k, r in enumerate(rows):
        mass[k // n_q][k % n_q] = r[4]
    return p_edges, q_edges, mass


def check_histogram(grids, upsilon: float, sigma: float, n_paths: int,
                    floor_cache: dict) -> Checks:
    """Snapshots (in time order) approach the Gibbs law down to the floor.

    Every path must be counted (masses are whole multiples of 1/n_paths
    summing to one), the L1 distance to the Gibbs bin masses must fall from
    snapshot to snapshot, and the final one must lie below the exact-sampler
    floor plus 4 sd.
    """
    distances = []
    counted = True
    for p_edges, q_edges, mass in grids:
        key = (tuple(p_edges), tuple(q_edges))
        if key not in floor_cache:
            rho = gibbs_bin_masses(upsilon, sigma, p_edges, q_edges)
            floor_cache[key] = (rho, exact_sampler_floor(rho, n_paths))
        rho, floor = floor_cache[key]
        counts = [m * n_paths for row in mass for m in row]
        counted &= (all(abs(c - round(c)) < 1e-6 for c in counts)
                    and round(sum(counts)) == n_paths)
        distances.append(l1_distance(mass, rho))
    threshold = floor.mean + 4.0 * floor.sd
    falling = all(a > b for a, b in zip(distances, distances[1:]))
    shown = ", ".join(f"{d:.4f}" for d in distances)
    return {
        "all_paths_counted": (counted, f"{n_paths} paths"),
        "distance_decreasing": (falling, f"L1 distances {shown}"),
        "final_below_floor": (distances[-1] < threshold,
                              f"final {distances[-1]:.4f} < floor "
                              f"{floor.mean:.4f} + 4 x {floor.sd:.4f} "
                              f"= {threshold:.4f}"),
    }


def check_strong_order(taus: Sequence[float], errors: Sequence[float],
                       slope_window=(0.85, 1.15), r2_min=0.98) -> Checks:
    """First-order strong convergence: the log-log line and falling errors."""
    by_tau = sorted(zip(taus, errors), reverse=True)
    falling = all(e1 > e2 > 0.0 for (_, e1), (_, e2) in zip(by_tau, by_tau[1:]))
    if not all(e > 0.0 and math.isfinite(e) for e in errors):
        return {"errors_fall_as_tau_halves": (False, "non-positive error"),
                "order_one_fit": (False, "no fit")}
    fit = log_log_fit(taus, errors)
    lo, hi = slope_window
    ok = lo <= fit.slope <= hi and fit.r_squared > r2_min
    return {
        "errors_fall_as_tau_halves": (falling, ", ".join(
            f"{e:.3e}" for _, e in by_tau)),
        "order_one_fit": (ok, f"slope {fit.slope:.4f} in [{lo}, {hi}], "
                              f"r2 {fit.r_squared:.5f} > {r2_min}"),
    }


def check_long_time(times: Sequence[float], errors: Sequence[float]) -> Checks:
    """The late-decade mean error stays within twice the first-decade mean."""
    times, errors = list(times[1:]), list(errors[1:])
    finite = all(math.isfinite(e) and e > 0.0 for e in errors)
    if not finite:
        return {"errors_finite_positive": (False, "non-finite or zero error"),
                "late_window_bounded": (False, "no window means")}
    early, late = window_means(times, errors)
    return {
        "errors_finite_positive": (True, f"{len(errors)} records"),
        "late_window_bounded": (late <= 2.0 * early,
                                f"late {late:.5f} <= 2 x early {early:.5f} "
                                f"(ratio {late / early:.3f})"),
    }
