"""Command-line entry point: each experiment is a named recipe.

Every run writes one CSV per measurement plus a ``summary.json`` of the
form ``{experiment, config, metrics, checks}``.  CSV headers carry a
provenance comment block (scheme, upsilon, sigma, tau, T, seed) and a
timestamp line; bodies are byte-reproducible for identical config + seed.

Each recipe reads the config keys it uses before any work, and any other
key is a configuration error.  The recipes' checks hold the acceptance
bounds; no config key sets one.

Exit codes: 0 success, 2 configuration errors (bad config file, unknown
experiment, a key the experiment does not read, a value of the wrong type,
a count below 1 or a negative seed, an unknown choice or scheme, a
non-finite or non-positive ``upsilon``, a non-finite or negative ``sigma``
(or a zero one where the Gibbs law is the oracle), a non-finite initial
state, a bad step or an untiled or non-finite horizon, a non-conservative
``lyapunov`` scheme, a level or ``tau`` below twice ``ref_tau``, fewer
than 3 ``tau_levels``, 10 error records or 2 distinct ``times``, an empty
histogram window or a ``burn_in`` that leaves no window before ``T``), 1
numerical failures (a non-finite figure among them: ``summary.json`` is
strict JSON, and a figure it cannot hold is named, not written).

A recipe over many paths runs them in chunks of ``montecarlo.PATH_CHUNK``
on up to ``montecarlo.WORKERS`` processes; its ``workers`` and ``n_chunks``
metrics record that plan, and its other figures have the same bits for any
number of workers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments
from .errors import LangsplitError
from .model import PhysParams, State, energy_H0, gibbs_moments
from .montecarlo import SeedPolicy, chunk_plan, steps_for
from .splitting import SchemeSpec, scheme_step, simulate

OBSERVABLES = {
    "sinsin": lambda p, q: np.sin(p) * np.sin(q),
    "sin_norm": lambda p, q: np.sin(np.sqrt(p * p + q * q)),
    "sin1norm": lambda p, q: np.sin(1.0 + np.sqrt(p * p + q * q)),
    "p2": lambda p, q: p * p,
    "q4": lambda p, q: (q * q) * (q * q),
}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing


def _parse_number(text: str) -> float:
    """Parse a float, also accepting power-of-two tokens like ``2^-10``."""
    text = text.strip()
    if "^" in text:
        base, expo = text.split("^", 1)
        return float(base) ** float(expo)
    return float(text)


def parse_config_file(path: str) -> dict:
    """Read the plain-text ``key = value`` config format.

    Lines starting with ``#`` (or blank) are skipped; values stay strings
    and are interpreted per key by the experiment.
    """
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class Config:
    """Typed access to string-valued config entries with defaults.

    Every accessor records the key it reads, so that :meth:`reject_unread`
    can name the entries an experiment never asked for.
    """

    def __init__(self, entries: dict):
        self.entries = dict(entries)
        self.read = {"experiment", "seed"}

    def reject_unread(self):
        """Fail on an entry no accessor has read: a misspelt or foreign key."""
        unread = sorted(set(self.entries) - self.read)
        if unread:
            raise ConfigError(
                f"unknown config key {', '.join(map(repr, unread))} for "
                f"experiment {self.entries.get('experiment')!r}")

    @staticmethod
    def _number(key, text):
        try:
            return _parse_number(text)
        except ValueError:
            raise ConfigError(f"config key {key!r}: not a number: {text!r}")

    def num(self, key, default=None):
        text = self.text(key)
        return default if text is None else self._number(key, text)

    def integer(self, key, default, minimum=1):
        """An integer of at least ``minimum``; every count must be >= 1."""
        val = self.num(key, default)
        if not (math.isfinite(val) and val == int(val)):
            raise ConfigError(f"config key {key!r}: not an integer: {val!r}")
        if val < minimum:
            raise ConfigError(f"config key {key!r}: must be at least "
                              f"{minimum}, got {int(val)}")
        return int(val)

    def text(self, key, default=None):
        self.read.add(key)
        return self.entries.get(key, default)

    def choice(self, key, options: dict, default: str):
        """The entry of ``options`` named by the key's value."""
        name = self.text(key, default)
        if name not in options:
            raise ConfigError(f"config key {key!r}: unknown value {name!r}; "
                              f"expected one of {', '.join(options)}")
        return options[name]

    def numbers(self, key, default=None):
        text = self.text(key)
        if text is None:
            return default
        return [self._number(key, tok)
                for tok in text.split(",") if tok.strip()]

    def pairs(self, key, default=None):
        text = self.text(key)
        if text is None:
            return default
        out = []
        for tok in text.split(";"):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ConfigError(f"config key {key!r}: expected pairs "
                                  f"'a,b;c,d', got {tok.strip()!r}")
            out.append(tuple(self._number(key, t) for t in parts))
        return out


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, meta: dict, columns, rows):
    """Write a CSV with a provenance comment block, LF endings, 17-digit floats."""
    with open(path, "w", newline="\n") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}: {val}\n")
        fh.write(f"# generated: {datetime.datetime.now().isoformat()}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _meta(cfg, scheme, prm, tau, T, seed):
    return {
        "experiment": cfg.text("experiment", "-"),
        "scheme": scheme.name if isinstance(scheme, SchemeSpec) else scheme,
        "upsilon": _fmt(prm.upsilon),
        "sigma": _fmt(prm.sigma),
        "tau": tau if isinstance(tau, str) else _fmt(tau),
        "T": _fmt(T),
        "seed": str(seed),
    }


def _check(name, passed, margin):
    return {"name": name, "pass": bool(passed), "margin": float(margin)}


def _plan(n_paths):
    """The worker processes and path chunks of a run of ``n_paths``."""
    workers, n_chunks = chunk_plan(n_paths)
    return {"workers": workers, "n_chunks": n_chunks}


# ---------------------------------------------------------------------------
# experiment recipes: read every key, ``cfg.reject_unread()``, then run


def _valid(keys, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ValueError names the config keys."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key {', '.join(map(repr, keys))}: {exc}")


def _common(cfg, scheme_default="savf", upsilon=10.0):
    """Scheme (``None`` without a default), parameters and master seed."""
    scheme = None
    if scheme_default:
        scheme = _valid(("scheme",), SchemeSpec.from_name,
                        cfg.text("scheme", scheme_default))
    prm = _valid(("upsilon", "sigma"), PhysParams, cfg.num("upsilon", upsilon),
                 cfg.num("sigma", 1.0))
    seed = cfg.integer("seed", 12345, minimum=0)
    return scheme, prm, seed


def _initial(cfg, q=0.0):
    state = State(cfg.num("initial_p", 0.0), cfg.num("initial_q", q))
    for key, val in zip(("initial_p", "initial_q"), state):
        if not math.isfinite(val):
            raise ConfigError(f"config key {key!r}: not finite: {val!r}")
    return state


def _step(key, tau, scheme, prm):
    """``tau``, once one step of ``scheme`` from the origin has run the
    maps' own step checks (on the half step of a symmetric composition)."""
    if not tau > 0:
        raise ConfigError(f"config key {key!r}: step must be positive, "
                          f"got {tau:g}")
    _valid((key,), scheme_step, State(0.0, 0.0), tau, prm, scheme, 0.0)
    return tau


def run_simulate(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    T = cfg.num("T", 1.0)
    _valid(("T", "tau"), steps_for, T, tau)
    initial = _initial(cfg)
    cfg.reject_unread()
    traj = simulate(initial, T, tau, prm, scheme, seed)
    write_csv(outdir / "trajectory.csv",
              _meta(cfg, scheme, prm, tau, T, seed), ["t", "p", "q"],
              zip(traj.times, traj.p, traj.q))
    return {"n_steps": len(traj) - 1,
            "final_p": float(traj.p[-1]), "final_q": float(traj.q[-1])}, []


# The weak order of a composition: 1 for the single sweep, 2 for the
# symmetric one.
WEAK_SLOPE_WINDOWS = {"lie_trotter": (0.8, 1.2), "strang": (1.7, 2.3)}


def _order_recipe(cfg, outdir, weak):
    scheme, prm, seed = _common(cfg)
    T = cfg.num("T", 1.0)
    levels = cfg.numbers("tau_levels", [2.0**-k for k in range(6, 11)])
    if len(levels) < 3:
        raise ConfigError(f"config key 'tau_levels': an order fit needs at "
                          f"least 3 levels, got {len(levels)}")
    ref = _step("ref_tau", cfg.num("ref_tau", 2.0**-13), scheme, prm)
    for tau in levels:
        _step("tau_levels", tau, scheme, prm)
        # A level of the reference's own step has no error to fit.
        _valid(("tau_levels", "ref_tau"), steps_for, tau, ref, minimum=2)
        _valid(("T", "tau_levels"), steps_for, T, tau, minimum=1)
    n_paths = cfg.integer("n_paths", 5000 if weak else 1000)
    initial = _initial(cfg)
    g = cfg.choice("observable", OBSERVABLES, "sinsin") if weak else None
    cfg.reject_unread()
    seeds = SeedPolicy(seed)
    if weak:
        fit = analysis.weak_error(scheme, g, levels, ref, T, prm, n_paths,
                                  seeds, initial=initial)
    else:
        fit = analysis.strong_error(scheme, levels, ref, T, prm, n_paths,
                                    seeds, initial=initial)
    lo, hi = WEAK_SLOPE_WINDOWS[scheme.composition] if weak else (0.85, 1.15)
    meta = _meta(cfg, scheme, prm, ",".join(_fmt(t) for t in levels), T, seed)
    write_csv(outdir / ("weak_order.csv" if weak else "strong_order.csv"),
              meta, ["tau", "error", "std_error"],
              zip(fit.taus, fit.errors, fit.std_errors))
    metrics = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared, "n_paths": n_paths,
               "min_level_snr": float(np.min(fit.errors / fit.std_errors)),
               **_plan(n_paths)}
    checks = [_check("slope_in_window", lo <= fit.slope <= hi,
                     min(fit.slope - lo, hi - fit.slope))]
    if not weak:
        checks.append(_check("r_squared", fit.r_squared > 0.98,
                             fit.r_squared - 0.98))
    return metrics, checks


def run_strong_order(cfg, outdir):
    return _order_recipe(cfg, outdir, weak=False)


def run_weak_order(cfg, outdir):
    return _order_recipe(cfg, outdir, weak=True)


def run_long_time_error(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    ref = _step("ref_tau", cfg.num("ref_tau", 2.0**-11), scheme, prm)
    # A run at the reference's own step has no error to track.
    _valid(("tau", "ref_tau"), steps_for, tau, ref, minimum=2)
    T = cfg.num("T", 100.0)
    n_steps = _valid(("T", "tau"), steps_for, T, tau, minimum=1)
    n_paths = cfg.integer("n_paths", 200)
    initial = _initial(cfg)
    n_records = cfg.integer("n_records", 1024)
    # The first tenth of the horizon must hold a record after t = 0.
    n_rec = n_steps // experiments.record_stride(n_steps, n_records)
    if n_rec < 10:
        raise ConfigError(f"config keys 'T', 'tau', 'n_records': {n_rec} "
                          "records after t = 0, need at least 10")
    cfg.reject_unread()
    times, errs = experiments.long_time_error(
        scheme, tau, ref, T, prm, n_paths, SeedPolicy(seed), initial=initial,
        n_records=n_records)
    write_csv(outdir / "long_time_error.csv",
              _meta(cfg, scheme, prm, tau, T, seed), ["t", "error"],
              zip(times, errs))
    early, late = experiments.window_means(times[1:], errs[1:])
    # No ratio (null) for a first-decade error of 0, as with sigma = 0.
    metrics = {"early_window_mean": early, "late_window_mean": late,
               "ratio": late / early if early > 0 else None,
               **_plan(n_paths)}
    return metrics, [_check("late_window_bounded", late <= 2.0 * early,
                            2.0 * early - late)]


def run_ergodic_average(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    T = cfg.num("T", 512.0)
    burn = cfg.num("burn_in", 64.0)
    n_steps = _valid(("T", "tau"), steps_for, T, tau)
    if _valid(("burn_in", "tau"), steps_for, burn, tau) >= n_steps:
        raise ConfigError(f"config key 'burn_in': {burn:g} leaves no window "
                          f"before T = {T:g}")
    n_seeds = cfg.integer("n_seeds", 100)
    initial = _initial(cfg)
    oracle = _valid(("sigma",), gibbs_moments, prm)
    cfg.reject_unread()
    avgs = experiments.ergodic_averages(
        scheme, prm, tau, T, burn, n_seeds, SeedPolicy(seed), initial,
        {"p2": OBSERVABLES["p2"], "q4": OBSERVABLES["q4"]})
    write_csv(outdir / "ergodic_average.csv",
              _meta(cfg, scheme, prm, tau, T, seed),
              ["seed_index", "avg_p2", "avg_q4"],
              ((i, avgs["p2"][i], avgs["q4"][i]) for i in range(n_seeds)))
    metrics = {}
    checks = []
    for name, target in (("p2", oracle.Ep2), ("q4", oracle.Eq4)):
        mean = float(avgs[name].mean())
        se = float(avgs[name].std(ddof=1) / math.sqrt(n_seeds))
        rel = abs(mean - target) / target
        metrics.update({f"mean_{name}": mean, f"se_{name}": se,
                        f"target_{name}": target, f"rel_err_{name}": rel})
        checks.append(_check(f"{name}_within_5pct", rel < 0.05, 0.05 - rel))
    metrics.update(_plan(n_seeds))
    return metrics, checks


def run_histogram(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    times = cfg.numbers("times", [0.0, 2.0, 256.0])
    steps = {_valid(("times", "tau"), steps_for, t, tau) for t in times}
    if len(steps) < 2 or len(steps) < len(times):
        raise ConfigError("config key 'times': need at least two distinct "
                          f"times, got {cfg.text('times')!r}")
    n_paths = cfg.integer("n_paths", 5000)
    bins = (cfg.integer("bins_p", 40), cfg.integer("bins_q", 40))
    p_range = (cfg.num("p_min", -1.0), cfg.num("p_max", 1.0))
    q_range = (cfg.num("q_min", -1.5), cfg.num("q_max", 1.5))
    for axis, (lo, hi) in zip("pq", (p_range, q_range)):
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"config keys '{axis}_min', '{axis}_max': "
                              f"[{lo:g}, {hi:g}] is not a finite window")
    initial = _initial(cfg)
    _valid(("sigma",), gibbs_moments, prm)
    cfg.reject_unread()
    hists = experiments.histogram_snapshots(
        scheme, prm, tau, times, n_paths, SeedPolicy(seed), initial,
        bins, p_range, q_range)
    metrics = {"n_paths": n_paths, **_plan(n_paths)}
    distances = []
    for t, h in zip(sorted(times), hists):
        mass, pe, qe = h.mass, h.p_edges, h.q_edges
        write_csv(outdir / f"histogram_t{t:g}.csv",
                  _meta(cfg, scheme, prm, tau, t, seed),
                  ["p_lo", "p_hi", "q_lo", "q_hi", "mass"],
                  ((pe[i], pe[i + 1], qe[j], qe[j + 1], mass[i, j])
                   for i in range(bins[0]) for j in range(bins[1])))
        distances.append(analysis.distribution_distance(h, prm))
        # Samples outside the window are dropped from the histogram.
        metrics.update({f"distance_t{t:g}": distances[-1],
                        f"dropped_t{t:g}": n_paths - h.n_samples})
    decreases = [a - b for a, b in zip(distances, distances[1:])]
    # An exact sampler of the same size sets the attainable distance (mean
    # + 4 sd); the floor assumes that the window holds every sample.
    final = hists[-1]
    floor = analysis.distance_noise_floor(prm, final.p_edges, final.q_edges,
                                          final.n_samples)
    threshold = floor.mean + 4.0 * floor.sd
    metrics.update({"floor_mean": floor.mean, "floor_sd": floor.sd,
                    "final_distance_threshold": threshold})
    checks = [_check("distance_decreasing", all(d > 0 for d in decreases),
                     min(decreases, default=0.0)),
              _check("final_distance", distances[-1] < threshold,
                     threshold - distances[-1]),
              _check("final_window_holds_all", final.n_samples == n_paths,
                     final.n_samples - n_paths)]
    return metrics, checks


def msd_approach(times, msd, plateau, upsilon, fit_lo=None, fit_hi=None):
    """Metrics and check of an exponential approach of ``msd`` to ``plateau``.

    ``log(plateau - msd)`` is fitted by a line in ``t`` over [fit_lo,
    fit_hi] (a bound not given comes from ``analysis.msd_fit_window``) and
    by a line in ``log(1 + t)``, the shape of an algebraic approach.  The
    semilog fit must fall, reach r^2 > 0.9 and beat the log-log r^2.
    """
    if fit_lo is None or fit_hi is None:
        auto = analysis.msd_fit_window(times, msd, upsilon)
        fit_lo = float(times[auto.start]) if fit_lo is None else fit_lo
        fit_hi = float(times[auto.stop - 1]) if fit_hi is None else fit_hi
    window = (times >= fit_lo) & (times <= fit_hi) & (msd < plateau)
    t, log_gap = times[window], np.log(plateau - msd[window])
    slope, _, r2 = analysis.linear_fit(t, log_gap)
    _, _, r2_algebraic = analysis.linear_fit(np.log1p(t), log_gap)
    metrics = {"equilibrium_rate": slope, "fit_r_squared": r2,
               "algebraic_r_squared": r2_algebraic,
               "fit_t_min": fit_lo, "fit_t_max": fit_hi}
    passed = slope < 0 and r2 > 0.9 and r2 > r2_algebraic
    return metrics, _check("exponential_approach", passed,
                           min(r2 - 0.9, r2 - r2_algebraic))


def run_msd(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    T = cfg.num("T", 512.0)
    _valid(("T", "tau"), steps_for, T, tau)
    n_paths = cfg.integer("n_paths", 1000)
    n_records = cfg.integer("n_records", 2048)
    initial = _initial(cfg)
    fit_lo, fit_hi = cfg.num("fit_t_min"), cfg.num("fit_t_max")
    mom = _valid(("sigma",), gibbs_moments, prm)
    cfg.reject_unread()
    times, msd = experiments.msd_experiment(
        scheme, prm, tau, T, n_paths, SeedPolicy(seed), initial)
    stride = max(1, len(times) // n_records)
    write_csv(outdir / "msd.csv", _meta(cfg, scheme, prm, tau, T, seed),
              ["t", "msd"], zip(times[::stride], msd[::stride]))
    plateau = analysis.msd_plateau(times, msd)
    # The stationary law has zero mean, so the displacement plateau is the
    # stationary second moments plus the squared initial offset.
    target = mom.Ep2 + mom.Eq2 + float(initial.p)**2 + float(initial.q)**2
    rel = abs(plateau - target) / target
    approach, approach_check = msd_approach(times, msd, plateau, prm.upsilon,
                                            fit_lo, fit_hi)
    metrics = {"plateau": plateau, "target": target, "rel_err": rel,
               **approach, **_plan(n_paths)}
    return metrics, [_check("plateau_within_5pct", rel < 0.05, 0.05 - rel),
                     approach_check]


def run_exp_moment(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg)
    tau = _step("tau", cfg.num("tau", 2.0**-10), scheme, prm)
    T = cfg.num("T", 1.0)
    _valid(("T", "tau"), steps_for, T, tau)
    n_paths = cfg.integer("n_paths", 10000)
    initial = _initial(cfg)
    cfg.reject_unread()
    rep = analysis.exp_moment_monitor(scheme, prm, tau, T, n_paths,
                                      SeedPolicy(seed), initial=initial)
    write_csv(outdir / "exp_moment.csv", _meta(cfg, scheme, prm, tau, T, seed),
              ["t", "estimate", "max_exponent"],
              zip(rep.times, rep.estimates, rep.max_exponents))
    log_max = float(np.max(rep.log_estimates))
    headroom = rep.envelope_log - log_max
    metrics = {"envelope_log": rep.envelope_log, "flagged": rep.flagged,
               "log_max_estimate": log_max, "log_headroom": headroom,
               **_plan(n_paths)}
    return metrics, [_check("exp_moment_bounded", not rep.flagged, headroom)]


def run_lyapunov(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    n_draws = cfg.integer("n_draws", 100000)
    states = [State(p, q) for p, q in
              cfg.pairs("states", [(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)])]
    if scheme.map_kind not in analysis.CONSERVATIVE_KINDS:
        raise ConfigError("config key 'scheme': lyapunov checks the "
                          f"conservative maps only, got {scheme.name!r}")
    cfg.reject_unread()
    records = analysis.lyapunov_check(scheme, prm, tau, states, n_draws,
                                      seed=seed)
    write_csv(outdir / "lyapunov.csv", _meta(cfg, scheme, prm, tau, tau, seed),
              ["p0", "q0", "mc_mean", "std_error", "bound", "margin", "passed"],
              ((r.state.p, r.state.q, r.mc_mean, r.std_error, r.bound,
                r.margin, r.passed) for r in records))
    worst = min(r.margin for r in records)
    return ({"n_states": len(records), "worst_margin": worst},
            [_check("lyapunov_contraction", all(r.passed for r in records),
                    worst)])


def run_jacobian(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg, scheme_default="sympl-euler", upsilon=2.0)
    tau = _step("tau", cfg.num("tau", 1e-4), scheme, prm)
    n_states = cfg.integer("n_states", 1000)
    n_draws = cfg.integer("n_draws", 100)
    cfg.reject_unread()
    rng = np.random.default_rng(seed)
    s = State(rng.uniform(-2, 2, n_states), rng.uniform(-2, 2, n_states))
    target = math.exp(-prm.upsilon * tau)
    worst = np.zeros(n_states)
    for _ in range(n_draws):
        z = rng.standard_normal()
        det = analysis.jacobian_det(
            lambda x: scheme_step(x, tau, prm, scheme, z), s)
        worst = np.maximum(worst, np.abs(det / target - 1.0))
    write_csv(outdir / "jacobian.csv", _meta(cfg, scheme, prm, tau, tau, seed),
              ["p", "q", "max_rel_err"], zip(s.p, s.q, worst))
    metrics = {"target_det": target, "max_rel_err": float(worst.max())}
    return metrics, [_check("conformal_det", worst.max() <= 1e-6,
                            1e-6 - float(worst.max()))]


def run_phase_area(cfg: Config, outdir: Path):
    scheme, prm, seed = _common(cfg, scheme_default="sympl-euler", upsilon=2.0)
    tau = _step("tau", cfg.num("tau", 1e-4), scheme, prm)
    T = cfg.num("T", 1.0)
    _valid(("T", "tau"), steps_for, T, tau)
    n_vertices = cfg.integer("n_vertices", 10000)
    n_records = cfg.integer("n_records", 1024)
    cfg.reject_unread()
    times, areas = analysis.phase_area(scheme, prm, tau, T, n_vertices, seed)
    stride = max(1, len(times) // n_records)
    write_csv(outdir / "phase_area.csv", _meta(cfg, scheme, prm, tau, T, seed),
              ["t", "area"], zip(times[::stride], areas[::stride]))
    ratio = areas[-1] / math.pi
    target = math.exp(-prm.upsilon * T)
    rel = abs(ratio / target - 1.0)
    metrics = {"final_area": float(areas[-1]), "area_over_pi": float(ratio),
               "target": target, "rel_err": float(rel)}
    return metrics, [_check("area_contraction", rel <= 1e-3, 1e-3 - rel)]


def run_dissipation_demo(cfg: Config, outdir: Path):
    _, prm, seed = _common(cfg, scheme_default=None)
    tau = cfg.num("tau", 2.0**-8)
    T = cfg.num("T", 1.0)
    _valid(("T", "tau"), steps_for, T, tau)
    n_paths = cfg.integer("n_paths", 20000)
    initial = _initial(cfg, q=2.0)
    cfg.reject_unread()
    curves = analysis.h0_dissipation_compare(prm, tau, T, initial, n_paths,
                                             SeedPolicy(seed))
    write_csv(outdir / "dissipation.csv",
              _meta(cfg, "substeps", prm, tau, T, seed),
              ["t", "h0_naive", "h0_naive_se", "h0_dissipative",
               "h0_dissipative_se"],
              zip(curves.times, curves.naive_mean, curves.naive_se,
                  curves.dissipative_mean, curves.dissipative_se))
    h0_start = float(energy_H0(initial))
    half = 0.5 * h0_start
    naive_ok = bool(np.all(curves.naive_mean
                           >= h0_start - 3.0 * curves.naive_se))
    idx = int(np.searchsorted(curves.times, 0.2))
    diss_ok = bool(np.all(curves.dissipative_mean[idx:] < half))
    metrics = {"h0_initial": h0_start, "h0_half": half,
               "naive_min": float(curves.naive_mean.min()),
               "naive_final": float(curves.naive_mean[-1]),
               "dissipative_at_0.2": float(curves.dissipative_mean[idx]),
               **_plan(n_paths)}
    return metrics, [
        _check("naive_never_dissipates", naive_ok,
               float(np.min(curves.naive_mean + 3.0 * curves.naive_se
                            - h0_start))),
        _check("dissipative_halves_by_0.2", diss_ok,
               half - float(np.max(curves.dissipative_mean[idx:]))),
    ]


RECIPES = {
    "simulate": run_simulate,
    "strong-order": run_strong_order,
    "weak-order": run_weak_order,
    "long-time-error": run_long_time_error,
    "ergodic-average": run_ergodic_average,
    "histogram": run_histogram,
    "msd": run_msd,
    "exp-moment": run_exp_moment,
    "lyapunov": run_lyapunov,
    "jacobian": run_jacobian,
    "phase-area": run_phase_area,
    "dissipation-demo": run_dissipation_demo,
}
EXPERIMENTS = tuple(RECIPES)


# ---------------------------------------------------------------------------
# entry point


def _error_record(kind, exc):
    record = {"type": kind, "message": str(exc)}
    for attr in ("step_index", "path_index", "iterations", "residual"):
        val = getattr(exc, attr, None)
        if val is not None:
            record[attr] = val
    return json.dumps({"error": record}, default=float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="langsplit",
        description="Structure-preserving splitting integrators for the "
                    "stochastic Langevin equation: experiment recipes.")
    parser.add_argument("--experiment", help=f"one of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", help="plain-text key = value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        entries = parse_config_file(args.config) if args.config else {}
        if args.seed is not None:
            entries["seed"] = str(args.seed)
        experiment = args.experiment or entries.get("experiment")
        if experiment is None:
            raise ConfigError("no experiment given (flag --experiment or "
                              "config key 'experiment')")
        if experiment not in RECIPES:
            raise ConfigError(
                f"unknown experiment {experiment!r}; expected one of "
                f"{', '.join(EXPERIMENTS)}")
        entries["experiment"] = experiment
        cfg = Config(entries)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        metrics, checks = RECIPES[experiment](cfg, outdir)
    except ConfigError as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return 2
    except (LangsplitError, ValueError) as exc:
        print(_error_record(type(exc).__name__, exc), file=sys.stderr)
        return 1

    summary = {
        "experiment": experiment,
        "config": cfg.entries,
        "metrics": metrics,
        "checks": checks,
    }
    figures = {**metrics, **{f"margin of {c['name']}": c["margin"]
                             for c in checks}}
    non_finite = [name for name, val in figures.items()
                  if isinstance(val, (float, np.floating))
                  and not math.isfinite(val)]
    if non_finite:
        # Strict JSON holds no NaN or Infinity: a non-finite figure is a bug.
        print(_error_record("NonFiniteMetric", "not finite: "
                            + ", ".join(non_finite)), file=sys.stderr)
        return 1
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float, allow_nan=False)
        fh.write("\n")
    print(json.dumps({"experiment": experiment, "metrics": metrics,
                      "checks": checks}, default=float, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
