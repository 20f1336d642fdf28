"""Command-line entry point: each experiment is a named recipe.

A recipe is a function of its config alone: it reads every key it uses
before any work (any other key is a configuration error), runs, and
returns its tables, metrics and checks.  Then ``main`` writes one CSV per
table and a ``summary.json`` of the form ``{experiment, config, metrics,
checks}``.  ``config`` records each key the recipe read, in reading order,
with the value the run used (defaults included), plus ``experiment`` and
``seed``; every CSV's comment header is the same record, then a timestamp
line.  CSV bodies are byte-reproducible for identical config and seed.

Exit codes keep five rules (``test_bad_config_value_is_exit_two`` in
``tests/test_cli.py`` lists the cases of exit 2).  A run exits 0, 1 (a
numerical failure or any other error) or 2 (a configuration error).  Every
error is one JSON record on stderr, never a traceback, and a successful run
writes nothing there.  Exit 2 comes before any work and names its keys.
Exit 0 writes strict JSON.  A non-zero exit writes no file.  SIGTERM kills
a run's forked workers first.

A recipe over many paths runs them in chunks of ``montecarlo.PATH_CHUNK``
on up to ``montecarlo.WORKERS`` processes; its ``workers`` and ``n_chunks``
metrics record that plan, and its other figures have the same bits for any
number of workers.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments, montecarlo
from .model import PhysParams, State, energy_H0, gibbs_moments
from .montecarlo import SeedPolicy, chunk_plan, steps_for
from .splitting import SchemeSpec, scheme_step, simulate
from .stochflow import OUIncrement, naive_increment

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
        return math.pow(float(base), float(expo))
    return float(text)


def parse_config_file(path: str) -> dict:
    """Read the plain-text ``key = value`` config format.

    Lines starting with ``#`` (or blank) are skipped; values stay strings
    and are interpreted per key by the experiment.  A key may appear once.
    """
    cfg, lines = {}, {}
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is "
                              f"already set on line {lines[key]}")
        lines[key] = lineno
        cfg[key] = value
    return cfg


class Config:
    """Typed access to string-valued config entries with defaults.

    Every accessor records in ``used`` the key it reads and the value the
    run uses (a default, a choice's name, a list of numbers or pairs), in
    reading order; :meth:`reject_unread` names every entry outside it.
    """

    def __init__(self, entries: dict):
        self.entries = dict(entries)
        self.used = {"experiment": self.entries.get("experiment")}

    def reject_unread(self):
        """Fail on an entry no accessor has read: a misspelt or foreign key."""
        unread = sorted(set(self.entries) - set(self.used))
        if unread:
            raise ConfigError(
                f"unknown config key {', '.join(map(repr, unread))} for "
                f"experiment {self.used['experiment']!r}")

    def _use(self, key, value):
        self.used[key] = value
        return value

    @staticmethod
    def _number(key, text):
        """``text`` as a finite float, or a ConfigError naming ``key``."""
        try:
            val = _parse_number(text)
            if math.isfinite(val):
                return val
        except (ValueError, OverflowError):  # also a power with no real value
            pass
        raise ConfigError(f"config key {key!r}: not a finite number: {text!r}")

    def num(self, key, default):
        text = self.entries.get(key)
        return self._use(key,
                         default if text is None else self._number(key, text))

    def integer(self, key, default, minimum=1):
        """An integer of at least ``minimum`` (a count is at least 1) and at
        most 2^53, above which floats skip integers."""
        val = self.num(key, default)
        if val != int(val):
            raise ConfigError(f"config key {key!r}: not an integer: {val!r}")
        if val < minimum:
            raise ConfigError(f"config key {key!r}: must be at least "
                              f"{minimum}, got {int(val)}")
        if val > 2**53:
            raise ConfigError(f"config key {key!r}: must be at most 2^53, "
                              f"got {val:g}")
        return self._use(key, int(val))

    def text(self, key, default):
        return self._use(key, self.entries.get(key, default))

    def choice(self, key, options: dict, default: str):
        """The entry of ``options`` named by the key's value."""
        name = self.text(key, default)
        if name not in options:
            raise ConfigError(f"config key {key!r}: unknown value {name!r}; "
                              f"expected one of {', '.join(options)}")
        return options[name]

    def numbers(self, key, default: list):
        text = self.entries.get(key)
        return self._use(key, default if text is None else [
            self._number(key, tok) for tok in text.split(",") if tok.strip()])

    def pairs(self, key, default: list):
        text = self.entries.get(key)
        if text is None:
            return self._use(key, default)
        out = []
        for tok in text.split(";"):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ConfigError(f"config key {key!r}: expected pairs "
                                  f"'a,b;c,d', got {tok.strip()!r}")
            out.append([self._number(key, t) for t in parts])
        return self._use(key, out)


# ---------------------------------------------------------------------------
# output helpers


def _row_format(kinds) -> str:
    """The ``%`` format of a row whose values have the types ``kinds``:
    text as it is, integers in full and floats to 17 digits.  A bool has no
    format of its own: a table writes it as text."""
    out = []
    for kind in kinds:
        if issubclass(kind, (bool, np.bool_)):
            raise TypeError("a CSV value is a bool; write it as text")
        out.append("%s" if issubclass(kind, str) else
                   "%d" if issubclass(kind, (int, np.integer)) else "%.17g")
    return ",".join(out) + "\n"


def write_csv(path: Path, meta: dict, columns, rows):
    """Write a CSV with a provenance comment block, LF endings, 17-digit floats.

    A row is formatted in one ``%`` call, by the format of its value types.
    """
    with open(path, "w", newline="\n") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}: {val}\n")
        fh.write(f"# generated: {datetime.datetime.now().isoformat()}\n")
        fh.write(",".join(columns) + "\n")
        formats = {}
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:
                formats[kinds] = _row_format(kinds)
            fh.write(formats[kinds] % tuple(row))


def _check(name, passed, margin):
    return {"name": name, "pass": bool(passed), "margin": float(margin)}


def _plan(n_paths, beside=False):
    """The worker processes and path chunks of a run of ``n_paths``; a run
    that forks a worker ``beside`` itself has at least two."""
    workers, n_chunks = chunk_plan(n_paths)
    return {"workers": max(workers, 1 + beside), "n_chunks": n_chunks}


# ---------------------------------------------------------------------------
# experiment recipes: read every key, ``cfg.reject_unread()``, then run and
# return ``(tables, metrics, checks)``; ``tables`` maps each CSV's name to
# its columns and rows


def _valid(keys, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ValueError names the config keys."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key {', '.join(map(repr, keys))}: {exc}")


def _target(prm, key, x):
    """``exp(-upsilon x)``, the figure a recipe is measured against."""
    target = math.exp(-prm.upsilon * x)
    if not target >= sys.float_info.min:
        raise ConfigError(f"config keys 'upsilon', {key!r}: the target "
                          f"exp(-upsilon {key}) = {target:g} is below the "
                          "smallest normal float")
    return target


def _fits(keys, floats):
    """Fail, naming ``keys``, where the arrays that a run's step counts size
    (``floats`` float64 entries) exceed physical memory, if it is known."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no figure on this system
        memory = -1
    if 0 < memory < 8 * floats:
        raise ConfigError(f"config keys {', '.join(map(repr, keys))}: "
                          f"{8 * floats / 2**30:.3g} GiB of arrays, more than "
                          f"the {memory / 2**30:.3g} GiB of physical memory")


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
    return State(cfg.num("initial_p", 0.0), cfg.num("initial_q", q))


def _step(key, tau, scheme, prm):
    """``tau``, once its sampled sub-step has kept its noise and one step of
    ``scheme`` from the origin has run the maps' own step checks (on the
    half step of a symmetric composition)."""
    if not tau > 0:
        raise ConfigError(f"config key {key!r}: step must be positive, "
                          f"got {tau:g}")
    _valid(("upsilon", key), OUIncrement.from_params, prm, tau)
    _valid((key,), scheme_step, State(0.0, 0.0), tau, prm, scheme, 0.0)
    return tau


def _grid(cfg, scheme, prm, tau, T, minimum=0):
    """``(tau, T, n_steps)`` of the keys ``tau`` and ``T`` (defaults ``tau``,
    ``T``): a step of ``scheme`` that tiles T in at least ``minimum`` steps."""
    tau = _step("tau", cfg.num("tau", tau), scheme, prm)
    T = cfg.num("T", T)
    return tau, T, _valid(("T", "tau"), steps_for, T, tau, minimum=minimum)


def run_simulate(cfg: Config):
    scheme, prm, seed = _common(cfg)
    tau, T, n_steps = _grid(cfg, scheme, prm, 2.0**-8, 1.0)
    _fits(("T", "tau"), 3 * (n_steps + 1))  # times, p, q
    initial = _initial(cfg)
    cfg.reject_unread()
    traj = simulate(initial, T, tau, prm, scheme, seed)
    tables = {"trajectory.csv": (["t", "p", "q"],
                                 zip(traj.times, traj.p, traj.q))}
    return tables, {"n_steps": len(traj) - 1, "final_p": float(traj.p[-1]),
                    "final_q": float(traj.q[-1])}, []


# The weak order of a composition: 1 for the single sweep, 2 for the
# symmetric one.
WEAK_SLOPE_WINDOWS = {"lie_trotter": (0.8, 1.2), "strang": (1.7, 2.3)}


def _order_recipe(cfg, weak):
    scheme, prm, seed = _common(cfg)
    T = cfg.num("T", 1.0)
    levels = cfg.numbers("tau_levels", [2.0**-k for k in range(6, 11)])
    if len(set(levels)) < 3:
        raise ConfigError(f"config key 'tau_levels': an order fit needs at "
                          f"least 3 distinct levels, got {len(set(levels))}")
    ref = _step("ref_tau", cfg.num("ref_tau", 2.0**-13), scheme, prm)
    for tau in levels:
        _step("tau_levels", tau, scheme, prm)
        # A level of the reference's own step has no error to fit.
        _valid(("tau_levels", "ref_tau"), steps_for, tau, ref, minimum=2)
        _valid(("T", "tau_levels"), steps_for, T, tau, minimum=1)
    n_paths = cfg.integer("n_paths", 5000 if weak else 1000, minimum=2)
    plan = _plan(n_paths, analysis.levels_beside(
        levels, ref, _valid(("T", "ref_tau"), steps_for, T, ref), n_paths))
    # One block of fine increments, a chunk wide, in each process.
    _fits(("tau_levels", "ref_tau", "n_paths"),
          plan["workers"] * min(n_paths, montecarlo.PATH_CHUNK)
          * analysis._fine_block([ref, *levels], ref))
    initial = _initial(cfg)
    if prm.sigma * prm.sigma == 0 and initial.p == 0 and initial.q == 0:
        # The origin is a fixed point of the noise-free dynamics.
        raise ConfigError("config keys 'sigma', 'initial_p', 'initial_q': "
                          "with no noise a run from the origin stays there, "
                          "so every level's error is 0")
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
    tables = {f"{'weak' if weak else 'strong'}_order.csv": (
        ["tau", "error", "std_error"],
        zip(fit.taus, fit.errors, fit.std_errors))}
    # No ratio (null) for a standard error of 0, as in a noise-free study.
    se = fit.std_errors
    snr = float(np.min(fit.errors / se)) if np.all(se > 0) else None
    metrics = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared, "n_paths": n_paths,
               "min_level_snr": snr, **plan}
    checks = [_check("slope_in_window", lo <= fit.slope <= hi,
                     min(fit.slope - lo, hi - fit.slope))]
    if not weak:
        checks.append(_check("r_squared", fit.r_squared > 0.98,
                             fit.r_squared - 0.98))
    return tables, metrics, checks


def run_strong_order(cfg):
    return _order_recipe(cfg, weak=False)


def run_weak_order(cfg):
    return _order_recipe(cfg, weak=True)


def run_long_time_error(cfg: Config):
    scheme, prm, seed = _common(cfg)
    tau, T, n_steps = _grid(cfg, scheme, prm, 2.0**-8, 100.0, minimum=1)
    ref = _step("ref_tau", cfg.num("ref_tau", 2.0**-11), scheme, prm)
    # A run at the reference's own step has no error to track.
    _valid(("tau", "ref_tau"), steps_for, tau, ref, minimum=2)
    n_paths = cfg.integer("n_paths", 200)
    initial = _initial(cfg)
    n_records = cfg.integer("n_records", 1024)
    # The first tenth of the horizon must hold a record after t = 0.
    n_rec = n_steps // experiments.record_stride(n_steps, n_records)
    if n_rec < 10:
        raise ConfigError(f"config keys 'T', 'tau', 'n_records': {n_rec} "
                          "records after t = 0, need at least 10")
    plan = _plan(n_paths)
    # Each chunk's records, their fold, times and errors; a block a process.
    _fits(("T", "tau", "ref_tau", "n_paths", "n_records"),
          (plan["n_chunks"] + 3) * (n_rec + 1)
          + plan["workers"] * min(n_paths, montecarlo.PATH_CHUNK)
          * analysis._fine_block([ref, tau], ref))
    cfg.reject_unread()
    times, errs = experiments.long_time_error(
        scheme, tau, ref, T, prm, n_paths, SeedPolicy(seed), initial=initial,
        n_records=n_records)
    tables = {"long_time_error.csv": (["t", "error"], zip(times, errs))}
    early, late = experiments.window_means(times[1:], errs[1:])
    # No ratio (null) for a first-decade error of 0, as with sigma = 0.
    metrics = {"early_window_mean": early, "late_window_mean": late,
               "ratio": late / early if early > 0 else None, **plan}
    return tables, metrics, [_check("late_window_bounded", late <= 2.0 * early,
                                    2.0 * early - late)]


def run_ergodic_average(cfg: Config):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau, T, n_steps = _grid(cfg, scheme, prm, 2.0**-8, 512.0)
    burn = cfg.num("burn_in", 64.0)
    if _valid(("burn_in", "tau"), steps_for, burn, tau) >= n_steps:
        raise ConfigError(f"config key 'burn_in': {burn:g} leaves no window "
                          f"before T = {T:g}")
    n_seeds = cfg.integer("n_seeds", 100, minimum=2)
    initial = _initial(cfg)
    oracle = _valid(("upsilon", "sigma"), gibbs_moments, prm)
    cfg.reject_unread()
    avgs = experiments.ergodic_averages(
        scheme, prm, tau, T, burn, n_seeds, SeedPolicy(seed), initial,
        {"p2": OBSERVABLES["p2"], "q4": OBSERVABLES["q4"]})
    tables = {"ergodic_average.csv": (
        ["seed_index", "avg_p2", "avg_q4"],
        ((i, avgs["p2"][i], avgs["q4"][i]) for i in range(n_seeds)))}
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
    return tables, metrics, checks


def _bins(h):
    """A histogram's CSV rows, made as they are written: each bin's edges
    and mass, row by row."""
    mass, pe, qe = h.mass, h.p_edges, h.q_edges
    for i in range(mass.shape[0]):
        for j in range(mass.shape[1]):
            yield pe[i], pe[i + 1], qe[j], qe[j + 1], mass[i, j]


def run_histogram(cfg: Config):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    times = cfg.numbers("times", [0.0, 2.0, 256.0])
    steps = {_valid(("times", "tau"), steps_for, t, tau) for t in times}
    if len(steps) < 2 or len(steps) < len(times):
        raise ConfigError("config key 'times': need at least two distinct "
                          f"times, got {cfg.entries.get('times')!r}")
    n_paths = cfg.integer("n_paths", 5000)
    bins = (cfg.integer("bins_p", 40), cfg.integer("bins_q", 40))
    _fits(("bins_p", "bins_q", "times"), len(times) * bins[0] * bins[1])
    p_range = (cfg.num("p_min", -1.0), cfg.num("p_max", 1.0))
    q_range = (cfg.num("q_min", -1.5), cfg.num("q_max", 1.5))
    for axis, (lo, hi) in zip("pq", (p_range, q_range)):
        if not lo < hi:
            raise ConfigError(f"config keys '{axis}_min', '{axis}_max': "
                              f"[{lo:g}, {hi:g}] is an empty window")
    initial = _initial(cfg)
    _valid(("upsilon", "sigma"), gibbs_moments, prm)
    cfg.reject_unread()
    hists = experiments.histogram_snapshots(
        scheme, prm, tau, times, n_paths, SeedPolicy(seed), initial,
        bins, p_range, q_range)
    tables = {}
    metrics = {"n_paths": n_paths, **_plan(n_paths)}
    distances = []
    for t, h in zip(sorted(times), hists):
        tables[f"histogram_t{t:g}.csv"] = (
            ["p_lo", "p_hi", "q_lo", "q_hi", "mass"], _bins(h))
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
    return tables, metrics, checks


def msd_approach(times, msd, plateau, upsilon):
    """Metrics and check of an exponential approach of ``msd`` to ``plateau``.

    ``log(plateau - msd)`` is fitted over ``analysis.msd_fit_window`` by a
    line in ``t`` and by a line in ``log(1 + t)``, the shape of an
    algebraic approach.  The semilog fit must fall, reach r^2 > 0.9 and
    beat the log-log r^2.
    """
    window = analysis.msd_fit_window(times, msd, upsilon)
    t, log_gap = times[window], np.log(plateau - msd[window])
    slope, _, r2 = analysis.linear_fit(t, log_gap)
    _, _, r2_algebraic = analysis.linear_fit(np.log1p(t), log_gap)
    metrics = {"equilibrium_rate": slope, "fit_r_squared": r2,
               "algebraic_r_squared": r2_algebraic,
               "fit_t_min": float(t[0]), "fit_t_max": float(t[-1])}
    passed = slope < 0 and r2 > 0.9 and r2 > r2_algebraic
    return metrics, _check("exponential_approach", passed,
                           min(r2 - 0.9, r2 - r2_algebraic))


def run_msd(cfg: Config):
    scheme, prm, seed = _common(cfg, upsilon=15.0)
    tau, T, n_steps = _grid(cfg, scheme, prm, 2.0**-8, 512.0)
    n_paths = cfg.integer("n_paths", 1000)
    plan = _plan(n_paths)
    # Each chunk's sums, their fold, the times and the msd.
    _fits(("T", "tau", "n_paths"), (plan["n_chunks"] + 3) * (n_steps + 1))
    # The fit window opens at t = 10/upsilon and needs 3 grid times.
    start = analysis.msd_window_start(np.arange(n_steps + 1) * tau,
                                      prm.upsilon)
    if n_steps + 1 - start < 3:
        raise ConfigError(
            f"config keys 'T', 'upsilon': T = {T:g} holds fewer than 3 grid "
            f"times at or after t = 10/upsilon = {10.0 / prm.upsilon:g}")
    n_records = cfg.integer("n_records", 2048)
    initial = _initial(cfg)
    mom = _valid(("upsilon", "sigma"), gibbs_moments, prm)
    cfg.reject_unread()
    times, msd = experiments.msd_experiment(
        scheme, prm, tau, T, n_paths, SeedPolicy(seed), initial)
    stride = max(1, len(times) // n_records)
    tables = {"msd.csv": (["t", "msd"], zip(times[::stride], msd[::stride]))}
    plateau = analysis.msd_plateau(times, msd)
    # The stationary law has zero mean, so the displacement plateau is the
    # stationary second moments plus the squared initial offset.
    target = mom.Ep2 + mom.Eq2 + float(initial.p)**2 + float(initial.q)**2
    rel = abs(plateau - target) / target
    approach, approach_check = msd_approach(times, msd, plateau, prm.upsilon)
    metrics = {"plateau": plateau, "target": target, "rel_err": rel,
               **approach, **plan}
    return tables, metrics, [
        _check("plateau_within_5pct", rel < 0.05, 0.05 - rel), approach_check]


def run_exp_moment(cfg: Config):
    scheme, prm, seed = _common(cfg)
    tau, T, n_steps = _grid(cfg, scheme, prm, 2.0**-10, 1.0)
    n_paths = cfg.integer("n_paths", 10000)
    plan = _plan(n_paths)
    # Each chunk's three folds, and seven arrays of the whole run.
    _fits(("T", "tau", "n_paths"), (3 * plan["n_chunks"] + 7) * (n_steps + 1))
    initial = _initial(cfg)
    cfg.reject_unread()
    rep = analysis.exp_moment_monitor(scheme, prm, tau, T, n_paths,
                                      SeedPolicy(seed), initial=initial)
    tables = {"exp_moment.csv": (
        ["t", "estimate", "max_exponent"],
        zip(rep.times, rep.estimates, rep.max_exponents))}
    log_max = float(np.max(rep.log_estimates))
    headroom = rep.envelope_log - log_max
    metrics = {"envelope_log": rep.envelope_log, "flagged": rep.flagged,
               "log_max_estimate": log_max, "log_headroom": headroom, **plan}
    return tables, metrics, [_check("exp_moment_bounded", not rep.flagged,
                                    headroom)]


def run_lyapunov(cfg: Config):
    scheme, prm, seed = _common(cfg)
    tau = _step("tau", cfg.num("tau", 2.0**-8), scheme, prm)
    n_draws = cfg.integer("n_draws", 100000, minimum=2)
    # The batch, its step and the step kernels' work arrays.
    _fits(("n_draws",), 64 * n_draws)
    states = [State(p, q) for p, q in
              cfg.pairs("states", [[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])]
    if scheme.map_kind not in analysis.CONSERVATIVE_KINDS:
        raise ConfigError("config key 'scheme': lyapunov checks the "
                          f"conservative maps only, got {scheme.name!r}")
    cfg.reject_unread()
    records = analysis.lyapunov_check(scheme, prm, tau, states, n_draws,
                                      seed=seed)
    tables = {"lyapunov.csv": (
        ["p0", "q0", "mc_mean", "std_error", "bound", "margin", "passed"],
        ((r.state.p, r.state.q, r.mc_mean, r.std_error, r.bound, r.margin,
          "true" if r.passed else "false") for r in records))}
    worst = min(r.margin for r in records)
    return (tables, {"n_states": len(records), "worst_margin": worst},
            [_check("lyapunov_contraction", all(r.passed for r in records),
                    worst)])


def run_jacobian(cfg: Config):
    scheme, prm, seed = _common(cfg, scheme_default="sympl-euler", upsilon=2.0)
    tau = _step("tau", cfg.num("tau", 1e-4), scheme, prm)
    n_states = cfg.integer("n_states", 1000)
    n_draws = cfg.integer("n_draws", 100)
    _fits(("n_states",), 64 * n_states)  # as lyapunov's n_draws
    target = _target(prm, "tau", tau)
    cfg.reject_unread()
    rng = np.random.default_rng(seed)
    s = State(rng.uniform(-2, 2, n_states), rng.uniform(-2, 2, n_states))
    worst = np.zeros(n_states)
    for _ in range(n_draws):
        z = rng.standard_normal()
        det = analysis.jacobian_det(
            lambda x: scheme_step(x, tau, prm, scheme, z), s)
        worst = np.maximum(worst, np.abs(det / target - 1.0))
    tables = {"jacobian.csv": (["p", "q", "max_rel_err"],
                               zip(s.p, s.q, worst))}
    metrics = {"target_det": target, "max_rel_err": float(worst.max())}
    return tables, metrics, [_check("conformal_det", worst.max() <= 1e-6,
                                    1e-6 - float(worst.max()))]


def run_phase_area(cfg: Config):
    scheme, prm, seed = _common(cfg, scheme_default="sympl-euler", upsilon=2.0)
    tau, T, n_steps = _grid(cfg, scheme, prm, 1e-4, 1.0)
    _fits(("T", "tau"), 2 * (n_steps + 1))  # times, areas
    # Fewer than 3 vertices span no area.
    n_vertices = cfg.integer("n_vertices", 10000, minimum=3)
    n_records = cfg.integer("n_records", 1024)
    target = _target(prm, "T", T)
    cfg.reject_unread()
    times, areas = analysis.phase_area(scheme, prm, tau, T, n_vertices, seed)
    stride = max(1, len(times) // n_records)
    tables = {"phase_area.csv": (["t", "area"],
                                 zip(times[::stride], areas[::stride]))}
    ratio = areas[-1] / math.pi
    # Against the polygon's own initial area: an inscribed n-gon's is below pi.
    rel = abs(areas[-1] / areas[0] / target - 1.0)
    metrics = {"final_area": float(areas[-1]), "area_over_pi": float(ratio),
               "target": target, "rel_err": float(rel)}
    return tables, metrics, [_check("area_contraction", rel <= 1e-3,
                                    1e-3 - rel)]


def run_dissipation_demo(cfg: Config):
    _, prm, seed = _common(cfg, scheme_default=None)
    tau = cfg.num("tau", 2.0**-8)
    T = cfg.num("T", 1.0)
    # The dissipative check reads the curve from t = 0.2 on.
    n_steps = _valid(("T", "tau"), steps_for, T, tau)
    if n_steps * tau < 0.2:
        raise ConfigError(f"config key 'T': {T:g} ends before the check "
                          "time 0.2")
    for build in (OUIncrement.from_params, naive_increment):
        _valid(("upsilon", "tau"), build, prm, tau)
    n_paths = cfg.integer("n_paths", 20000)
    plan = _plan(n_paths)
    # Each chunk's three folds of two curves, their merge, the times, and
    # the means, variances and standard errors.
    _fits(("T", "tau", "n_paths"), (6 * plan["n_chunks"] + 13) * (n_steps + 1))
    initial = _initial(cfg, q=2.0)
    cfg.reject_unread()
    curves = analysis.h0_dissipation_compare(prm, tau, T, initial, n_paths,
                                             SeedPolicy(seed))
    tables = {"dissipation.csv": (
        ["t", "h0_naive", "h0_naive_se", "h0_dissipative",
         "h0_dissipative_se"],
        zip(curves.times, curves.naive_mean, curves.naive_se,
            curves.dissipative_mean, curves.dissipative_se))}
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
               **plan}
    return tables, metrics, [
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


class NonFiniteMetric(Exception):
    """A metric or check margin that strict JSON cannot hold: a bug."""


def _error_record(kind, exc):
    record = {"type": kind, "message": str(exc)}
    for attr in ("step_index", "path_index", "iterations", "residual"):
        val = getattr(exc, attr, None)
        if val is not None:
            record[attr] = val
    return json.dumps({"error": record}, default=float)


def _write_run(outdir: Path, summary: dict, tables: dict):
    """Write the tables' CSVs under the summary's config record, then
    ``summary.json``.  A failure removes what was written."""
    figures = {**summary["metrics"], **{
        f"margin of {c['name']}": c["margin"] for c in summary["checks"]}}
    non_finite = [name for name, val in figures.items()
                  if isinstance(val, (float, np.floating))
                  and not math.isfinite(val)]
    if non_finite:
        raise NonFiniteMetric("not finite: " + ", ".join(non_finite))
    text = json.dumps(summary, indent=2, default=float, allow_nan=False)
    header = {key: json.dumps(val) for key, val in summary["config"].items()}
    written = []
    try:
        for name, (columns, rows) in tables.items():
            written.append(outdir / name)
            write_csv(written[-1], header, columns, rows)
        written.append(outdir / "summary.json")
        written[-1].write_text(text + "\n")
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):  # also one it could not make
                path.unlink()
        raise


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
        # No numpy warning: a non-finite state or figure has its own record.
        with np.errstate(all="ignore"):
            tables, metrics, checks = RECIPES[experiment](cfg)
            _write_run(outdir, {"experiment": experiment, "config": cfg.used,
                                "metrics": metrics, "checks": checks}, tables)
        print(json.dumps({"experiment": experiment, "metrics": metrics,
                          "checks": checks}, default=float, allow_nan=False))
    except ConfigError as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return 2
    except Exception as exc:
        # A numerical failure, or an error no check foresaw: a record, not a
        # traceback.  KeyboardInterrupt and SystemExit pass.
        print(_error_record(type(exc).__name__, exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
