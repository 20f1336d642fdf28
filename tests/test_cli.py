import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import langsplit
import langsplit.cli
from langsplit import analysis, experiments, montecarlo
from langsplit.cli import (RECIPES, Config, ConfigError, main, msd_approach,
                           parse_config_file, write_csv, _parse_number)

from helpers import no_child_left


def run_cli(tmp_path, name, config_text, seed=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    argv = ["--experiment", name, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(extra)
    code = main(argv)
    return code, out


def csv_body(path):
    """CSV content with the timestamp line stripped."""
    lines = path.read_text().splitlines(keepends=True)
    return "".join(l for l in lines if not l.startswith("# generated:"))


def test_parse_number_power_tokens():
    assert _parse_number("2^-10") == 2.0**-10
    assert _parse_number("1e-4") == 1e-4
    assert _parse_number(" 0.5 ") == 0.5


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nscheme = savf\n\ntau = 2^-6\n")
    entries = parse_config_file(str(cfg))
    assert entries == {"scheme": "savf", "tau": "2^-6"}


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("this is not a key value line\n")
    code = main(["--experiment", "simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "config"


def test_unknown_experiment(tmp_path, capsys):
    code = main(["--experiment", "frobnicate", "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert "unknown experiment" in record["error"]["message"]


def test_missing_experiment(tmp_path, capsys):
    code = main(["--out", str(tmp_path)])
    assert code == 2


def test_numerical_failure_is_exit_one(tmp_path, capsys):
    # A valid config whose first step overflows: U'(1e120) is not finite.
    with np.errstate(over="ignore"):
        code, _ = run_cli(tmp_path, "simulate",
                          "scheme = sympl-euler\ninitial_q = 1e120\n"
                          "tau = 2^-6\nT = 2^-5\n")
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "NonConvergence"
    assert record["error"]["step_index"] == 1


def test_simulate_zero_steps(tmp_path):
    code, out = run_cli(tmp_path, "simulate",
                        "tau = 2^-6\nT = 0\ninitial_p = 0.25\ninitial_q = -1\n")
    assert code == 0
    lines = [l for l in (out / "trajectory.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "t,p,q"
    assert len(lines) == 2  # header + the initial state only
    assert lines[1].startswith("0,0.25,-1")


def test_header_names_required_fields(tmp_path):
    code, out = run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.25\n", seed=5)
    text = (out / "trajectory.csv").read_text()
    for key in ("scheme", "upsilon", "sigma", "tau", "T", "seed"):
        assert f"# {key}:" in text
    assert "# generated:" in text


def test_reproducible_bodies(tmp_path):
    cfg = "tau = 2^-6\nT = 0.5\nupsilon = 10\n"
    _, out1 = run_cli(tmp_path / "a", "simulate", cfg, seed=11)
    _, out2 = run_cli(tmp_path / "b", "simulate", cfg, seed=11)
    assert csv_body(out1 / "trajectory.csv") == csv_body(out2 / "trajectory.csv")
    _, out3 = run_cli(tmp_path / "c", "simulate", cfg, seed=12)
    assert csv_body(out1 / "trajectory.csv") != csv_body(out3 / "trajectory.csv")


def test_strong_order_recipe(tmp_path):
    code, out = run_cli(
        tmp_path, "strong-order",
        "tau_levels = 2^-5,2^-6,2^-7\nref_tau = 2^-10\nn_paths = 40\n",
        seed=99)
    assert code == 0
    rows = [l for l in (out / "strong_order.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "tau,error,std_error"
    assert len(rows) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "strong-order"
    assert set(summary) == {"experiment", "config", "metrics", "checks"}
    assert 0.7 < summary["metrics"]["slope"] < 1.3
    for check in summary["checks"]:
        assert set(check) == {"name", "pass", "margin"}


def test_weak_order_recipe_smoke(tmp_path):
    code, out = run_cli(
        tmp_path, "weak-order",
        "tau_levels = 2^-5,2^-6,2^-7\nref_tau = 2^-9\nn_paths = 60\n", seed=7)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "slope" in summary["metrics"]


def test_lyapunov_recipe(tmp_path):
    code, out = run_cli(tmp_path, "lyapunov",
                        "n_draws = 2000\nstates = 0,0;1,1\n", seed=3)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["pass"] is True
    rows = [l for l in (out / "lyapunov.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "p0,q0,mc_mean,std_error,bound,margin,passed"
    assert len(rows) == 3
    assert all(row.endswith((",true", ",false")) for row in rows[1:])


def test_csv_rows_have_one_format(tmp_path):
    # Text as it is, integers in full, floats to 17 digits, in one format
    # per row; a bool is refused, not printed as 1.
    path = tmp_path / "t.csv"
    write_csv(path, {}, ["a", "b", "c"], [(0.1, np.int64(3), "true")])
    assert path.read_text().splitlines()[-1] == "0.10000000000000001,3,true"
    for flag in (True, np.bool_(False)):
        with pytest.raises(TypeError):
            write_csv(path, {}, ["a", "b"], [(0.1, flag)])


def test_phase_area_recipe_small(tmp_path):
    code, out = run_cli(tmp_path, "phase-area",
                        "tau = 1e-3\nT = 0.125\nn_vertices = 2000\n", seed=2)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    target = math.exp(-2.0 * 0.125)
    assert summary["metrics"]["area_over_pi"] == pytest.approx(target, rel=5e-3)
    assert summary["checks"][0]["pass"] is True


def test_phase_area_check_is_against_the_initial_polygon(tmp_path):
    # A 50-gon inscribed in the unit circle has area 0.9974 pi: measured
    # against pi, the exactly conformal contraction would be off by 2.7e-3.
    code, out = run_cli(tmp_path, "phase-area",
                        "tau = 2^-10\nT = 0.5\nn_vertices = 50\n", seed=1)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["rel_err"] < 1e-4
    assert summary["checks"][0]["pass"] is True


def test_dissipation_recipe_small(tmp_path):
    code, out = run_cli(tmp_path, "dissipation-demo",
                        "tau = 2^-7\nT = 0.5\nn_paths = 4000\n", seed=4)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(c["pass"] for c in summary["checks"])


def test_exp_moment_recipe_small(tmp_path):
    code, out = run_cli(tmp_path, "exp-moment",
                        "tau = 2^-8\nT = 0.25\nn_paths = 128\n", seed=5)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["pass"] is True
    rows = [l for l in (out / "exp_moment.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "t,estimate,max_exponent"


def test_jacobian_recipe_small(tmp_path):
    code, out = run_cli(tmp_path, "jacobian",
                        "n_states = 50\nn_draws = 5\n", seed=6)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["pass"] is True


def test_histogram_recipe_small(tmp_path):
    code, out = run_cli(
        tmp_path, "histogram",
        "times = 0,0.25\nn_paths = 400\ntau = 2^-6\nbins_p = 10\n"
        "bins_q = 10\n", seed=8)
    assert code == 0
    assert (out / "histogram_t0.csv").exists()
    assert (out / "histogram_t0.25.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "distance_t0" in summary["metrics"]
    assert summary["metrics"]["dropped_t0"] == 0
    assert summary["metrics"]["dropped_t0.25"] == 0
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["distance_decreasing"]["pass"] is True
    assert checks["final_window_holds_all"]["pass"] is True


def test_histogram_recipe_reports_dropped_samples(tmp_path):
    # p has sd 0.18 by t = 0.25 at upsilon = 15: a window of +-0.1 loses
    # most paths, which the noise floor does not allow for.
    code, out = run_cli(
        tmp_path, "histogram",
        "times = 0,0.25\nn_paths = 400\ntau = 2^-6\nbins_p = 10\n"
        "bins_q = 10\np_min = -0.1\np_max = 0.1\n", seed=8)
    assert code == 0
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert metrics["dropped_t0"] == 0
    assert 0 < metrics["dropped_t0.25"] < 400
    checks = {c["name"]: c for c in
              json.loads((out / "summary.json").read_text())["checks"]}
    assert checks["final_window_holds_all"]["pass"] is False
    assert checks["final_window_holds_all"]["margin"] == -metrics["dropped_t0.25"]


def test_msd_recipe_small(tmp_path):
    code, out = run_cli(
        tmp_path, "msd",
        "tau = 2^-6\nT = 24\nn_paths = 60\n",
        seed=9)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "plateau" in summary["metrics"]


def test_msd_approach_rejects_an_algebraic_approach():
    # The gate's grid and plateau (0.158), with white noise at the gate's
    # plateau noise level.  On its own derived window an algebraic approach
    # 1/(1+t) reaches a semilog r^2 near 0.9, so slope < 0 and r^2 > 0.9
    # alone accept some of these curves; the log-log fit then fits better.
    # An exponential approach at the gate's rate passes on every seed.
    times = np.arange(512 * 256 + 1) * 2.0**-8
    semilog_alone = 0
    for seed in range(20):
        noise = np.random.default_rng(seed).normal(0.0, 3e-3, times.size)
        for curve, exponential in ((1.0 / (1.0 + times), False),
                                   (np.exp(-0.05 * times), True)):
            msd = 0.158 * (1.0 - curve) + noise
            metrics, check = msd_approach(
                times, msd, analysis.msd_plateau(times, msd), 15.0)
            assert check["pass"] is exponential, (seed, metrics)
            if not exponential:
                semilog_alone += (metrics["equilibrium_rate"] < 0
                                  and metrics["fit_r_squared"] > 0.9)
    assert semilog_alone > 0


def test_ergodic_recipe_small(tmp_path):
    code, out = run_cli(
        tmp_path, "ergodic-average",
        "tau = 2^-6\nT = 48\nburn_in = 8\nn_seeds = 12\n", seed=10)
    assert code == 0
    rows = [l for l in (out / "ergodic_average.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "seed_index,avg_p2,avg_q4"
    assert len(rows) == 13
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["target_p2"] == pytest.approx(1 / 30, rel=1e-12)


def test_long_time_error_recipe_small(tmp_path):
    code, out = run_cli(
        tmp_path, "long-time-error",
        "tau = 2^-6\nref_tau = 2^-9\nT = 8\nn_paths = 12\nn_records = 32\n",
        seed=11)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "ratio" in summary["metrics"]


def test_workers_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.125\n",
                extra=["--workers", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("name, config_text", [
    ("strong-order", "n_paths = abc\n"),
    ("weak-order", "observable = bogus\n"),
    ("lyapunov", "states = 1,2;3\n"),
    ("strong-order", "tau_levels = 2^-5,x\n"),
    ("simulate", "seed = inf\n"),
    ("lyapunov", "n_draws = 2000.5\n"),
    ("strong-order", "n_paths = -4\n"),
    ("histogram", "n_paths = 0\n"),
    ("histogram", "bins_p = 0\n"),
    ("histogram", "bins_q = -1\n"),
    ("weak-order", "n_paths = 0\n"),
    ("ergodic-average", "n_seeds = 0\n"),
    ("lyapunov", "n_draws = 0\n"),
    ("jacobian", "n_states = 0\n"),
    ("jacobian", "n_draws = -1\n"),
    ("phase-area", "n_vertices = 0\n"),
    ("phase-area", "n_records = 0\n"),
    ("msd", "n_records = 0\n"),
    ("long-time-error", "n_records = -2\n"),
    ("dissipation-demo", "n_paths = 0\n"),
    ("exp-moment", "n_paths = -1\n"),
    ("simulate", "seed = -1\n"),
    ("simulate", "n_step = 3\n"),
    ("ergodic-average", "observable = bogus\n"),
    ("strong-order", "slope_min = 0\n"),
    ("simulate", "scheme = bogus\n"),
    ("simulate", "upsilon = -3\n"),
    ("simulate", "sigma = -1\n"),
    ("simulate", "tau = 0.5\n"),
    ("simulate", "T = 0.3\ntau = 2^-6\n"),
    ("strong-order", "tau_levels = 2^-6,0.003\n"),
    ("long-time-error", "T = 0.3\n"),
    ("lyapunov", "tau = 0\n"),
    ("jacobian", "tau = -1e-4\n"),
    ("strong-order", "tau_levels = 2^-6,2^-7\n"),
    ("weak-order", "tau_levels = 2^-6\n"),
    ("ergodic-average", "burn_in = 512\n"),
    ("ergodic-average", "burn_in = 8\nT = 4\n"),
    ("long-time-error", "T = 4\ntau = 2^-6\nref_tau = 2^-8\nn_records = 7\n"),
    ("long-time-error", "T = 1\ntau = 2^-3\n"),
    ("histogram", "times =\n"),
    ("histogram", "times = 2\n"),
    ("histogram", "times = 0,2,2\n"),
    ("histogram", "p_min = 1\n"),
    ("histogram", "q_max = -2\n"),
    ("histogram", "p_max = inf\n"),
    ("jacobian", "upsilon = inf\n"),
    ("lyapunov", "sigma = inf\n"),
    ("simulate", "sigma = nan\n"),
    ("histogram", "sigma = 0\n"),
    ("msd", "sigma = 0\n"),
    ("ergodic-average", "sigma = 0\n"),
    ("simulate", "T = inf\n"),
    ("simulate", "T = nan\n"),
    ("strong-order", "T = inf\n"),
    ("long-time-error", "T = inf\n"),
    ("ergodic-average", "T = inf\n"),
    ("ergodic-average", "burn_in = inf\n"),
    ("msd", "T = inf\n"),
    ("exp-moment", "T = inf\n"),
    ("phase-area", "T = inf\n"),
    ("dissipation-demo", "T = inf\n"),
    ("dissipation-demo", "tau = inf\n"),
    ("histogram", "times = 0,inf\n"),
    ("simulate", "initial_p = inf\n"),
    ("histogram", "initial_q = nan\n"),
    ("dissipation-demo", "initial_q = -inf\n"),
    ("lyapunov", "scheme = sympl-euler\n"),
    ("simulate", "tau = 2^2000\n"),
    ("simulate", "tau = -8^0.5\n"),
    ("lyapunov", "states = inf,0\n"),
    ("simulate", "tau = 2^-6\nT = 0.125\ntau = 2^-5\n"),
    ("strong-order", "n_paths = 1\n"),
    ("weak-order", "n_paths = 1\n"),
    ("ergodic-average", "n_seeds = 1\n"),
    ("lyapunov", "n_draws = 1\n"),
    ("strong-order", "tau_levels = 2^-4,2^-5,2^-5\nref_tau = 2^-8\nT = 0.25\n"
                     "n_paths = 20\n"),
    ("msd", "fit_t_min = 3\nfit_t_max = 1\n"),
    ("phase-area", "n_vertices = 2\n"),
    ("dissipation-demo", "T = 0.125\nn_paths = 100\n"),
    ("msd", "T = 0.5\nn_paths = 20\n"),
    ("simulate", "tau = 1e-300\n"),
    ("strong-order", "ref_tau = 1e-300\n"),
    ("strong-order", "sigma = 0\n"),
    ("weak-order", "sigma = 0\n"),
    # Model constants whose square, or whose Gibbs scale upsilon/(2 sigma^2),
    # is not a positive finite float.
    ("histogram", "sigma = 1e-300\n"),
    ("histogram", "sigma = 5e-324\n"),
    ("histogram", "upsilon = 5e-324\n"),
    ("msd", "sigma = 1e-300\n"),
    ("histogram", "sigma = 1e300\n"),
    ("ergodic-average", "sigma = 1e300\n"),
    ("exp-moment", "sigma = 1e300\n"),
    ("lyapunov", "sigma = 1e300\n"),
    # A friction so small that the sampled sub-step would lose its noise.
    ("simulate", "upsilon = 1e-14\n"),
    ("dissipation-demo", "upsilon = 1e-14\n"),
    ("exp-moment", "upsilon = 1e-14\n"),
    # A target that underflows below the smallest normal float.
    ("phase-area", "upsilon = 1e6\ntau = 2^-10\nT = 2^-4\n"
                   "n_vertices = 500\n"),
    ("jacobian", "upsilon = 1e300\nn_states = 10\nn_draws = 2\n"),
    # A noise amplitude whose square underflows, from the origin.
    ("strong-order", "sigma = 1e-300\ntau_levels = 2^-4,2^-5,2^-6\n"
                     "ref_tau = 2^-8\nT = 0.25\nn_paths = 20\n"),
    ("weak-order", "sigma = 1e-300\ntau_levels = 2^-4,2^-5,2^-6\n"
                   "ref_tau = 2^-8\nT = 0.25\nn_paths = 20\n"),
    # Counts past 2^53, and counts that size arrays past memory.
    ("histogram", "bins_p = 1e300\n"),
    ("lyapunov", "n_draws = 1e300\n"),
    ("jacobian", "n_draws = 1e300\nn_states = 2\n"),
    ("histogram", "bins_p = 2^53\n"),
    ("lyapunov", "n_draws = 2^53\n"),
    ("jacobian", "n_states = 2^53\nn_draws = 1\n"),
    # Horizons of more than 2^53 steps, which would run for ever.
    ("strong-order", "T = 1e300\nn_paths = 2\n"),
    ("long-time-error", "T = 1e15\nn_paths = 2\n"),
    ("histogram", "times = 0,1e300\n"),
    ("ergodic-average", "T = 1e300\n"),
])
def test_bad_config_value_is_exit_two(tmp_path, capsys, name, config_text):
    code, out = run_cli(tmp_path, name, config_text)
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "config"
    assert not out.exists() or not any(out.iterdir())
    # A bad value is named by its key, not blamed on the numerics.
    key = config_text.split("=")[0].strip()
    assert repr(key) in record["error"]["message"]


# A config of each recipe that runs in about a second.
SMALL_CONFIGS = {
    "simulate": "tau = 2^-6\nT = 0.25\n",
    "strong-order": "tau_levels = 2^-4,2^-5,2^-6\nref_tau = 2^-8\n"
                    "T = 0.25\nn_paths = 20\n",
    "weak-order": "tau_levels = 2^-4,2^-5,2^-6\nref_tau = 2^-8\nT = 0.25\n"
                  "n_paths = 20\n",
    "long-time-error": "tau = 2^-6\nref_tau = 2^-8\nT = 1\nn_paths = 8\n"
                       "n_records = 16\n",
    "ergodic-average": "tau = 2^-6\nT = 2\nburn_in = 1\nn_seeds = 4\n",
    "histogram": "times = 0,0.25\nn_paths = 100\ntau = 2^-6\nbins_p = 6\n"
                 "bins_q = 6\n",
    "msd": "tau = 2^-6\nT = 24\nn_paths = 60\n",
    "exp-moment": "tau = 2^-8\nT = 0.25\nn_paths = 64\n",
    "lyapunov": "n_draws = 500\nstates = 0,0;1,1\n",
    "jacobian": "n_states = 20\nn_draws = 3\n",
    "phase-area": "tau = 2^-10\nT = 2^-4\nn_vertices = 500\n",
    "dissipation-demo": "tau = 2^-7\nT = 0.25\nn_paths = 200\n",
}


@pytest.mark.parametrize("name, config_text, exit_code", [
    # The first step overflows in the maps, where numpy would warn.
    ("simulate", "tau = 2^-6\nT = 0.25\ninitial_q = 1e300\n", 1),
    ("phase-area", "upsilon = 1e6\ntau = 2^-10\nT = 2^-4\n"
                   "n_vertices = 500\n", 2),
    ("jacobian", "upsilon = 1e300\nn_states = 10\nn_draws = 2\n", 2),
])
def test_failed_run_writes_one_record_to_stderr(tmp_path, name, config_text,
                                                exit_code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    src = str(Path(langsplit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "langsplit.cli", "--experiment", name,
         "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == exit_code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "error" in json.loads(lines[0])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", RECIPES)
def test_summary_is_strict_json(tmp_path, capfd, name):
    # json.dump writes NaN and Infinity, which no strict JSON parser reads.
    # A successful run writes nothing to stderr (forked workers share its
    # descriptor), and a warning would be an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, name, SMALL_CONFIGS[name], seed=3)
    assert code == 0
    assert capfd.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["experiment"] == name


@pytest.mark.parametrize("name", RECIPES)
def test_unknown_key_is_rejected_before_any_work(tmp_path, capsys, name):
    # At the defaults every recipe would run for seconds to minutes; the
    # key check comes first, so no output of any kind is written.
    code, out = run_cli(tmp_path, name, "bogus_key = 1\n")
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert "'bogus_key'" in record["error"]["message"]
    assert not out.exists() or not any(out.iterdir())


def test_seed_zero_is_accepted(tmp_path):
    code, _ = run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.125\n",
                      seed=0)
    assert code == 0


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    def pool_modules():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("multiprocessing", "concurrent"))

    import langsplit, langsplit.cli
    assert not scipy_modules(), scipy_modules()[:3]
    assert not pool_modules(), pool_modules()[:3]
    out = Path(sys.argv[1])
    recipes = {
        "histogram": "times = 0,0.25\\nn_paths = 200\\ntau = 2^-6\\n"
                     "bins_p = 10\\nbins_q = 10\\n",
        "msd": "tau = 2^-6\\nT = 24\\nn_paths = 60\\n",
        "ergodic-average": "tau = 2^-6\\nT = 4\\nburn_in = 1\\nn_seeds = 4\\n",
    }
    for name, text in recipes.items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text)
        code = langsplit.cli.main(["--experiment", name, "--config", str(cfg),
                                   "--seed", "3", "--out", str(out / name)])
        assert code == 0, name
    assert not scipy_modules(), scipy_modules()[:3]
    # A run of several chunks on two workers forks them plainly.
    langsplit.montecarlo.PATH_CHUNK = 64
    langsplit.montecarlo.WORKERS = 2
    cfg = out / "chunks.cfg"
    cfg.write_text(recipes["histogram"])
    code = langsplit.cli.main(["--experiment", "histogram", "--config",
                               str(cfg), "--seed", "3", "--out",
                               str(out / "chunks")])
    assert code == 0
    assert not pool_modules(), pool_modules()[:3]
""")


_NO_POLYNOMIAL_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    import numpy as np

    def eigensolver(*args, **kwargs):
        raise AssertionError("a quadrature rule was built by an eigensolver")

    np.linalg.eigvalsh = np.linalg.eigh = eigensolver
    import langsplit.cli
    assert 'numpy.polynomial' not in sys.modules

    out = Path(sys.argv[1])
    cfg = out / "run.cfg"
    cfg.write_text(sys.argv[2])
    code = langsplit.cli.main(["--experiment", "histogram", "--config",
                               str(cfg), "--seed", "3", "--out",
                               str(out / "run")])
    assert code == 0
    assert 'numpy.polynomial' not in sys.modules
""")


def test_import_loads_no_numpy_polynomial(tmp_path):
    # The Gauss-Legendre rule of the Gibbs bin masses is a table: neither
    # importing the package nor a histogram run, which compares with the
    # Gibbs law, loads numpy.polynomial or runs an eigensolver.
    src = str(Path(langsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POLYNOMIAL_SCRIPT, str(tmp_path),
         SMALL_CONFIGS["histogram"]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_scipy_at_run_time(tmp_path):
    # The Gibbs oracles are closed forms: importing the package and running
    # the recipes that use them must not load scipy.  Nor does any run load
    # a process pool's modules, also one of several chunks on two workers.
    src = str(Path(langsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_LEAST_SQUARES_SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import numpy as np

    def general_solver(*args, **kwargs):
        raise AssertionError("a line was fitted by a general solver")

    np.linalg.lstsq = general_solver
    np.polyfit = general_solver
    import langsplit.cli

    out = Path(sys.argv[1])
    for name, text in json.loads(sys.argv[2]).items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text)
        code = langsplit.cli.main(["--experiment", name, "--config", str(cfg),
                                   "--seed", "3", "--out", str(out / name)])
        assert code == 0, name
""")


def test_line_fits_need_no_least_squares_solver(tmp_path):
    # The order and msd fits are closed forms: with numpy's least-squares
    # solvers made to raise, the recipes that fit lines still run.
    src = str(Path(langsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    configs = {name: SMALL_CONFIGS[name]
               for name in ("strong-order", "weak-order", "msd")}
    proc = subprocess.run([sys.executable, "-c", _NO_LEAST_SQUARES_SCRIPT,
                           str(tmp_path), json.dumps(configs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_unexpected_error_is_exit_one(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("no room for the run")

    monkeypatch.setitem(RECIPES, "simulate", exhausted)
    code, out = run_cli(tmp_path, "simulate", "")
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record == {"type": "MemoryError", "message": "no room for the run"}
    assert not any(out.iterdir())

    # An interrupt is no error of the run: it passes through.
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(RECIPES, "simulate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, "simulate", "")


_SIGTERM_SCRIPT = textwrap.dedent("""
    import os, sys
    from pathlib import Path

    import langsplit.cli
    from langsplit import montecarlo

    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            print(pid, flush=True)
        return pid

    os.fork = fork
    montecarlo.PATH_CHUNK = 64
    montecarlo.WORKERS = 2
    out = Path(sys.argv[1])
    cfg = out / "run.cfg"
    cfg.write_text("times = 0,64\\nn_paths = 4096\\ntau = 2^-8\\n")
    langsplit.cli.main(["--experiment", "histogram", "--config", str(cfg),
                        "--seed", "3", "--out", str(out / "run")])
""")


def test_sigterm_leaves_no_worker(tmp_path):
    # A histogram of 64 chunks on two forked workers, stopped by SIGTERM
    # once both exist: it kills them before it ends, as by SIGTERM.
    src = str(Path(langsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", _SIGTERM_SCRIPT,
                             str(tmp_path)], env=env, stdout=subprocess.PIPE,
                            text=True)
    workers = []
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]
        proc.send_signal(signal.SIGTERM)
        sent = time.monotonic()
        assert proc.wait(timeout=60) == -signal.SIGTERM
        time.sleep(max(0.0, sent + 2.0 - time.monotonic()))
        alive = []
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, 0)
                alive.append(pid)
        assert not alive
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_failure_in_a_pooled_chunk_exits_one(tmp_path, capsys, monkeypatch):
    # Path 149 of seed 1 diverges at step 49 (see test_analysis); in chunks
    # of 64 it lies in the third chunk, which a worker runs.
    monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
    monkeypatch.setattr(montecarlo, "WORKERS", 2)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(
            tmp_path, "histogram",
            "scheme = sympl-euler\nupsilon = 1\ntau = 2\ntimes = 0,100\n"
            "n_paths = 200\nbins_p = 10\nbins_q = 10\n", seed=1)
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "NonConvergence"
    assert (record["step_index"], record["path_index"]) == (49, 149)
    assert not (out / "summary.json").exists()
    no_child_left()


def test_summary_records_the_chunk_plan(tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
    studies = [
        ("histogram", "times = 0,0.25\nn_paths = 300\ntau = 2^-6\n"
                      "bins_p = 10\nbins_q = 10\n", "histogram_t0.25.csv", 5),
        # One chunk of sdg whose levels hold 126,976 lane-steps: at two
        # workers they run in a worker forked beside the reference.
        ("strong-order", "scheme = sdg\nn_paths = 64\n", "strong_order.csv",
         1),
    ]
    for name, cfg, csv, n_chunks in studies:
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "WORKERS", workers)
            code, out = run_cli(tmp_path / name / str(workers), name, cfg,
                                seed=8)
            assert code == 0
            metrics = json.loads((out / "summary.json").read_text())["metrics"]
            assert ((metrics.pop("workers"), metrics.pop("n_chunks"))
                    == (workers, n_chunks)), name
            runs[workers] = (metrics, csv_body(out / csv))
        assert runs[1] == runs[2], name


@pytest.mark.parametrize("name, config_text", [
    # A level at the reference's own step has error 0 by construction.
    ("strong-order", "tau_levels = 2^-6,2^-7,2^-8\nref_tau = 2^-8\nT = 0.25\n"
                     "n_paths = 8\n"),
    ("weak-order", "tau_levels = 2^-6,2^-7,2^-8\nref_tau = 2^-8\nT = 0.25\n"
                   "n_paths = 8\n"),
    # So does a long-time run at the reference's step.
    ("long-time-error", "tau = 2^-8\nref_tau = 2^-8\nT = 1\nn_paths = 4\n"),
])
def test_run_at_the_reference_step_is_exit_two(tmp_path, capsys, name,
                                               config_text):
    # These ran the whole study and then failed in the fit, or wrote an
    # infinite ratio; the ratio of at least 2 is checked before any work.
    code, out = run_cli(tmp_path, name, config_text, seed=3)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'ref_tau'" in message
    assert not out.exists() or not any(out.iterdir())


def test_long_time_error_without_early_error_has_no_ratio(tmp_path):
    # With sigma = 0 from the origin both runs stay at rest: the error is 0
    # throughout, and so is its first-decade mean.
    code, out = run_cli(tmp_path, "long-time-error",
                        "sigma = 0\ntau = 2^-6\nref_tau = 2^-8\nT = 1\n"
                        "n_paths = 4\nn_records = 16\n", seed=3)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["metrics"]["early_window_mean"] == 0.0
    assert summary["metrics"]["ratio"] is None
    assert summary["checks"][0]["pass"] is True


def test_exp_moment_overflow_is_measured_in_log_space(tmp_path):
    # From q = 9 the exponent c_e q^4 is 820 at t = 0: exp overflows, but
    # the envelope's log is 3396.5, so the paper's bound holds.
    code, out = run_cli(tmp_path, "exp-moment",
                        "tau = 2^-10\nT = 2^-6\nn_paths = 16\ninitial_q = 9\n",
                        seed=3)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    metrics = summary["metrics"]
    assert metrics["flagged"] is False
    # Every path starts at the same state: the mean of equal terms.
    assert metrics["log_max_estimate"] == 0.125 * 9.0 ** 4
    assert metrics["log_headroom"] == pytest.approx(
        metrics["envelope_log"] - metrics["log_max_estimate"], rel=1e-15)
    assert summary["checks"][0]["pass"] is True
    # The linear estimate keeps its column, overflowed where it overflows.
    rows = [l.split(",") for l in (out / "exp_moment.csv").read_text()
            .splitlines() if l and not l.startswith("#")][1:]
    assert rows[0][1] == "inf"


def test_non_finite_figure_exits_one_naming_it(tmp_path, capsys,
                                               monkeypatch):
    def recipe(cfg):
        cfg.reject_unread()
        tables = {"table.csv": (["x"], [(1.0,)])}
        return tables, {"fine": 1.0, "broken": float("nan")}, [
            {"name": "bounded", "pass": False, "margin": -math.inf}]

    monkeypatch.setitem(RECIPES, "simulate", recipe)
    code, out = run_cli(tmp_path, "simulate", "")
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "NonFiniteMetric"
    assert "broken" in record["message"] and "fine" not in record["message"]
    assert "margin of bounded" in record["message"]
    # Its tables were measured, but a failed run writes no file.
    assert not any(out.iterdir())


@pytest.mark.parametrize("name, step_key", [
    ("simulate", "tau"), ("dissipation-demo", "tau"), ("exp-moment", "tau"),
    ("histogram", "tau"), ("lyapunov", "tau"), ("strong-order", "ref_tau"),
    ("long-time-error", "tau"),
])
def test_small_friction_names_upsilon_and_its_step(tmp_path, capsys, name,
                                                   step_key):
    # 1 - exp(-upsilon tau) cancels to 0 at upsilon = 1e-14, tau = 2^-8:
    # simulate, dissipation-demo and exp-moment exited 0 with no noise.
    code, out = run_cli(tmp_path, name, "upsilon = 1e-14\n")
    assert code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'upsilon'" in message and f"'{step_key}'" in message
    assert not any(out.iterdir())


def _header(path):
    """The comment record of a recipe CSV, its timestamp line left out."""
    record = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, value = line[2:].split(": ", 1)
        if key != "generated":
            record[key] = json.loads(value)
    return record


# Every key each recipe reads, in reading order.
RECORD_KEYS = {
    "simulate": "scheme upsilon sigma seed tau T initial_p initial_q",
    "strong-order": "scheme upsilon sigma seed T tau_levels ref_tau n_paths "
                    "initial_p initial_q",
    "weak-order": "scheme upsilon sigma seed T tau_levels ref_tau n_paths "
                  "initial_p initial_q observable",
    "long-time-error": "scheme upsilon sigma seed tau T ref_tau n_paths "
                       "initial_p initial_q n_records",
    "ergodic-average": "scheme upsilon sigma seed tau T burn_in n_seeds "
                       "initial_p initial_q",
    "histogram": "scheme upsilon sigma seed tau times n_paths bins_p bins_q "
                 "p_min p_max q_min q_max initial_p initial_q",
    "msd": "scheme upsilon sigma seed tau T n_paths n_records initial_p "
           "initial_q",
    "exp-moment": "scheme upsilon sigma seed tau T n_paths initial_p "
                  "initial_q",
    "lyapunov": "scheme upsilon sigma seed tau n_draws states",
    "jacobian": "scheme upsilon sigma seed tau n_states n_draws",
    "phase-area": "scheme upsilon sigma seed tau T n_vertices n_records",
    "dissipation-demo": "upsilon sigma seed tau T n_paths initial_p "
                        "initial_q",
}


@pytest.mark.parametrize("name", RECIPES)
def test_one_record_heads_every_csv_and_the_summary(tmp_path, name):
    code, out = run_cli(tmp_path, name, SMALL_CONFIGS[name], seed=3)
    assert code == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert list(config) == ["experiment", *RECORD_KEYS[name].split()]
    assert config["experiment"] == name and config["seed"] == 3
    # Each value is the one the run used: a set entry parsed, a default
    # as it stands.
    for line in SMALL_CONFIGS[name].splitlines():
        key, value = (part.strip() for part in line.split("="))
        if key not in ("times", "tau_levels", "states"):
            assert config[key] == _parse_number(value), key
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for csv in csvs:
        assert list(_header(csv).items()) == list(config.items()), csv.name


def test_record_holds_defaults_names_and_lists(tmp_path):
    code, out = run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.25\n")
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config == {"experiment": "simulate", "scheme": "savf",
                      "upsilon": 10.0, "sigma": 1.0, "seed": 12345,
                      "tau": 2.0**-6, "T": 0.25, "initial_p": 0.0,
                      "initial_q": 0.0}
    code, out = run_cli(tmp_path, "lyapunov",
                        "scheme = sdg\nn_draws = 100\nstates = 1,2;-0.5,2^-2\n")
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["scheme"] == "sdg"
    assert config["states"] == [[1.0, 2.0], [-0.5, 0.25]]
    code, out = run_cli(tmp_path, "weak-order", SMALL_CONFIGS["weak-order"]
                        + "observable = p2\n")
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["tau_levels"] == [2.0**-4, 2.0**-5, 2.0**-6]
    assert config["observable"] == "p2"
    # A message that quotes an entry leaves the record of its value.
    cfg = Config({"experiment": "histogram", "times": "2"})
    with pytest.raises(ConfigError, match="got '2'"):
        RECIPES["histogram"](cfg)
    assert cfg.used["times"] == [2.0]


def test_failed_run_writes_no_file(tmp_path, capsys):
    # At T = 1 the fit window holds fewer than 3 points: the run fails after
    # its paths have run, and its msd.csv was once left behind.
    code, out = run_cli(tmp_path, "msd", "T = 1\nn_paths = 2\n", seed=3)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == \
        "EmptyWindow"
    assert out.is_dir() and not any(out.iterdir())


def test_failed_write_removes_what_it_wrote(tmp_path, capsys, monkeypatch):
    def rows():
        yield (1.0,)
        raise OSError("disk full")

    def recipe(cfg):
        cfg.reject_unread()
        tables = {"first.csv": (["x"], [(1.0,)]),
                  "second.csv": (["x"], rows())}
        return tables, {"fine": 1.0}, []

    monkeypatch.setitem(RECIPES, "simulate", recipe)
    code, out = run_cli(tmp_path, "simulate", "")
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record == {"type": "OSError", "message": "disk full"}
    assert not any(out.iterdir())


def test_summary_write_error_is_a_record(tmp_path, capsys):
    # summary.json is a directory: its write fails inside the run's error
    # handling, the CSV written before it is removed, the directory stays.
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    code, out = run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.25\n")
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "IsADirectoryError"
    assert [p.name for p in out.iterdir()] == ["summary.json"]


class RunStarted(Exception):
    """A recipe reached its driver: its pre-flight checks passed."""


@pytest.fixture
def drivers_on_eight_gib(monkeypatch):
    """Every recipe's driver raises :class:`RunStarted`, on a box that
    reports 8 GiB of physical memory."""
    def no_work(*args, **kwargs):
        raise RunStarted("the run started")

    for module, attr in [(langsplit.cli, "simulate"),
                         (analysis, "strong_error"), (analysis, "weak_error"),
                         (experiments, "long_time_error"),
                         (experiments, "ergodic_averages"),
                         (experiments, "histogram_snapshots"),
                         (experiments, "msd_experiment"),
                         (analysis, "exp_moment_monitor"),
                         (analysis, "lyapunov_check"),
                         (analysis, "jacobian_det"),
                         (analysis, "phase_area"),
                         (analysis, "h0_dissipation_compare")]:
        monkeypatch.setattr(module, attr, no_work)
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}.get(name)
        or sysconf(name))


@pytest.mark.parametrize("name, config_text, keys", [
    ("simulate", "T = 1e12\n", ("T", "tau")),
    ("simulate", "tau = 1e-12\n", ("tau",)),
    ("strong-order", "ref_tau = 1e-12\nn_paths = 20\n", ("ref_tau",)),
    ("strong-order", "tau_levels = 2^-4,2^-5,2^-6\nref_tau = 2^-24\n"
                     "T = 0.25\nn_paths = 2000\n",
     ("tau_levels", "ref_tau", "n_paths")),
    ("weak-order", "tau_levels = 2^-4,2^-5,2^-6\nref_tau = 2^-24\n"
                   "T = 0.25\nn_paths = 2000\n",
     ("tau_levels", "ref_tau", "n_paths")),
    ("long-time-error", "tau = 2^-4\nref_tau = 2^-24\nT = 2\nn_paths = 2048\n",
     ("tau", "ref_tau", "n_paths")),
    ("msd", "tau = 1e-12\n", ("tau",)),
    ("msd", "T = 1e12\n", ("T", "tau", "n_paths")),
    ("exp-moment", "T = 1e6\nn_paths = 20\n", ("T", "tau", "n_paths")),
    ("phase-area", "T = 1e12\n", ("T", "tau")),
    ("dissipation-demo", "T = 1e9\n", ("T", "tau", "n_paths")),
    # Runs whose arrays fit but whose lane-steps exceed 2^40, days of work.
    ("strong-order", "T = 1e12\nn_paths = 2\n",
     ("T", "tau_levels", "ref_tau", "n_paths")),
    ("weak-order", "T = 1e12\nn_paths = 2\n",
     ("T", "tau_levels", "ref_tau", "n_paths")),
    ("long-time-error", "T = 1e12\n", ("T", "tau", "ref_tau", "n_paths")),
    ("ergodic-average", "T = 1e12\n", ("T", "tau", "n_seeds")),
    ("histogram", "times = 0,1e12\n", ("times", "tau", "n_paths")),
    ("jacobian", "n_states = 2\nn_draws = 2^53\n", ("n_states", "n_draws")),
    ("phase-area", "T = 1e4\nn_vertices = 100000\n",
     ("T", "tau", "n_vertices")),
    # Arrays that went uncounted: a histogram grid per snapshot in each of
    # 512 chunks (122 GiB), the per-seed sums of 2^30 seeds (48 GiB), and a
    # polygon of 2^33 vertices (4,100 GiB).
    ("histogram", "n_paths = 1048576\nbins_p = 4000\nbins_q = 4000\n"
                  "times = 0,2^-8\n", ("n_paths", "bins_p", "bins_q")),
    ("ergodic-average", "n_seeds = 1073741824\nT = 2^-7\nburn_in = 2^-8\n",
     ("n_seeds",)),
    ("phase-area", "n_vertices = 8589934592\nT = 2^-4\ntau = 2^-10\n",
     ("n_vertices",)),
])
def test_oversized_run_is_exit_two_before_any_work(tmp_path, capsys,
                                                   drivers_on_eight_gib, name,
                                                   config_text, keys):
    # These once ended in a MemoryError after asking for TiB, were killed
    # once their overcommitted arrays were touched, or ran for days.  On a
    # box of 8 GiB they exit 2 before any work: the drivers fail if reached.
    code, out = run_cli(tmp_path, name, config_text)
    assert code == 2
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "config"
    assert all(repr(key) in record["message"] for key in keys)
    assert not any(out.iterdir())


# Edge values of a key: zero, a negative, a tiny normal and the least
# subnormal float, a huge float, a small step, an integer past 2^53 and a
# large count.
EDGE_VALUES = (0.0, -1.0, 1e-300, 5e-324, 1e300, 1e-12, 2.0**-20,
               2.0**53 + 2, 1e6)


def _with_edge(used, x):
    """The config text of a key whose run used ``used``, set to the edge
    value ``x``; a list takes ``x`` as its last entry (a pair as both)."""
    if not isinstance(used, list):
        return repr(x)
    if isinstance(used[-1], list):
        return ";".join(f"{p!r},{q!r}" for p, q in [*used[:-1], [x, x]])
    return ",".join(map(repr, [*used[:-1], x]))


@pytest.mark.parametrize("name", RECIPES)
def test_every_edge_value_is_refused_or_starts_the_run(tmp_path, capsys,
                                                       drivers_on_eight_gib,
                                                       name):
    # Pre-flight as a property.  Each key the recipe reads (its record,
    # Config.used), one at a time at each edge value on top of its small
    # config, either exits 2 with one config record or reaches the driver:
    # no other error, no traceback and no file.
    entries = dict(line.split(" = ")
                   for line in SMALL_CONFIGS[name].splitlines())
    cfg = Config({"experiment": name, **entries})
    with pytest.raises(RunStarted):
        RECIPES[name](cfg)
    for key, used in list(cfg.used.items())[1:]:
        for x in EDGE_VALUES:
            edged = {**entries, key: _with_edge(used, x)}
            config_text = "".join(f"{k} = {v}\n" for k, v in edged.items())
            code, out = run_cli(tmp_path, name, config_text)
            lines = capsys.readouterr().err.splitlines()
            case = (key, x, lines)
            assert len(lines) == 1, case
            kind = json.loads(lines[0])["error"]["type"]
            assert (code, kind) in {(2, "config"), (1, "RunStarted")}, case
            assert not out.exists() or not any(out.iterdir()), case


def test_size_check_needs_a_memory_figure(tmp_path, monkeypatch):
    # Where the system gives no figure for physical memory, nothing is
    # rejected for its size.
    monkeypatch.delattr(os, "sysconf")
    code, _ = run_cli(tmp_path, "simulate", "tau = 2^-6\nT = 0.25\n")
    assert code == 0


def test_noise_free_study_has_no_level_snr(tmp_path):
    # Every path of a noise-free study is one path: a level's standard error
    # is 0, and the ratio of error to standard error is undefined (null),
    # without numpy's division warning.
    script = textwrap.dedent("""
        import json, sys, warnings
        from pathlib import Path
        warnings.simplefilter("error", RuntimeWarning)
        import langsplit.cli
        out = Path(sys.argv[1])
        cfg = out / "run.cfg"
        cfg.write_text("sigma = 0\\ninitial_q = 1\\n"
                       "tau_levels = 2^-4,2^-5,2^-6\\nref_tau = 2^-8\\n"
                       "T = 0.25\\nn_paths = 20\\n")
        code = langsplit.cli.main(["--experiment", "strong-order", "--config",
                                   str(cfg), "--out", str(out / "o")])
        assert code == 0
        summary = json.loads((out / "o" / "summary.json").read_text())
        assert summary["metrics"]["min_level_snr"] is None
    """)
    src = str(Path(langsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not proc.stderr
