import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import langsplit
from langsplit import analysis, montecarlo
from langsplit.cli import (RECIPES, main, msd_approach, parse_config_file,
                           _parse_number)

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


def test_phase_area_recipe_small(tmp_path):
    code, out = run_cli(tmp_path, "phase-area",
                        "tau = 1e-3\nT = 0.125\nn_vertices = 2000\n", seed=2)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    target = math.exp(-2.0 * 0.125)
    assert summary["metrics"]["area_over_pi"] == pytest.approx(target, rel=5e-3)
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
        "tau = 2^-6\nT = 24\nn_paths = 60\nfit_t_max = 1.5\n",
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
])
def test_bad_config_value_is_exit_two(tmp_path, capsys, name, config_text):
    code, out = run_cli(tmp_path, name, config_text)
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "config"
    assert not (out / "summary.json").exists()
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
    "msd": "tau = 2^-6\nT = 4\nn_paths = 20\nfit_t_min = 0.1\n"
           "fit_t_max = 1\n",
    "exp-moment": "tau = 2^-8\nT = 0.25\nn_paths = 64\n",
    "lyapunov": "n_draws = 500\nstates = 0,0;1,1\n",
    "jacobian": "n_states = 20\nn_draws = 3\n",
    "phase-area": "tau = 2^-10\nT = 2^-4\nn_vertices = 500\n",
    "dissipation-demo": "tau = 2^-7\nT = 0.25\nn_paths = 200\n",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", RECIPES)
def test_summary_is_strict_json(tmp_path, name):
    # json.dump writes NaN and Infinity, which no strict JSON parser reads.
    code, out = run_cli(tmp_path, name, SMALL_CONFIGS[name], seed=3)
    assert code == 0
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
        "msd": "tau = 2^-6\\nT = 4\\nn_paths = 20\\nfit_t_min = 0.1\\n"
               "fit_t_max = 1\\n",
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
    cfg = ("times = 0,0.25\nn_paths = 300\ntau = 2^-6\nbins_p = 10\n"
           "bins_q = 10\n")
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        code, out = run_cli(tmp_path / str(workers), "histogram", cfg, seed=8)
        assert code == 0
        metrics = json.loads((out / "summary.json").read_text())["metrics"]
        assert (metrics.pop("workers"), metrics.pop("n_chunks")) == (workers, 5)
        runs[workers] = (metrics, csv_body(out / "histogram_t0.25.csv"))
    assert runs[1] == runs[2]


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
    def recipe(cfg, outdir):
        cfg.reject_unread()
        return {"fine": 1.0, "broken": float("nan")}, [
            {"name": "bounded", "pass": False, "margin": -math.inf}]

    monkeypatch.setitem(RECIPES, "simulate", recipe)
    code, out = run_cli(tmp_path, "simulate", "")
    assert code == 1
    record = json.loads(capsys.readouterr().err)["error"]
    assert record["type"] == "NonFiniteMetric"
    assert "broken" in record["message"] and "fine" not in record["message"]
    assert "margin of bounded" in record["message"]
    assert not (out / "summary.json").exists()
