import json
import math

import pytest

from langsplit.cli import main, parse_config_file, _parse_number


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
    # step size beyond the conditioning bound for upsilon = 10
    code, _ = run_cli(tmp_path, "simulate",
                      "upsilon = 10\ntau = 0.5\nT = 1\n")
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"


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
        "tau_levels = 2^-5,2^-6,2^-7\nref_tau = 2^-9\nn_paths = 60\n"
        "slope_min = 0\nslope_max = 3\n", seed=7)
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
                        "tau = 1e-3\nT = 0.125\nn_vertices = 2000\n"
                        "rel_tol = 5e-3\n", seed=2)
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
        "bins_q = 10\nfinal_distance_max = 2\n", seed=8)
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
        "tau = 2^-6\nT = 24\nn_paths = 60\nburn_in = 4\nfit_t_max = 1.5\n",
        seed=9)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "plateau" in summary["metrics"]


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
])
def test_bad_config_value_is_exit_two(tmp_path, capsys, name, config_text):
    code, out = run_cli(tmp_path, name, config_text)
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "config"
    assert not (out / "summary.json").exists()
