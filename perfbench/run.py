"""Benchmark entry point: one workload, one master seed, one result line.

    python3 perfbench/run.py --workload coupled-order --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``child.py``) on the ``langsplit`` found in ``src/`` of that checkout, with
single-threaded BLAS.  Every recipe output is then checked by the oracles in
``oracles.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit
code 0 with a result, 1 without one (the program could not be run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from oracles import csv_body
from workloads import WORKLOADS, round_lane_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # fresh interpreters whose set-up time is the median


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LANGSPLIT_WORKERS", None)
    env.update({"PYTHONPATH": str(ROOT / "src"),
                "LANGSPLIT_SRC": str(ROOT / "src"),
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def run_child(args, workdir: Path, extra=()) -> dict:
    """Run ``child.py`` to its end and return its report."""
    report = workdir / "report.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--report", str(report), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0 or not report.is_file():
        raise RuntimeError(f"workload process failed (exit {proc.returncode}):"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(report.read_text())


def check_calls(workload: str, calls) -> tuple:
    """(failed, check tallies, all correct) over every recipe call.

    A call that exits non-zero has failed.  A call that succeeded must pass
    every oracle check, and its CSV bodies must equal those of the same
    recipe in the first round (every round repeats the same inputs).
    """
    ops = WORKLOADS[workload]
    failed, tallies, cache, first = 0, {}, {}, {}
    for call in calls:
        op, out = ops[call["op"]], Path(call["out"])
        if call["code"] != 0:
            failed += 1
            continue
        try:
            results = dict(op.check(out, cache))
        except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
            results = {"outputs_readable": (False, repr(exc))}
        bodies = [csv_body(out / name) for name in op.outputs
                  if (out / name).is_file()]
        same = first.setdefault(call["op"], bodies) == bodies
        results["same_bodies_every_round"] = (same, "CSV bodies")
        for name, (passed, detail) in results.items():
            tally = tallies.setdefault(f"{op.name}.{name}", [0, 0, detail])
            tally[0 if passed else 1] += 1
            if not passed:
                tally[2] = detail
    correct = all(t[1] == 0 for t in tallies.values())
    return failed, tallies, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "langsplit" / "__init__.py").is_file():
        print(f"no langsplit package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workdir = RESULTS / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        spans = RESULTS / f"spans-{args.workload}.npz"
        report = run_child(args, workdir / "main",
                           ["--spans", str(spans)] if args.trace else [])
        failed, tallies, correct = check_calls(args.workload, report["calls"])
        n_rounds = len(report["rounds"])
        if args.trace:
            metrics = report["layers"]
        else:
            setups = [report["setup_s"]] + [
                run_child(args, workdir / f"setup{i}", ["--setup-only"])
                ["setup_s"] for i in range(1, SETUP_SAMPLES)]
            metrics = {
                "lane_steps_per_s": (n_rounds * round_lane_steps(args.workload)
                                     / report["recipe_wall_s"], "1/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(report["calls"])
    print(f"workload {args.workload}, seed {args.seed}: {n_rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (passes, fails, detail) in sorted(tallies.items()):
        state = "PASS" if not fails else "FAIL"
        print(f"  check {name}: {state} {passes}/{passes + fails} ({detail})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
