"""Two sets of benchmark runs, and whether they agree within the bounds.

    python3 perfbench/compare.py collect A --runs 10 --first-seed 1
    python3 perfbench/compare.py collect B --runs 10 --first-seed 101
    python3 perfbench/compare.py report A B

``collect`` runs every workload (or those named by ``--workload``) once per
seed, interleaving workloads so that slow drift of the machine touches each
alike, and appends each result line to ``results/sets/<label>.jsonl``
beside the machine description.  ``report`` prints, per workload and
end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median), the change of the median in the
worse direction, and whether both stay within the metric's bound
(the spread of ``setup_s`` is not bounded); it also compares the share of
failed operations.  Exit code 1 if any pair disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = HERE / "results" / "sets"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True)
    numpy_v, scipy_v = proc.stdout.split()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_v, "scipy": scipy_v,
            "machine": platform.machine()}


def collect(args) -> int:
    bench = spec()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    SETS.mkdir(parents=True, exist_ok=True)
    path = SETS / f"{args.label}.jsonl"
    with open(path, "a") as fh:
        fh.write(json.dumps({"machine": machine(),
                             "started": time.strftime("%Y-%m-%dT%H:%M:%S")})
                 + "\n")
        for i in range(args.runs):
            seed = args.first_seed + i
            for name in names:
                cmd = [*bench["command"], "--workload", name, "--seed",
                       str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": name, "seed": seed,
                                     "run_wall_s": wall, **result}) + "\n")
                fh.flush()
                shown = ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in result["metrics"].items())
                print(f"{args.label} seed {seed} {name}: {shown} "
                      f"(correct {result['correct']}, run {wall:.1f} s)",
                      flush=True)
    return 0


def load(label: str) -> dict:
    runs = {}
    for line in (SETS / f"{label}.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if "workload" in rec:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(args) -> int:
    bench = spec()
    sets = [load(label) for label in args.labels]
    ok = True
    head = " / ".join(f"{lab}: median [q1, q3] spread" for lab in args.labels)
    print(f"{'workload':20} {'metric':18} {head}  worse-by  bound  agree")
    for w in bench["workloads"]:
        name = w["name"]
        if not all(name in s for s in sets):
            continue
        shares = [sum(r["failed"] for r in s[name])
                  / sum(r["attempted"] for r in s[name]) for s in sets]
        correct = all(r["correct"] for s in sets for r in s[name])
        for m in bench["end_to_end"]:
            stats = [summary([r["metrics"][m["name"]]["value"]
                              for r in s[name]]) for s in sets]
            cells = " / ".join(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {sp:.3f}"
                               for med, q1, q3, sp in stats)
            agree = all(st[3] <= m["bound"] or m["name"] == "setup_s"
                        for st in stats)
            worse = 0.0
            if len(stats) == 2:
                a, b = stats[0][0], stats[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                agree &= worse <= m["bound"]
            ok &= agree
            print(f"{name:20} {m['name']:18} {cells}  {worse:+.3f}  "
                  f"{m['bound']:.2f}  {'yes' if agree else 'NO'}")
        same = len(set(shares)) == 1
        ok &= same and correct
        print(f"{name:20} {'failed share':18} "
              + " / ".join(f"{s:.4f}" for s in shares)
              + f"  runs {[len(s[name]) for s in sets]}, all correct {correct}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run one set of runs")
    c.add_argument("label")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workload", action="append",
                   help="only this workload (repeatable)")
    r = sub.add_parser("report", help="compare one or two sets")
    r.add_argument("labels", nargs="+")
    args = parser.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    raise SystemExit(main())
