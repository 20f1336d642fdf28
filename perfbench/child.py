"""One workload in one fresh interpreter (started by ``run.py``).

Times the set-up (from just before ``import langsplit`` to the first recipe
call), then runs whole rounds of the workload's recipes in-process through
``langsplit.cli.main`` until ``--seconds`` have passed, and writes a JSON
report.  With ``--setup-only`` it stops just before the first recipe call.
With ``--trace 1`` rounds alternate untraced and traced (U T T U ...), at
least one of each; the report then carries the per-layer metrics and the
spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

from workloads import WORKLOADS, round_lane_steps


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where traced spans go")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    ops = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    import langsplit
    import langsplit.cli
    src = Path(os.environ["LANGSPLIT_SRC"]).resolve()
    if src not in Path(langsplit.__file__).resolve().parents:
        raise ImportError(f"langsplit imported from {langsplit.__file__}, "
                          f"not from {src}")
    args.workdir.mkdir(parents=True, exist_ok=True)
    configs = []
    for j, op in enumerate(ops):
        path = args.workdir / f"op{j}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in op.config.items()))
        configs.append(path)
    setup_s = time.perf_counter() - t_import
    report = {"setup_s": setup_s}
    if args.setup_only:
        args.report.write_text(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    rounds, calls = [], []
    t_first = time.perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 4 in (1, 2)
        if traced:
            tracer.install()
        r_start = time.perf_counter()
        for j, cfg in enumerate(configs):
            out = args.workdir / f"r{k}" / f"op{j}"
            code = langsplit.cli.main(["--config", str(cfg), "--seed",
                                       str(args.seed), "--out", str(out)])
            calls.append({"round": k, "op": j, "code": code,
                          "out": str(out)})
        r_end = time.perf_counter()
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "wall_s": r_end - r_start})
        done = r_end - t_first >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break

    report.update({
        "rounds": rounds, "calls": calls, "recipe_wall_s": r_end - t_first,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        from tracing import import_seconds, layer_metrics
        walls = {flag: [r["wall_s"] for r in rounds if r["traced"] == flag]
                 for flag in (False, True)}
        n_traced = len(walls[True])
        metrics = layer_metrics(tracer, n_traced,
                                round_lane_steps(args.workload),
                                import_seconds(dict(os.environ)))
        metrics["trace.overhead_s"] = (
            sum(walls[True]) / n_traced
            - sum(walls[False]) / len(walls[False]), "s")
        report["layers"] = metrics
        tracer.save(args.spans)
        report["spans"] = str(args.spans)
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
