"""Per-layer tracing from the benchmark's side of the program.

The tracer replaces each traced function of ``langsplit`` at every name a
caller resolves it by (module globals, the recipe table and the map-kind
table all hold their own reference), so spans are recorded without any
change to the program.  A span is (name, parent span, start, end); spans are
kept in flat arrays while the workload runs and are written out once at the
end.  A layer's self time is the duration of its spans minus the part their
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import re
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List

import numpy as np

LAYERS = ("model", "detflow", "stochflow", "splitting", "montecarlo",
          "experiments", "analysis", "cli")

# Traced functions of each layer module; methods are "Class.method".
TRACED = {
    "model": ["QuarticPotential.grad", "QuarticPotential.avg_grad",
              "QuarticPotential.avg_grad_db", "QuarticPotential.hess",
              "energy_H0", "energy_H", "gibbs_moments",
              "position_marginal_normalizer"],
    "detflow": ["conservative_step", "avf_step", "dg_step", "pavf_step",
                "sympl_euler_step", "newton_solve_2d"],
    "stochflow": ["OUIncrement.from_params", "OUIncrement.apply",
                  "FineWindow.__post_init__", "ou_substep_exact",
                  "ou_substep_coupled"],
    "splitting": ["scheme_step", "lie_trotter_step", "strang_step",
                  "simulate", "simulate_on_grid"],
    "montecarlo": ["SeedPolicy.path_seeds", "increment_matrix"],
    "experiments": ["stream_paths", "histogram_snapshots", "long_time_error",
                    "window_means"],
    "analysis": ["strong_error", "coupled_terminal_stats", "fit_order",
                 "linear_fit", "distribution_distance", "gibbs_bin_masses",
                 "distance_noise_floor", "require_finite"],
    "cli": ["main", "parse_config_file", "write_csv", "_order_recipe",
            "run_histogram", "run_strong_order", "run_long_time_error"],
}


class Tracer:
    """Span recorder; ``install`` wraps the traced functions, ``uninstall``
    puts the originals back so untraced rounds run the program untouched."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"langsplit.{name}")
                        for name in LAYERS}
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.newton_iterations = array("i")
        self.newton_fallbacks = 0
        self.increment_bytes: List[int] = []
        self._patches = []  # (owner, key, original, wrapper)

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent,
                                              self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def _newton(self, fn):
        # The real solver with its statistics switched on; callers get only
        # the state, as without tracing.
        def solve(residual, jacobian, guess, settings=None, return_info=False):
            args = (residual, jacobian, guess) + (
                () if settings is None else (settings,))
            out, info = fn(*args, return_info=True)
            self.newton_iterations.append(info["iterations"])
            self.newton_fallbacks += bool(info["fallback_used"])
            return (out, info) if return_info else out
        return solve

    def _increments(self, fn):
        def build(*args, **kwargs):
            out = fn(*args, **kwargs)
            # Computed from the shape (float64), not measured.
            self.increment_bytes.append(math.prod(out.shape) * 8)
            return out
        return build

    def _wrapper(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        if attr == "newton_solve_2d":
            fn = self._newton(fn)
        elif attr == "increment_matrix":
            fn = self._increments(fn)
        return self._span(name, fn)

    def install(self):
        targets = []  # (layer, attr, original function)
        for layer, attrs in TRACED.items():
            mod = self.modules[layer]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrapper(layer, attr, fn)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    self._patches.append((cls, meth, raw, wrapped))
                    setattr(cls, meth, wrapped)
                else:
                    targets.append((layer, attr, getattr(mod, attr)))
        # Every module global and every module-level dict entry that refers
        # to a traced function is a name some caller resolves.
        owners = []
        for mod in self.modules.values():
            owners.append(mod.__dict__)
            owners.extend(v for k, v in vars(mod).items()
                          if isinstance(v, dict) and not k.startswith("__"))
        for layer, attr, fn in targets:
            wrapped = self._wrapper(layer, attr, fn)
            for owner in owners:
                for key, val in list(owner.items()):
                    if val is fn:
                        self._patches.append((owner, key, fn, wrapped))
                        owner[key] = wrapped

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-span-name (self seconds, calls) over all recorded spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        size = len(self.names)
        own = np.bincount(name_id, weights=dur - covered, minlength=size)
        calls = np.bincount(name_id, minlength=size)
        out = {}
        for nid, name in enumerate(self.names):
            prev = out.get(name, (0.0, 0))
            out[name] = (prev[0] + float(own[nid]), prev[1] + int(calls[nid]))
        return out

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))


def layer_metrics(tracer: Tracer, traced_rounds: int, lane_steps: int,
                  import_s: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer metrics per round of the workload, as (value, unit)."""
    own = {layer: [0.0, 0] for layer in LAYERS}
    for name, (seconds, calls) in tracer.self_times().items():
        acc = own[name.split(".", 1)[0]]
        acc[0] += seconds
        acc[1] += calls
    out = {}
    for layer in LAYERS:
        seconds = own[layer][0] / traced_rounds
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.calls"] = (own[layer][1] / traced_rounds, "count")
        out[f"{layer}.ns_per_lane_step"] = (seconds / lane_steps * 1e9,
                                            "ns")
        out[f"{layer}.import_s"] = (import_s.get(layer, 0.0), "s")
    iters = list(tracer.newton_iterations)
    out["detflow.newton_solves"] = (len(iters) / traced_rounds, "count")
    out["detflow.newton_iterations_mean"] = (
        statistics.fmean(iters) if iters else 0.0, "count")
    out["detflow.newton_iterations_max"] = (max(iters, default=0), "count")
    out["detflow.fallback_solves"] = (tracer.newton_fallbacks / traced_rounds,
                                      "count")
    out["montecarlo.increment_bytes_max"] = (
        max(tracer.increment_bytes, default=0), "B")
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import seconds of each layer from ``python -X importtime`` output.

    A layer's import time is the self time of its module plus that of every
    module first imported beneath it that is not itself a layer (numpy,
    scipy and the standard library included), so the layers add up to the
    whole import without double counting.
    """
    nodes = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            nodes.append((len(m.group(3)), m.group(4), int(m.group(1))))
    out: Dict[str, float] = {}
    stack = []  # (depth, owning layer), walked parent-first
    for depth, name, self_us in reversed(nodes):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = stack[-1][1] if stack else None
        if name.split(".")[0] == "langsplit":
            # The package's own __init__ belongs to no layer.
            owner = name.split(".")[1] if "." in name else None
        if owner in LAYERS:
            out[owner] = out.get(owner, 0.0) + self_us * 1e-6
        stack.append((depth, owner))
    return out


def import_seconds(env: dict, repeats: int = 3) -> Dict[str, float]:
    """Median per-layer import time over fresh interpreters."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import langsplit.cli"],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {layer: statistics.median(r.get(layer, 0.0) for r in runs)
            for layer in LAYERS}
