"""Reference costs of each layer at batch widths 1, 1024 and 65536.

    PYTHONPATH=src python3 perfbench/layers.py

Prints a Markdown table of ns per lane-step (one path advanced one step)
for each map kind and composition (``scheme_step`` with sampled noise), the
sampled and the path-coupled OU sub-step (8 fine cells per step, as in
criterion 12), ``QuarticPotential.grad``, ``SeedPolicy.path_seeds`` (per
path) and ``increment_matrix`` (per element, 256 fine cells per path).
Each figure is the median of five (three for the last two) timed loops of
at least 0.1 s.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from langsplit.model import PhysParams, State  # noqa: E402
from langsplit.montecarlo import SeedPolicy, increment_matrix  # noqa: E402
from langsplit.splitting import SchemeSpec, scheme_step  # noqa: E402
from langsplit.stochflow import (FineWindow, ou_substep_coupled,  # noqa: E402
                                 ou_substep_exact)

WIDTHS = (1, 1024, 65536)
SCHEMES = ("savf", "sdg", "spavf", "sympl-euler", "strang-savf", "strang-sdg",
           "strang-spavf", "strang-sympl-euler")
PRM = PhysParams(10.0, 1.0)
TAU = 2.0 ** -8


def per_call(fn, min_s=0.1, repeats=5) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` timed loops."""
    fn()
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= min_s:
            break
        loops *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times)


def rows():
    for width in WIDTHS:
        rng = np.random.default_rng(width)
        s = State(0.3 * rng.standard_normal(width),
                  0.6 * rng.standard_normal(width))
        z = rng.standard_normal(width)
        window = FineWindow(rng.standard_normal((8, width)) * np.sqrt(TAU / 8),
                            TAU / 8)
        for name in SCHEMES:
            spec = SchemeSpec.from_name(name)
            yield name, width, per_call(
                lambda: scheme_step(s, TAU, PRM, spec, z)) / width
        yield "ou-sampled", width, per_call(
            lambda: ou_substep_exact(s, TAU, PRM, z)) / width
        yield "ou-coupled", width, per_call(
            lambda: ou_substep_coupled(s, window, PRM, tau=TAU)) / width
        yield "grad", width, per_call(
            lambda: PRM.potential.grad(s.q)) / width
        seeds = SeedPolicy(7)
        yield "path_seeds (per path)", width, per_call(
            lambda: seeds.path_seeds(width), repeats=3) / width
        path_seeds = seeds.path_seeds(width)
        yield "increment_matrix (per element)", width, per_call(
            lambda: increment_matrix(256 * TAU / 8, TAU / 8, path_seeds),
            repeats=3) / (256 * width)


def main():
    table = {}
    for name, width, seconds in rows():
        table.setdefault(name, {})[width] = seconds * 1e9
    import scipy
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    print("| layer | " + " | ".join(f"width {w}" for w in WIDTHS) + " |")
    print("| --- |" + " ---: |" * len(WIDTHS))
    for name, by_width in table.items():
        print(f"| {name} | "
              + " | ".join(f"{by_width[w]:,.0f}" for w in WIDTHS) + " |")


if __name__ == "__main__":
    main()
