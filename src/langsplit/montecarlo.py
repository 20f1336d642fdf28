"""Reproducible path generation: step counts, path chunks and noise draws.

Per-path randomness is derived by hashing (master seed, path index) into an
independent stream, so any subset of paths can be regenerated in any order
with identical results.  Every experiment counts its steps with
:func:`steps_for`, walks its ensemble with :func:`path_chunks` and draws its
noise with :func:`path_noise` (sampled runs) or :func:`increment_matrix`
(path-coupled runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import NonIntegralGrid

__all__ = [
    "SeedPolicy",
    "steps_for",
    "path_chunks",
    "path_noise",
    "increment_matrix",
]

# Number of per-path draws pulled from each generator at a time.  Any value
# gives identical results (per-path streams are consumed in time order);
# this only bounds memory.
_NOISE_BLOCK = 4096


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based per-path seeding.

    ``path_seed(i)`` is a pure hash of (master_seed, i); distinct indices
    give statistically independent streams and the mapping never depends on
    call order.
    """

    master_seed: int

    def path_seed(self, path_index: int) -> int:
        ss = np.random.SeedSequence((self.master_seed, path_index))
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def path_seeds(self, n_paths: int, start: int = 0) -> np.ndarray:
        return np.array([self.path_seed(i) for i in range(start, start + n_paths)],
                        dtype=np.uint64)


def steps_for(T: float, tau: float, error: type = ValueError,
              minimum: int = 0) -> int:
    """Number of steps of size ``tau`` that tile ``[0, T]`` exactly.

    Raises ``error`` unless ``T`` is an integer multiple of ``tau`` (to a
    relative 1e-9) of at least ``minimum`` steps.
    """
    n = int(round(T / tau)) if tau > 0 else -1
    if n < minimum or abs(n * tau - T) > 1e-9 * max(abs(T), tau):
        raise error(f"{T:g} is not an integer multiple of the step {tau:g}")
    return n


def path_chunks(n_paths: int, chunk: int,
                seeds: SeedPolicy) -> Iterator[Tuple[int, np.ndarray]]:
    """Consecutive batches of at most ``chunk`` paths, as ``(first, seeds)``.

    ``first`` is the ensemble index of the batch's first path; every path
    keeps the seed of its index, whatever the chunk size.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    for first in range(0, n_paths, chunk):
        yield first, seeds.path_seeds(min(chunk, n_paths - first), start=first)


def path_noise(seed, n_steps: int) -> Iterator:
    """Standard normal draws for ``n_steps`` steps, one item per step.

    ``seed`` is one int, whose stream every lane shares (items are scalars),
    or a sequence of per-path seeds (items are rows holding each path's
    next draw).  Draws are pulled ``_NOISE_BLOCK`` steps at a time into one
    ``(block, width)`` buffer that is refilled in place, so a row is only
    valid until the next item is requested.
    """
    shared = np.ndim(seed) == 0
    rngs = [np.random.default_rng(s) for s in ([seed] if shared else seed)]
    buf = np.empty((min(_NOISE_BLOCK, n_steps), len(rngs)))
    for start in range(0, n_steps, _NOISE_BLOCK):
        rows = buf[:min(_NOISE_BLOCK, n_steps - start)]
        for i, rng in enumerate(rngs):
            rows[:, i] = rng.standard_normal(len(rows))
        yield from (rows[:, 0] if shared else rows)


def increment_matrix(T: float, tau_f: float,
                     path_seeds: Sequence[int]) -> np.ndarray:
    """Fine Wiener increments spanning ``[0, T]``, shape ``(n_fine, n_paths)``.

    Column ``i`` holds N(0, tau_f) draws from the stream of
    ``path_seeds[i]`` in time order, so each path's grid is regenerated bit
    for bit from its seed alone.

    Raises
    ------
    NonIntegralGrid
        If ``T`` is not a positive integer multiple of ``tau_f``.
    """
    n = steps_for(T, tau_f, NonIntegralGrid, minimum=1)
    out = np.empty((n, len(path_seeds)))
    root = np.sqrt(tau_f)
    for i, s in enumerate(path_seeds):
        out[:, i] = np.random.default_rng(s).standard_normal(n) * root
    return out
