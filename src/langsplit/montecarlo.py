"""Reproducible path generation: step counts, path chunks and noise draws.

Per-path randomness is derived by hashing (master seed, path index) into an
independent stream, so any subset of paths can be regenerated in any order
with identical results.  Every experiment counts its steps with
:func:`steps_for`, runs its ensemble in path chunks with :func:`map_chunks`
and draws its noise with :func:`path_noise` (sampled runs) or
:func:`increment_matrix` (path-coupled runs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

from .errors import NonConvergence, NonIntegralGrid

__all__ = [
    "PATH_CHUNK",
    "WORKERS",
    "SeedPolicy",
    "steps_for",
    "chunk_plan",
    "map_chunks",
    "path_noise",
    "increment_matrix",
]

# Number of per-path draws pulled from each generator at a time.  Any value
# gives identical results (per-path streams are consumed in time order).
# A short block keeps the (block, width) buffer small: at width 2048 it is
# 16 MiB instead of 64 MiB at 4096 rows, and a sampled savf step measured
# ~91 against ~100 ns per lane-step (2-core x86_64, numpy 2.4).
_NOISE_BLOCK = 1024

# Number of generators whose draws are staged together.  Each one fills a
# contiguous row of a (tile, block) scratch array (512 KiB at 64 rows), and
# the tile is copied transposed into the buffer's columns: at width 2048 this
# measured 29-33 against 46 ns per draw for one strided column per path
# (2-core x86_64, numpy 2.4).  Transposing a whole block instead would add
# a second block-sized buffer.
_NOISE_TILE = 64

# Paths every ensemble driver advances together.  It is the one chunking of
# every run, and so the grain of every sum over paths: a result depends on
# config and seed alone.  A sampled chunk's noise block is 16 MiB; 1024-path
# chunks ran a 4096-path histogram ~20% slower (2-core x86_64, numpy 2.4).
PATH_CHUNK = 2048

# Processes a run of several chunks spreads them over: the cores this
# process may run on, measured once.  The bits of a result do not depend on
# it (see :func:`map_chunks`).
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_R = TypeVar("_R")


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


def steps_for(T: float, tau: float, minimum: int = 0) -> int:
    """Number of steps of size ``tau`` that tile ``[0, T]`` exactly.

    Raises :class:`NonIntegralGrid` unless ``T`` is an integer multiple of
    ``tau`` (to a relative 1e-9) of at least ``minimum`` steps.
    """
    n = int(round(T / tau)) if tau > 0 else -1
    if n < minimum or abs(n * tau - T) > 1e-9 * max(abs(T), tau):
        raise NonIntegralGrid(
            f"{T:g} is not an integer multiple of the step {tau:g}")
    return n


def chunk_plan(n_paths: int) -> Tuple[int, int]:
    """``(workers, chunks)`` of a run of ``n_paths`` paths.

    The ensemble splits into chunks of ``PATH_CHUNK`` paths, spread over
    ``min(WORKERS, chunks)`` forked workers; a run of one chunk, or on a
    platform without ``fork``, has one worker, the calling process.
    """
    n_chunks = -(-n_paths // PATH_CHUNK)
    workers = min(WORKERS, n_chunks) if hasattr(os, "fork") else 1
    return max(workers, 1), n_chunks


# The chunk function of the run whose pool forked this process.  Workers
# inherit it through the fork, so no closure is ever pickled.
_work = None


def _adopt(chunk: Callable[[int], _R]) -> None:
    global _work
    _work = chunk


def _run_adopted(first: int):
    return _work(first)


def map_chunks(work: Callable[[np.ndarray], _R], n_paths: int,
               seeds: SeedPolicy) -> List[_R]:
    """``work(path_seeds)`` of each chunk of the ensemble, in order.

    Every path keeps the seed of its ensemble index, and a
    :class:`NonConvergence` leaves its chunk naming that index.  ``work``
    returns the chunk's partial result, and the caller folds the list in
    chunk order, so a result has the same bits for any number of workers.
    Chunks run on a pool of forked processes when :func:`chunk_plan` gives
    more than one worker, and in this process otherwise.  An exception of
    the first chunk that fails is raised, as in a run of the chunks in
    turn; no worker outlives the call.
    """
    def chunk(first: int) -> _R:
        try:
            return work(seeds.path_seeds(min(PATH_CHUNK, n_paths - first),
                                         start=first))
        except NonConvergence as exc:
            if exc.path_index is not None:
                exc.path_index += first
            raise

    firsts = range(0, n_paths, PATH_CHUNK)
    workers, _ = chunk_plan(n_paths)
    if workers < 2:
        return [chunk(first) for first in firsts]
    # Imported here: a run of one chunk never loads the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_adopt,
                             initargs=(chunk,)) as pool:
        futures = [pool.submit(_run_adopted, first) for first in firsts]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    block = min(_NOISE_BLOCK, n_steps)
    buf = np.empty((block, len(rngs)))
    tile = np.empty((min(_NOISE_TILE, len(rngs)), block))
    for start in range(0, n_steps, _NOISE_BLOCK):
        n = min(_NOISE_BLOCK, n_steps - start)
        rows = buf[:n]
        for first in range(0, len(rngs), _NOISE_TILE):
            group = rngs[first:first + _NOISE_TILE]
            for i, rng in enumerate(group):
                rng.standard_normal(out=tile[i, :n])
            rows[:, first:first + len(group)] = tile[:len(group), :n].T
        yield from (rows[:, 0] if shared else rows)


def increment_matrix(T: float, tau_f: float,
                     path_seeds: Sequence[int]) -> np.ndarray:
    """Fine Wiener increments spanning ``[0, T]``, shape ``(n_fine, n_paths)``.

    Column ``i`` holds N(0, tau_f) draws from the stream of
    ``path_seeds[i]`` in time order, so each path's grid is regenerated bit
    for bit from its seed alone.  A seed may also be a
    ``numpy.random.Generator``, which continues its stream: successive calls
    on the same generators draw a long grid one time block at a time, with
    the same draws as one call over the whole span.

    Raises
    ------
    NonIntegralGrid
        If ``T`` is not a positive integer multiple of ``tau_f``.
    """
    n = steps_for(T, tau_f, minimum=1)
    out = np.empty((n, len(path_seeds)))
    root = np.sqrt(tau_f)
    for i, s in enumerate(path_seeds):
        out[:, i] = np.random.default_rng(s).standard_normal(n) * root
    return out
