"""Reproducible path generation: step counts, path chunks and noise draws.

Per-path randomness is derived by hashing (master seed, path index) into an
independent stream, so any subset of paths can be regenerated in any order
with identical results.  Every experiment counts its steps with
:func:`steps_for`, runs its ensemble in path chunks with :func:`map_chunks`
and draws its noise with :func:`path_noise` (sampled runs) or
:func:`increment_matrix` (path-coupled runs).  :func:`beside` is the one
way to use another core: it runs callables in plain forked workers, which
:func:`map_chunks` hands static round-robin shares of the chunks, and
which run a one-chunk study's levels beside its reference.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
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
    "beside",
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

# Processes a run may use: the cores this process may run on, measured
# once; 1 without ``fork`` and in a forked worker, so forks never nest.
# The bits of a result do not depend on it (see :func:`map_chunks`).
WORKERS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) if hasattr(os, "fork") else 1)

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

    Raises :class:`NonIntegralGrid` unless ``T`` is a finite integer
    multiple of a finite ``tau`` (to a relative 1e-9) of at least
    ``minimum`` and at most 2^53 steps: above 2^53, ``n * tau`` can no
    longer name an integer n.
    """
    ratio = T / tau if tau > 0 else math.nan
    n = int(round(ratio)) if math.isfinite(ratio) else -1
    if n > 2**53:
        raise NonIntegralGrid(
            f"{T:g} is {ratio:.3g} steps of {tau:g}, more than 2^53")
    # Written so that a NaN (an infinite step) fails the test.
    if n < minimum or not abs(n * tau - T) <= 1e-9 * max(abs(T), tau):
        raise NonIntegralGrid(
            f"{T:g} is not an integer multiple of the step {tau:g}")
    return n


def chunk_plan(n_paths: int) -> Tuple[int, int]:
    """``(workers, chunks)`` of a run of ``n_paths`` paths.

    The ensemble splits into chunks of ``PATH_CHUNK`` paths, spread over
    ``min(WORKERS, chunks)`` forked workers; a run of one chunk, or of
    ``WORKERS = 1``, has one worker, the calling process.
    """
    n_chunks = -(-n_paths // PATH_CHUNK)
    return max(min(WORKERS, n_chunks), 1), n_chunks


def map_chunks(work: Callable[[np.ndarray], _R], n_paths: int,
               seeds: SeedPolicy) -> List[_R]:
    """``work(path_seeds)`` of each chunk of the ensemble, in order.

    Every path keeps the seed of its ensemble index, and a
    :class:`NonConvergence` leaves its chunk naming that index.  ``work``
    returns the chunk's partial result, and the caller folds the list in
    chunk order, so a result has the same bits for any number of workers.
    At :func:`chunk_plan`'s ``w >= 2`` workers, worker ``k`` runs chunks
    ``k, k + w, ...`` up to its first failure while this process waits.
    The first failing chunk's exception is raised, as in a run of the
    chunks in turn, once every worker has ended: it stops no other worker.
    An ensemble of no paths raises ``ValueError``.
    """
    if n_paths < 1:
        raise ValueError(f"an ensemble needs at least one path, got {n_paths}")

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

    def share(k: int) -> List[Tuple[bool, object]]:
        # (ok, result or exception) of its chunks, up to the first failure.
        done = []
        for first in firsts[k::workers]:
            try:
                done.append((True, chunk(first)))
            except BaseException as exc:
                return done + [(False, exc)]
        return done

    _, shares = beside(lambda: None, [lambda k=k: share(k)
                                      for k in range(workers)])
    results = []
    # A worker stops at its first failure, so every chunk before the first
    # failing one in chunk order has its result.
    for i in range(len(firsts)):
        ok, value = shares[i % workers][1][i // workers]
        if not ok:
            raise value
        results.append(value)
    return results


class _Terminated(BaseException):
    """SIGTERM, received while workers run beside this process."""


def _terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """In the block, SIGTERM raises :class:`_Terminated`, so that the block
    can stop its workers; once it has, the process ends by SIGTERM as it
    would have.  Only in the main thread, and only where SIGTERM has its
    default action: a handler of the program's own is left to it."""
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL):
        yield
        return
    signal.signal(signal.SIGTERM, _terminated)
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def beside(here: Callable[[], _R], theres: Sequence[Callable[[], object]]
           ) -> Tuple[_R, List[Tuple[bool, object]]]:
    """``here()``, run in this process while each of ``theres`` runs in a
    forked worker of its own, and each worker's ``(True, result)`` or
    ``(False, exception)``.

    A callable reaches its worker through the fork, and its outcome comes
    back pickled through a pipe.  Every worker runs to its end and is
    reaped before this returns.  If this process fails instead (``here``
    raises, a fork fails, or SIGTERM arrives) its workers are killed, and
    reaped, before the exception leaves; a worker's SIGTERM is the default.
    A worker that dies without its outcome raises
    :class:`ChildProcessError`.  A plain fork: a process pool's modules and
    threads raised peak RSS by 3.7 MiB, the fork alone by nothing measured.
    """
    global WORKERS
    started = []  # (pid, read end of its pipe) of the workers not reaped
    ends = []
    with _sigterm_unwinds():
        try:
            for there in theres:
                read, write = os.pipe()
                # SIGTERM waits until the new worker is among ``started``,
                # so that the handler's unwinding finds it to kill.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              {signal.SIGTERM})
                try:
                    try:
                        pid = os.fork()
                    except OSError:
                        os.close(read)
                        os.close(write)
                        raise
                    if pid == 0:  # the worker: report, never return
                        try:
                            signal.signal(signal.SIGTERM, signal.SIG_DFL)
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            WORKERS = 1
                            try:
                                outcome = True, there()
                            except BaseException as exc:
                                outcome = False, exc
                            with os.fdopen(write, "wb") as pipe:
                                pickle.dump(outcome, pipe)
                            os._exit(0)
                        finally:
                            os._exit(1)
                    os.close(write)
                    started.append((pid, os.fdopen(read, "rb")))
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            mine = here()
            while started:
                pid, pipe = started[0]
                with pipe:
                    data = pipe.read()
                ends.append((data, os.waitpid(pid, 0)[1]))
                del started[0]
        except BaseException:
            # Their outcomes are not wanted: stop the workers, not wait for
            # them.  A signal may have come just after a worker was reaped.
            for pid, pipe in started:
                pipe.close()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            raise
    for _, status in ends:
        if status != 0:
            raise ChildProcessError(f"a worker beside this process ended "
                                    f"with wait status {status}")
    return mine, [pickle.loads(data) for data, _ in ends]


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
        _normal_columns(rngs, rows)
        yield from (rows[:, 0] if shared else rows)


def _normal_columns(rngs: Sequence[np.random.Generator], out: np.ndarray):
    """Each generator's next ``len(out)`` standard normal draws, written
    into its column of ``out`` ``_NOISE_TILE`` generators at a time."""
    tile = np.empty((min(_NOISE_TILE, len(rngs)), len(out)))
    for first in range(0, len(rngs), _NOISE_TILE):
        group = rngs[first:first + _NOISE_TILE]
        for i, rng in enumerate(group):
            rng.standard_normal(out=tile[i])
        out[:, first:first + len(group)] = tile[:len(group)].T


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
    _normal_columns([np.random.default_rng(s) for s in path_seeds], out)
    out *= np.sqrt(tau_f)
    return out
