import contextlib
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from langsplit import montecarlo
from langsplit.errors import NonIntegralGrid
from langsplit.model import PhysParams, State
from langsplit.montecarlo import SeedPolicy, increment_matrix
from langsplit.splitting import SchemeSpec, simulate

from helpers import no_child_left


class TestSeedPolicy:
    def test_pure_and_distinct(self):
        pol = SeedPolicy(123)
        a = pol.path_seed(7)
        assert a == pol.path_seed(7)
        seeds = pol.path_seeds(10000)
        assert len(np.unique(seeds)) == 10000

    def test_independent_of_call_order(self):
        pol = SeedPolicy(9)
        later = pol.path_seed(500)
        earlier = pol.path_seed(3)
        assert pol.path_seeds(501)[500] == later
        assert pol.path_seeds(4)[3] == earlier

    def test_start_offset(self):
        pol = SeedPolicy(5)
        assert np.array_equal(pol.path_seeds(3, start=10),
                              pol.path_seeds(13)[10:])


class TestMapChunks:
    def test_chunks_in_order_with_their_seeds(self, monkeypatch):
        # A lambda cannot be pickled: workers inherit it through the fork.
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
        seeds = SeedPolicy(4)
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "WORKERS", workers)
            got = montecarlo.map_chunks(lambda s: (s, os.getpid()), 300,
                                        seeds)
            assert [len(s) for s, _ in got] == [64, 64, 64, 64, 44]
            assert np.array_equal(np.concatenate([s for s, _ in got]),
                                  seeds.path_seeds(300))
            pids = [pid for _, pid in got]
            # Worker k runs chunks k, k + workers, ...; this process none.
            assert pids == [pids[i % workers] for i in range(5)]
            assert (os.getpid() in pids) == (workers == 1)
            assert len(set(pids)) == workers
        no_child_left()

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        n = montecarlo.PATH_CHUNK
        assert montecarlo.chunk_plan(n) == (1, 1)
        assert montecarlo.map_chunks(lambda s: len(s), n,
                                     SeedPolicy(1)) == [n]
        assert montecarlo.chunk_plan(n + 1) == (2, 2)
        assert montecarlo.chunk_plan(5 * n) == (2, 5)

    def test_a_worker_stops_at_its_first_failure(self, monkeypatch):
        # Chunks 1, 2 and 3 fail.  Worker 0 runs chunks 0 and 2, worker 1
        # chunk 1; neither runs a chunk after its failure, and chunk 1's
        # failure, the first in chunk order, is raised.
        monkeypatch.setattr(montecarlo, "PATH_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        seeds = SeedPolicy(4)
        firsts = list(seeds.path_seeds(300)[::64])
        read, write = os.pipe()

        def work(s):
            # Each worker reports the chunks it runs through the pipe.
            k = firsts.index(s[0])
            os.write(write, b"%d " % k)
            if k in (1, 2, 3):
                raise ValueError(f"chunk {k}")
            return k

        with pytest.raises(ValueError, match="chunk 1"):
            montecarlo.map_chunks(work, 300, seeds)
        no_child_left()
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            ran = sorted(map(int, pipe.read().split()))
        assert ran == [0, 1, 2]


class TestBeside:
    def test_both_results_and_where_they_ran(self):
        # A lambda cannot be pickled: the worker inherits it through the fork.
        here, there = montecarlo.beside(
            lambda: os.getpid(),
            [lambda: (os.getpid(), np.arange(3.0)), lambda: os.getpid()])
        (ok_a, (pid_a, arr)), (ok_b, pid_b) = there
        assert ok_a and ok_b
        assert len({here, pid_a, pid_b}) == 3 and here == os.getpid()
        assert np.array_equal(arr, np.arange(3.0))
        assert montecarlo.beside(lambda: 1, []) == (1, [])
        no_child_left()

    def test_a_large_result_comes_back_whole(self):
        # More than a pipe's buffer from each worker, read while they write.
        _, there = montecarlo.beside(lambda: None,
                                     [lambda: np.arange(1e6)] * 2)
        assert all(ok and np.array_equal(a, np.arange(1e6)) for ok, a in there)
        no_child_left()

    def test_exceptions_here_first(self):
        def fail(where):
            raise ValueError(where)

        _, [(ok, exc), (ok_b, b)] = montecarlo.beside(
            lambda: 1, [lambda: fail("there"), lambda: 2])
        assert not ok and isinstance(exc, ValueError) and str(exc) == "there"
        assert (ok_b, b) == (True, 2)
        no_child_left()
        with pytest.raises(ValueError, match="here"):
            montecarlo.beside(lambda: fail("here"), [lambda: fail("there")])
        no_child_left()

    def test_an_interrupt_here_stops_the_workers(self):
        # The workers are killed, not waited for through their 30 s.
        def interrupt():
            raise KeyboardInterrupt

        begun = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            montecarlo.beside(interrupt, [lambda: time.sleep(30)] * 2)
        no_child_left()
        assert time.monotonic() - begun < 10

    def test_a_worker_that_dies_is_an_error(self):
        with pytest.raises(ChildProcessError):
            montecarlo.beside(lambda: None, [lambda: 1, lambda: os._exit(3)])
        no_child_left()

    def test_a_failed_fork_leaves_no_child(self, monkeypatch):
        # The second fork fails: the first worker ends and is reaped.
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == 2:
                raise OSError("no second fork")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="no second fork"):
            montecarlo.beside(lambda: None,
                              [lambda: None, lambda: None, lambda: None])
        assert len(calls) == 2
        no_child_left()

    def test_sigterm_just_after_a_fork_stops_that_worker(self):
        # SIGTERM sent from the parent's own fork call, before the new
        # worker is on the list of those to kill: it waits until it is.
        script = textwrap.dedent("""
            import os, signal, time
            from langsplit import montecarlo

            real_fork = os.fork

            def fork():
                pid = real_fork()
                if pid:
                    print(pid, flush=True)
                    os.kill(os.getpid(), signal.SIGTERM)
                return pid

            os.fork = fork
            montecarlo.beside(lambda: time.sleep(30), [lambda: time.sleep(30)])
        """)
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, text=True)
        worker = None
        try:
            worker = int(proc.stdout.readline())
            assert proc.wait(timeout=60) == -signal.SIGTERM
            time.sleep(1.0)
            with pytest.raises(ProcessLookupError):
                os.kill(worker, 0)
        finally:
            if worker is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker, signal.SIGKILL)
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_workers_fork_no_workers(self, monkeypatch):
        # A worker has one process, itself: its chunks run in it.
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        n = 3 * montecarlo.PATH_CHUNK
        _, [(_, nested)] = montecarlo.beside(
            lambda: None,
            [lambda: (montecarlo.WORKERS, montecarlo.chunk_plan(n))])
        assert nested == (1, (1, 3))
        assert montecarlo.chunk_plan(n) == (2, 3)


def test_non_finite_horizon_or_step_is_no_grid():
    for T, tau in ((math.inf, 0.1), (1.0, math.inf), (math.nan, 0.1),
                   (1.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(NonIntegralGrid):
            montecarlo.steps_for(T, tau)
    assert montecarlo.steps_for(1.0, 0.125) == 8


def test_half_a_step_off_is_no_grid_on_a_long_horizon():
    # At 2.56e9 steps a relative 1e-9 is 2.56 steps wide: half a step off
    # the grid is refused all the same, and an exact grid still passes.
    with pytest.raises(NonIntegralGrid, match="not an integer multiple"):
        montecarlo.steps_for(1e7 + 2**-9, 2**-8)
    assert montecarlo.steps_for(1e7, 2**-8) == 2_560_000_000
    assert montecarlo.steps_for(2.0**40, 2.0**-8) == 2**48
    assert montecarlo.steps_for(1e14, 0.1) == 10**15


def test_more_than_2_to_the_53_steps_is_no_grid():
    # Above 2^53 steps, n * tau can no longer name an integer n.
    assert montecarlo.steps_for(2.0**53, 1.0) == 2**53
    for T, tau in ((2.0**54, 1.0), (1e300, 2.0**-6), (1e15, 2.0**-8)):
        with pytest.raises(NonIntegralGrid, match="2\\^53"):
            montecarlo.steps_for(T, tau)


def test_an_empty_ensemble_raises():
    with pytest.raises(ValueError, match="at least one path"):
        montecarlo.map_chunks(lambda seeds: len(seeds), 0, SeedPolicy(1))


class TestGenerateGrid:
    """Fine Brownian grids as built by ``increment_matrix``."""

    def test_single_increment(self):
        inc = increment_matrix(2.0**-6, 2.0**-6, [77])
        assert inc.shape == (1, 1)

    def test_deterministic(self):
        a = increment_matrix(1.0, 2.0**-8, [3, 4])
        b = increment_matrix(1.0, 2.0**-8, [3, 4])
        assert a.shape == (256, 2)
        assert np.array_equal(a, b)

    def test_non_integral_grid(self):
        with pytest.raises(NonIntegralGrid):
            increment_matrix(1.0, 0.3, [1])

    def test_total_variance_is_horizon(self):
        # sum of increments over [0, T] has variance T
        T, tau_f, n_paths = 0.5, 2.0**-3, 10**5
        inc = increment_matrix(T, tau_f, SeedPolicy(11).path_seeds(n_paths))
        totals = inc.sum(axis=0)
        se = T * np.sqrt(2.0 / (n_paths - 1))
        assert abs(totals.var(ddof=1) - T) < 3 * se

    # Widths inside one 64-generator noise tile and across its edges.
    TILE_WIDTHS = (5, 65, 130)

    def test_increment_matrix_matches_grids(self):
        # column i is path i's own stream, regenerated from its seed alone
        for width in self.TILE_WIDTHS:
            seeds = SeedPolicy(2).path_seeds(width)
            mat = increment_matrix(0.25, 2.0**-6, seeds)
            for i, s in enumerate(seeds):
                own = np.random.default_rng(s).standard_normal(16) * 2.0**-3
                assert np.array_equal(mat[:, i], own), (width, i)

    def test_generators_continue_their_streams(self):
        # blocks of 7, 7 and 2 rows from the same generators are the rows of
        # one call over the whole span
        for width in self.TILE_WIDTHS:
            seeds = SeedPolicy(2).path_seeds(width)
            whole = increment_matrix(16 * 2.0**-6, 2.0**-6, seeds)
            rngs = [np.random.default_rng(s) for s in seeds]
            blocks = [increment_matrix(n * 2.0**-6, 2.0**-6, rngs)
                      for n in (7, 7, 2)]
            assert np.array_equal(np.concatenate(blocks), whole), width


# Widths inside one 64-path noise tile and on either side of its edges.
PER_PATH_WIDTHS = [1, 3, 63, 65, 130]


@pytest.mark.parametrize(
    "seed", [11] + [list(range(11, 11 + w)) for w in PER_PATH_WIDTHS],
    ids=["shared"] + [f"per-path-{w}" if w != 3 else "per-path"
                      for w in PER_PATH_WIDTHS])
def test_noise_block_size_does_not_change_paths(monkeypatch, seed):
    # 1100 steps cross a block boundary at either block size.
    width = 3 if np.ndim(seed) == 0 else len(seed)
    start = State(np.zeros(width), np.zeros(width))
    args = (1100 * 2.0**-8, 2.0**-8, PhysParams(4.0, 1.0),
            SchemeSpec.from_name("savf"), seed)
    runs = []
    for block in (7, 1024):
        monkeypatch.setattr(montecarlo, "_NOISE_BLOCK", block)
        runs.append(simulate(start, *args))
    assert np.array_equal(runs[0].p, runs[1].p)
    assert np.array_equal(runs[0].q, runs[1].q)


@pytest.mark.parametrize("width", PER_PATH_WIDTHS)
@pytest.mark.parametrize("block", [7, 1024])
def test_path_noise_columns_are_each_paths_own_stream(monkeypatch, width,
                                                      block):
    monkeypatch.setattr(montecarlo, "_NOISE_BLOCK", block)
    seeds = SeedPolicy(4).path_seeds(width)
    rows = np.array([row.copy() for row in montecarlo.path_noise(seeds, 20)])
    for i, s in enumerate(seeds):
        own = np.random.default_rng(s).standard_normal(20)
        assert np.array_equal(rows[:, i], own), i
    shared = [float(z) for z in montecarlo.path_noise(int(seeds[0]), 20)]
    assert shared == list(np.random.default_rng(seeds[0]).standard_normal(20))
