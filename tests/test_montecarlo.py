import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

from langsplit import montecarlo
from langsplit.errors import NonIntegralGrid
from langsplit.model import PhysParams, State
from langsplit.montecarlo import SeedPolicy, increment_matrix
from langsplit.splitting import SchemeSpec, simulate


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
            pids = {pid for _, pid in got}
            assert (pids == {os.getpid()}) == (workers == 1)
            assert len(pids) <= workers
        assert multiprocessing.active_children() == []

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        n = montecarlo.PATH_CHUNK
        assert montecarlo.chunk_plan(n) == (1, 1)
        assert montecarlo.map_chunks(lambda s: len(s), n,
                                     SeedPolicy(1)) == [n]
        assert montecarlo.chunk_plan(n + 1) == (2, 2)
        assert montecarlo.chunk_plan(5 * n) == (2, 5)


def _no_child_left():
    # Every worker has been reaped: this process has no child at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBeside:
    def test_both_results_and_where_they_ran(self):
        # A lambda cannot be pickled: the worker inherits it through the fork.
        here, there = montecarlo.beside(lambda: os.getpid(),
                                        lambda: (os.getpid(), np.arange(3.0)))
        assert here == os.getpid() and there[0] != os.getpid()
        assert np.array_equal(there[1], np.arange(3.0))
        _no_child_left()

    def test_a_large_result_comes_back_whole(self):
        # More than a pipe's buffer, read while the worker writes.
        _, there = montecarlo.beside(lambda: None, lambda: np.arange(1e6))
        assert np.array_equal(there, np.arange(1e6))
        _no_child_left()

    def test_exceptions_here_first(self):
        def fail(where):
            raise ValueError(where)

        with pytest.raises(ValueError, match="there"):
            montecarlo.beside(lambda: 1, lambda: fail("there"))
        _no_child_left()
        with pytest.raises(ValueError, match="here"):
            montecarlo.beside(lambda: fail("here"), lambda: fail("there"))
        _no_child_left()

    def test_a_worker_that_dies_is_an_error(self):
        with pytest.raises(ChildProcessError):
            montecarlo.beside(lambda: None, lambda: os._exit(3))
        _no_child_left()

    def test_workers_fork_no_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        big = montecarlo.BESIDE_MIN_LANE_STEPS
        assert montecarlo.spare_worker(big)
        assert not montecarlo.spare_worker(big - 1)
        _, nested = montecarlo.beside(
            lambda: None, lambda: montecarlo.spare_worker(big))
        assert nested is False
        monkeypatch.setattr(montecarlo, "WORKERS", 1)
        assert not montecarlo.spare_worker(big)


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

    def test_increment_matrix_matches_grids(self):
        # column i is path i's own stream, regenerated from its seed alone
        seeds = SeedPolicy(2).path_seeds(5)
        mat = increment_matrix(0.25, 2.0**-6, seeds)
        for i, s in enumerate(seeds):
            own = np.random.default_rng(s).standard_normal(16) * 2.0**-3
            assert np.array_equal(mat[:, i], own)

    def test_generators_continue_their_streams(self):
        # blocks of 7, 7 and 2 rows from the same generators are the rows of
        # one call over the whole span
        seeds = SeedPolicy(2).path_seeds(5)
        whole = increment_matrix(16 * 2.0**-6, 2.0**-6, seeds)
        rngs = [np.random.default_rng(s) for s in seeds]
        blocks = [increment_matrix(n * 2.0**-6, 2.0**-6, rngs)
                  for n in (7, 7, 2)]
        assert np.array_equal(np.concatenate(blocks), whole)


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
