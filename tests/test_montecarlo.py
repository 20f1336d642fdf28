import numpy as np
import pytest

from langsplit.errors import NonIntegralGrid
from langsplit.montecarlo import SeedPolicy, increment_matrix


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
