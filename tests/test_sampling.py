import numpy as np
import pytest
from scipy.special import gammainc

from proplimit import analysis, sampling
from proplimit.errors import InvalidParameter


class TestStreams:
    def test_same_key_identical(self):
        a = sampling.make_stream(42, 0)
        b = sampling.make_stream(42, 0)
        np.testing.assert_array_equal(
            a.standard_normal(100), b.standard_normal(100)
        )

    def test_distinct_stream_ids_differ(self):
        a = sampling.make_stream(42, 0).standard_normal(100)
        b = sampling.make_stream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sampling.make_stream(42, 0).standard_normal(100)
        b = sampling.make_stream(43, 0).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_advancing_one_stream_leaves_another_untouched(self):
        a = sampling.make_stream(7, 0)
        b = sampling.make_stream(7, 1)
        b_ref = sampling.make_stream(7, 1).standard_normal(10)
        a.standard_normal(1000)
        np.testing.assert_array_equal(b.standard_normal(10), b_ref)

    def test_key_layout_is_masked_seed_then_stream_id(self):
        # Output bytes depend on this exact Philox key; a negative seed wraps mod 2**64.
        key = np.array([2**64 - 1, 0], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_array_equal(
            sampling.make_stream(-1, 0).standard_normal(16), ref.standard_normal(16)
        )

    @pytest.mark.parametrize("seed, neighbour", [(-1, 0), (2**63 + 1, 2**63)])
    def test_high_seeds_do_not_collide(self, seed, neighbour):
        # Rounding the key through float64 would map each seed onto its neighbour.
        a = sampling.make_stream(seed, 0).standard_normal(8)
        b = sampling.make_stream(neighbour, 0).standard_normal(8)
        assert not np.array_equal(a, b)


class TestGamma:
    def test_exponential_mean(self, rng):
        draws = sampling.sample_gamma(1.0, 1.0, rng, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.004

    def test_shape_rate_mean(self, rng):
        n = 200_000
        draws = sampling.sample_gamma(5.0, 2.0, rng, size=n)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 2.5) < 3 * se

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_parameters(self, rng, shape, rate):
        with pytest.raises(InvalidParameter):
            sampling.sample_gamma(shape, rate, rng)

    def test_scalar_default(self, rng):
        assert isinstance(sampling.sample_gamma(2.0, 3.0, rng), float)


class TestGaussianMatrix:
    def test_moments(self, rng):
        draws = sampling.sample_gaussian_matrix(1000, 1000, 1.0, rng)
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.006

    def test_std_scaling(self, rng):
        n = 500_000
        draws = sampling.sample_gaussian_matrix(n, 1, 4.0, rng).ravel()
        se = draws.std(ddof=1) / np.sqrt(2 * n)  # SE of the std estimate
        assert abs(draws.std(ddof=1) - 2.0) < 3 * se

    def test_invalid_variance(self, rng):
        with pytest.raises(InvalidParameter):
            sampling.sample_gaussian_matrix(2, 2, 0.0, rng)

    def test_pathwise_variance_scaling(self):
        a = sampling.sample_gaussian_matrix(5, 5, 1.0, sampling.make_stream(3, 3))
        b = sampling.sample_gaussian_matrix(5, 5, 4.0, sampling.make_stream(3, 3))
        np.testing.assert_array_equal(b, 2.0 * a)


class TestBartlett:
    def test_d1_second_moment(self, rng):
        n = 100_000
        draws = sampling.bartlett_chain_draws(12, 1, n, rng)[0][:, 0] ** 2
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 1.0) < 4 * se

    def test_d2_last_diagonal_moment(self, rng):
        n = 100_000
        diag, _ = sampling.bartlett_chain_draws(10, 2, n, rng)
        sq = diag[:, 1] ** 2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 0.9) < 4 * se

    def test_dof_not_exceeding_dim_rejected(self, rng):
        with pytest.raises(InvalidParameter):
            sampling.sample_bartlett(2, 2, rng)

    def test_structure(self, rng):
        v = sampling.sample_bartlett(10, 4, rng)
        assert np.allclose(np.triu(v, 1), 0.0)
        assert (np.diag(v) > 0).all()


class TestWishart:
    def test_mean_identity(self, rng):
        n = 50_000
        dim = 3
        total = np.zeros((dim, dim))
        sq_total = np.zeros((dim, dim))
        for _ in range(n):
            q = sampling.sample_wishart(8, dim, rng)
            total += q
            sq_total += q * q
        mean = total / n
        se = np.sqrt((sq_total / n - mean**2) / n)
        assert np.all(np.abs(mean - np.eye(dim)) < 4 * se)

    def test_d1_is_gamma(self, rng):
        draws = np.array(
            [sampling.sample_wishart(8, 1, rng)[0, 0] for _ in range(50_000)]
        )
        report = analysis.ks_statistic(
            draws, lambda x: gammainc(4.0, 4.0 * x), alpha=0.01
        )
        assert report.passed, report

    def test_outer_route_matches_bartlett_moments(self, rng):
        n = 40_000
        bart = np.array([sampling.sample_wishart(10, 2, rng) for _ in range(n)])
        outer = np.array(
            [sampling.sample_wishart(10, 2, rng, method="outer") for _ in range(n)]
        )
        for stat in (np.mean, np.var):
            a = stat(bart, axis=0)
            b = stat(outer, axis=0)
            se = np.sqrt(
                np.var(bart, axis=0) / n + np.var(outer, axis=0) / n
            )  # crude but adequate scale for both statistics
            assert np.all(np.abs(a - b) < 5 * np.maximum(se, 1e-4))

    def test_unknown_method(self, rng):
        with pytest.raises(InvalidParameter):
            sampling.sample_wishart(8, 2, rng, method="spectral")
