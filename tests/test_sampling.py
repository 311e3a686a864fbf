"""Random-generation primitives: the Philox stream key and the Bartlett draws.

Streams come from ``montecarlo.make_stream``; Bartlett factors, and the
Wishart matrices ``V @ V.T`` they make, from ``prior.bartlett_chain_draws``,
drawn a block at a time.  Draws passed one generator twice take the
gammas first, then the lower normals.
"""

import hashlib

import numpy as np
import pytest
from scipy.special import gammainc

import proplimit
from proplimit import analysis, montecarlo, prior
from proplimit.errors import InvalidParameter


def wisharts(dof, dim, n, rng):
    factors = prior.bartlett_chain_draws(dof, dim, n, rng, rng)
    return np.einsum("nij,nkj->nik", factors, factors)


class TestStreams:
    def test_same_key_identical(self):
        a = montecarlo.make_stream(42, 0)
        b = montecarlo.make_stream(42, 0)
        np.testing.assert_array_equal(
            a.standard_normal(100), b.standard_normal(100)
        )

    def test_distinct_stream_ids_differ(self):
        a = montecarlo.make_stream(42, 0).standard_normal(100)
        b = montecarlo.make_stream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = montecarlo.make_stream(42, 0).standard_normal(100)
        b = montecarlo.make_stream(43, 0).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_advancing_one_stream_leaves_another_untouched(self):
        a = montecarlo.make_stream(7, 0)
        b = montecarlo.make_stream(7, 1)
        b_ref = montecarlo.make_stream(7, 1).standard_normal(10)
        a.standard_normal(1000)
        np.testing.assert_array_equal(b.standard_normal(10), b_ref)

    def test_key_layout_is_masked_seed_then_stream_id(self):
        # Output bytes depend on this exact Philox key; a negative seed wraps mod 2**64.
        key = np.array([2**64 - 1, 0], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_array_equal(
            montecarlo.make_stream(-1, 0).standard_normal(16), ref.standard_normal(16)
        )

    @pytest.mark.parametrize("seed, neighbour", [(-1, 0), (2**63 + 1, 2**63)])
    def test_high_seeds_do_not_collide(self, seed, neighbour):
        # Rounding the key through float64 would map each seed onto its neighbour.
        a = montecarlo.make_stream(seed, 0).standard_normal(8)
        b = montecarlo.make_stream(neighbour, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_exported_from_package(self):
        assert proplimit.make_stream is montecarlo.make_stream


class TestGamma:
    """The squared Bartlett diagonal of row i is Gamma((dof - i) / 2, rate dof / 2)."""

    def test_exponential_mean(self, rng):
        # dof 2, dim 1: Gamma(1, rate 1), the unit exponential.
        draws = prior.bartlett_chain_draws(2, 1, 1_000_000, rng, rng)[:, 0, 0] ** 2
        assert abs(draws.mean() - 1.0) < 0.004

    def test_shape_rate_mean(self, rng):
        # dof 10, row 3: Gamma(3.5, rate 5), mean 0.7.
        n = 200_000
        draws = prior.bartlett_chain_draws(10, 4, n, rng, rng)[:, 3, 3] ** 2
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 0.7) < 3 * se


class TestBartlett:
    def test_d1_second_moment(self, rng):
        n = 100_000
        draws = prior.bartlett_chain_draws(12, 1, n, rng, rng)[:, 0, 0] ** 2
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 1.0) < 4 * se

    def test_d2_last_diagonal_moment(self, rng):
        n = 100_000
        sq = prior.bartlett_chain_draws(10, 2, n, rng, rng)[:, 1, 1] ** 2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 0.9) < 4 * se

    def test_dof_not_exceeding_dim_rejected(self, rng):
        with pytest.raises(InvalidParameter):
            prior.bartlett_chain_draws(2, 2, 1, rng, rng)

    def test_structure(self, rng):
        for v in prior.bartlett_chain_draws(10, 4, 5, rng, rng):
            assert np.allclose(np.triu(v, 1), 0.0)
            assert (np.diag(v) > 0).all()

    @pytest.mark.parametrize("size, lead", [(5, (5,)), ((4, 5), (4, 5))])
    def test_draws_lower_triangular_factor_stack(self, rng, size, lead):
        # The draw returns the factors themselves, exactly zero above the
        # diagonal, for one chain's layers or a block of chains.
        factors = prior.bartlett_chain_draws(10, 3, size, rng, rng)
        assert factors.shape == lead + (3, 3)
        assert not np.triu(factors, 1).any()

    def test_same_generator_order_pinned(self):
        # One generator passed twice: all gammas, then all lower normals,
        # read back out of the factors as diagonals, then lower entries.
        r = montecarlo.make_stream(7, 0)
        factors = prior.bartlett_chain_draws(10, 3, (4, 5), r, r)
        rows, cols = np.tril_indices(3, -1)
        diag, low = np.diagonal(factors, axis1=2, axis2=3), factors[:, :, rows, cols]
        digest = hashlib.sha256(diag.tobytes() + low.tobytes()).hexdigest()[:12]
        assert digest == "6a2f79e1017c"


class TestWishart:
    def test_mean_identity(self, rng):
        n = 50_000
        dim = 3
        q = wisharts(8, dim, n, rng)
        mean = q.mean(axis=0)
        se = np.sqrt(((q * q).mean(axis=0) - mean**2) / n)
        assert np.all(np.abs(mean - np.eye(dim)) < 4 * se)

    def test_d1_is_gamma(self, rng):
        draws = wisharts(8, 1, 50_000, rng)[:, 0, 0]
        statistic, threshold = analysis.ks_statistic(
            draws, lambda x: gammainc(4.0, 4.0 * x), alpha=0.01
        )
        assert statistic <= threshold

    def test_outer_route_matches_bartlett_moments(self, rng):
        # The outer-product route: a sum of dof outer products of N(0, I/dof) vectors.
        n = 40_000
        bart = wisharts(10, 2, n, rng)
        g = rng.standard_normal((n, 2, 10)) / np.sqrt(10)
        outer = np.einsum("nij,nkj->nik", g, g)
        for stat in (np.mean, np.var):
            a = stat(bart, axis=0)
            b = stat(outer, axis=0)
            se = np.sqrt(
                np.var(bart, axis=0) / n + np.var(outer, axis=0) / n
            )  # crude but adequate scale for both statistics
            assert np.all(np.abs(a - b) < 5 * np.maximum(se, 1e-4))
