import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proplimit import backend, prior


def bartlett_stack(np_rng, n=40, layers=30, dim=4, dof=20):
    """``n`` chains of ``layers`` Bartlett factors: a (n, layers, dim, dim) stack."""
    return prior.bartlett_chain_draws(dof, dim, (n, layers), np_rng, np_rng)


class TestFallbackKernels:
    def test_chain_single_layer_assembles_factor(self, np_rng):
        # A chain of one factor is that factor, bit for bit.
        factors = bartlett_stack(np_rng, n=3, layers=1, dim=3)
        np.testing.assert_array_equal(backend.lt_chain_multiply(factors), factors[:, 0])

    def test_chain_matches_dense_product(self, np_rng):
        # dim 17 checks that the kernel has no dimension cap.
        for dim in (3, 17):
            factors = bartlett_stack(np_rng, n=5, layers=6, dim=dim)
            out = backend.lt_chain_multiply(factors)
            for b in range(5):
                acc = factors[b, 0]
                for l in range(1, 6):
                    acc = factors[b, l] @ acc
                np.testing.assert_allclose(out[b], acc, rtol=1e-12, atol=1e-14)

    def test_suffix_mac_definition(self, np_rng):
        m = 64
        # p = r = 1 is one step of a single iterated integral; p = 3, r = 2
        # sums a stack of pairs before the suffix accumulation.
        for p, r in ((1, 1), (3, 2)):
            c = np_rng.standard_normal((p, m))
            g = np_rng.standard_normal((p, r, m + 1))
            # Grids hand the kernel read-only arrays.
            for arr in (c, g):
                arr.setflags(write=False)
            out = backend.suffix_mac(c, g)
            assert out.shape == (r, m + 1)
            assert (out[:, m] == 0.0).all()
            brute = np.array(
                [
                    [np.sum(c[:, u:] * g[:, j, u + 1:]) for u in range(m)] + [0.0]
                    for j in range(r)
                ]
            )
            np.testing.assert_allclose(out, brute, rtol=1e-12, atol=1e-14)
            # Into a given array, strided as a path-sum table column, with
            # the same bytes and a tail zeroed over whatever it held.
            table = np.full((r, 2, m + 1), np.nan)
            written = backend.suffix_mac(c, g, table[:, 1])
            assert written.base is table
            np.testing.assert_array_equal(table[:, 1], out)


def sequential_chain(factors):
    """``V_L @ ... @ V_1`` by a left-to-right loop of dense products."""
    acc = factors[:, 0]
    for l in range(1, factors.shape[1]):
        acc = factors[:, l] @ acc
    return acc


def assert_matches_sequential_product(factors, rtol=1e-13):
    # Rounding in either order is bounded by the same product taken over
    # |factors|, where nothing cancels; a product whose entries cancel can
    # have rounding far above its own largest entry.
    out, ref = backend.lt_chain_multiply(factors), sequential_chain(factors)
    scale = sequential_chain(np.abs(factors))
    assert np.all(np.abs(out - ref) <= rtol * scale)


class TestTreeKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        layers=st.one_of(st.just(1), st.just(2), st.integers(1, 12).map(lambda k: 2 * k + 1),
                         st.integers(3, 24)),
        dim=st.integers(1, 8),
        exponent=st.floats(0.0, 150.0),
        n=st.integers(1, 13),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_product(self, layers, dim, exponent, n, seed):
        # Lower-triangular factors with rows scaled by 10**e, |e| up to
        # 150; the exponent budget is shared across layers so that no
        # partial product leaves float64.
        rng = np.random.default_rng(seed)
        top = min(exponent, 300.0 / layers)
        factors = np.tril(rng.standard_normal((n, layers, dim, dim)))
        factors *= 10.0 ** rng.uniform(-top, top, (n, layers, dim, 1))
        assert_matches_sequential_product(factors)

    def test_deep_chains_match_sequential_product(self, np_rng):
        # finite-chain's factor shape, 200 layers of 3 x 3 factors.
        assert_matches_sequential_product(bartlett_stack(np_rng, n=100, layers=200, dim=3, dof=64))

    @pytest.mark.parametrize("layers", [1, 2, 7, 16])
    def test_general_stack_matches_sequential_product(self, np_rng, layers):
        # The product takes any square factors, not only triangular ones.
        assert_matches_sequential_product(np_rng.standard_normal((6, layers, 4, 4)))
