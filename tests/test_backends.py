import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proplimit import backend


def random_chain_inputs(np_rng, n=40, layers=30, dim=4):
    n_low = dim * (dim - 1) // 2
    diag = np.abs(np_rng.standard_normal((n, layers, dim))) + 0.1
    low = np_rng.standard_normal((n, layers, n_low)) * 0.3
    return np.ascontiguousarray(diag), np.ascontiguousarray(low)


class TestFallbackKernels:
    def test_chain_single_layer_assembles_factor(self, np_rng):
        diag, low = random_chain_inputs(np_rng, n=3, layers=1, dim=3)
        out = backend.lt_chain_multiply(diag, low)
        expected = np.zeros((3, 3, 3))
        for b in range(3):
            expected[b][np.diag_indices(3)] = diag[b, 0]
            expected[b][np.tril_indices(3, -1)] = low[b, 0]
        np.testing.assert_array_equal(out, expected)

    def test_chain_matches_dense_product(self, np_rng):
        # dim 17 checks that the kernel has no dimension cap.
        for dim in (3, 17):
            diag, low = random_chain_inputs(np_rng, n=5, layers=6, dim=dim)
            out = backend.lt_chain_multiply(diag, low)
            for b in range(5):
                acc = None
                for l in range(6):
                    mat = np.zeros((dim, dim))
                    mat[np.diag_indices(dim)] = diag[b, l]
                    mat[np.tril_indices(dim, -1)] = low[b, l]
                    acc = mat if acc is None else mat @ acc
                np.testing.assert_allclose(out[b], acc, rtol=1e-12, atol=1e-14)

    def test_suffix_mac_definition(self, np_rng):
        m = 64
        # p = r = 1 is one step of a single iterated integral; p = 3, r = 2
        # sums a stack of pairs before the suffix accumulation.
        for p, r in ((1, 1), (3, 2)):
            w = np_rng.standard_normal((p, m))
            g = np_rng.standard_normal((p, r, m + 1))
            dw = np_rng.standard_normal((p, m))
            # BrownianGrid hands the kernel frozen arrays.
            for arr in (w, g, dw):
                arr.setflags(write=False)
            out = backend.suffix_mac(w, g, dw)
            assert out.shape == (r, m + 1)
            assert (out[:, m] == 0.0).all()
            brute = np.array(
                [
                    [np.sum(w[:, u:] * g[:, j, u + 1:] * dw[:, u:]) for u in range(m)] + [0.0]
                    for j in range(r)
                ]
            )
            np.testing.assert_allclose(out, brute, rtol=1e-12, atol=1e-14)


def sequential_chain(diag, low):
    """``V_L @ ... @ V_1`` by a left-to-right loop of dense products."""
    n, layers, dim = diag.shape
    rows, cols = np.tril_indices(dim, -1)
    acc = np.broadcast_to(np.eye(dim), (n, dim, dim))
    for l in range(layers):
        mat = np.zeros((n, dim, dim))
        mat[:, np.arange(dim), np.arange(dim)] = diag[:, l]
        mat[:, rows, cols] = low[:, l]
        acc = mat @ acc
    return acc


def assert_close_per_draw(out, ref, rtol=1e-13):
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(out - ref) <= rtol * scale)


class TestTreeKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        layers=st.one_of(st.just(1), st.just(2), st.integers(1, 12).map(lambda k: 2 * k + 1),
                         st.integers(3, 24)),
        dim=st.integers(1, 8),
        exponent=st.floats(0.0, 150.0),
        block=st.integers(1, 4),
        n=st.integers(1, 13),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_product(self, layers, dim, exponent, block, n, seed):
        # Diagonals are 10**e with |e| up to 150; the exponent budget is
        # shared across layers so that no partial product leaves float64.
        rng = np.random.default_rng(seed)
        top = min(exponent, 300.0 / layers)
        diag = 10.0 ** rng.uniform(-top, top, (n, layers, dim))
        low = rng.standard_normal((n, layers, dim * (dim - 1) // 2))
        # Blocks of `block` samples, so the batch falls on both sides of one.
        budget = block * layers * dim * dim * 8
        with mock.patch.object(backend, "CHAIN_BLOCK_BYTES", budget):
            out = backend.lt_chain_multiply(diag, low)
        assert_close_per_draw(out, sequential_chain(diag, low))

    def test_batch_crossing_the_block_budget(self, np_rng):
        # finite-chain's factor shape; 300 samples need three blocks.
        layers, dim = 200, 3
        per_block = backend.CHAIN_BLOCK_BYTES // (layers * dim * dim * 8)
        n = 2 * per_block + 10
        diag, low = random_chain_inputs(np_rng, n=n, layers=layers, dim=dim)
        out = backend.lt_chain_multiply(diag, low)
        assert_close_per_draw(out, sequential_chain(diag, low))
        np.testing.assert_array_equal(out[per_block:per_block + 3],
                                      backend.lt_chain_multiply(diag[per_block:per_block + 3],
                                                                low[per_block:per_block + 3]))

    def test_scratch_memory_bounded_by_block_budget(self, np_rng):
        # The whole (2000, 200, 3, 3) factor stack would be 27 budgets.
        diag, low = random_chain_inputs(np_rng, n=2000, layers=200, dim=3)
        tracemalloc.start()
        try:
            out = backend.lt_chain_multiply(diag, low)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 3 * backend.CHAIN_BLOCK_BYTES
