import numpy as np

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
        w = np_rng.standard_normal(m)
        g = np_rng.standard_normal(m + 1)
        dw = np_rng.standard_normal(m)
        # BrownianGrid hands the kernel frozen arrays.
        for arr in (w, g, dw):
            arr.setflags(write=False)
        out = backend.suffix_mac(w, g, dw)
        assert out[m] == 0.0
        brute = np.array(
            [np.sum(w[u:] * g[u + 1:] * dw[u:]) for u in range(m)] + [0.0]
        )
        np.testing.assert_allclose(out, brute, rtol=1e-12, atol=1e-14)
