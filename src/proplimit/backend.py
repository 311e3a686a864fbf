"""The two hot numpy kernels: lower-triangular chain products and backward suffix sums.

They stay in this module rather than inlined at their call sites because
``perfbench/tracing.py`` times them under these two names.
"""

from __future__ import annotations

import numpy as np


def lt_chain_multiply(diag: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Multiply chains of lower-triangular matrices, batched over samples.

    Parameters
    ----------
    diag : (B, L, D) array
        Diagonal entries of factor ``l`` of sample ``b``.
    low : (B, L, T) array, T = D*(D-1)/2
        Strict lower-triangle entries in ``numpy.tril_indices`` order.

    Returns
    -------
    (B, D, D) array
        For each sample, ``V_L @ ... @ V_2 @ V_1`` where ``V_l`` is the
        factor assembled from layer index ``l-1`` (layer axis ascending =
        applied first).
    """
    n_samples, n_layers, dim = diag.shape
    rows, cols = np.tril_indices(dim, -1)
    didx = np.arange(dim)

    def layer(l: int) -> np.ndarray:
        mat = np.zeros((n_samples, dim, dim))
        mat[:, didx, didx] = diag[:, l, :]
        mat[:, rows, cols] = low[:, l, :]
        return mat

    out = layer(0)
    for l in range(1, n_layers):
        out = np.einsum("nij,njk->nik", layer(l), out)
    return out


def suffix_mac(w: np.ndarray, g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Backward suffix of multiply-accumulate terms.

    Returns ``out`` of length M+1 with ``out[M] = 0`` and
    ``out[m] = out[m+1] + (w[m] * g[m+1]) * dw[m]``, i.e. the suffix sums
    of ``w[u] * g[u+1] * dw[u]`` accumulated from the tail.
    """
    m_steps = w.shape[0]
    out = np.zeros(m_steps + 1)
    terms = (w * g[1:]) * dw
    out[:m_steps] = np.cumsum(terms[::-1])[::-1]
    return out
