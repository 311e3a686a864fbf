"""The two hot numpy kernels: lower-triangular chain products and backward suffix sums.

They stay in this module rather than inlined at their call sites because
``perfbench/tracing.py`` times them under these two names.
"""

from __future__ import annotations

import numpy as np


# Bytes of factor stack assembled at a time: the kernel walks the samples
# in blocks of this size, so its scratch memory does not grow with the
# batch and a block stays cache-sized.  On a 1024 x 200-layer x 3 x 3
# chunk, 2 MiB blocks raised a process's peak RSS 2.6 MiB above the
# layer-by-layer product; 1 MiB blocks, 0.3 MiB, and ran no slower.
CHAIN_BLOCK_BYTES = 1 << 20


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

    The product is associative, so it is reduced as a tree (Blelloch 1990,
    "Prefix sums and their applications"): each level multiplies adjacent
    pairs of the ``(b, L, D, D)`` factor stack in one batched matmul, and
    an odd last factor carries up to the next level, for about log2(L)
    calls.  Samples are processed in blocks of ``CHAIN_BLOCK_BYTES`` of
    stack.  Rounding differs from a left-to-right product only in the
    last bits.
    """
    n_samples, n_layers, dim = diag.shape
    rows, cols = np.tril_indices(dim, -1)
    diag_at = np.arange(dim) * (dim + 1)
    low_at = rows * dim + cols
    block = max(1, CHAIN_BLOCK_BYTES // (n_layers * dim * dim * 8))
    out = np.empty((n_samples, dim, dim))
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        flat = np.zeros((hi - lo, n_layers, dim * dim))
        flat[:, :, diag_at] = diag[lo:hi]
        flat[:, :, low_at] = low[lo:hi]
        stack = flat.reshape(hi - lo, n_layers, dim, dim)
        while stack.shape[1] > 1:
            even = stack.shape[1] & ~1
            paired = np.matmul(stack[:, 1:even:2], stack[:, 0:even:2])
            if even < stack.shape[1]:
                paired = np.concatenate([paired, stack[:, even:]], axis=1)
            stack = paired
        out[lo:hi] = stack[:, 0]
    return out


def suffix_mac(w: np.ndarray, g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Backward suffix sums of multiply-accumulate terms over a stack of pairs.

    Parameters
    ----------
    w, dw : (p, M) arrays
        Integrand weights and Brownian increments of ``p`` pairs.
    g : (p, r, M+1) array
        ``r`` inner suffixes per pair.

    Returns
    -------
    (r, M+1) array
        ``out[:, M] = 0`` and
        ``out[j, m] = out[j, m+1] + sum_i w[i, m] * g[i, j, m+1] * dw[i, m]``:
        the pair terms are summed first, then accumulated from the tail in
        one reversed cumsum per row.  p = r = 1 is a single iterated
        integral's step.
    """
    m_steps = w.shape[1]
    if w.shape[0] == 1:
        # One pair: a plain product, since einsum's per-call set-up costs
        # more than the arithmetic on short grids.
        terms = (w[0] * dw[0]) * g[0, :, 1:]
    else:
        terms = np.einsum("im,ijm->jm", w * dw, g[:, :, 1:])
    out = np.zeros((g.shape[1], m_steps + 1))
    np.add.accumulate(terms[:, ::-1], axis=1, out=out[:, m_steps - 1::-1])
    return out
