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
