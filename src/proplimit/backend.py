"""The two hot numpy kernels: lower-triangular chain products and backward suffix sums.

They stay in this module rather than inlined at their call sites because
``perfbench/tracing.py`` times them under these two names.  Neither
splits its input: each works on the whole batch it is given, and its
caller bounds the memory by the size of that batch: a sub-batch of
chains (``montecarlo.sub_batch``) or one limit draw's rows.
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

    The product is associative, so it is reduced as a tree (Blelloch 1990,
    "Prefix sums and their applications"): each level multiplies adjacent
    pairs of the ``(b, L, D, D)`` factor stack in one batched matmul, and
    an odd last factor carries up to the next level, for about log2(L)
    calls.  The whole batch is one stack, so its scratch memory is about
    twice ``B * L * D * D`` floats: a caller bounds it by the batch it
    passes (``montecarlo.sub_batch``).  Rounding differs from a
    left-to-right product only in the last bits.
    """
    n_samples, n_layers, dim = diag.shape
    rows, cols = np.tril_indices(dim, -1)
    flat = np.zeros((n_samples, n_layers, dim * dim))
    flat[:, :, np.arange(dim) * (dim + 1)] = diag
    flat[:, :, rows * dim + cols] = low
    stack = flat.reshape(n_samples, n_layers, dim, dim)
    while stack.shape[1] > 1:
        even = stack.shape[1] & ~1
        paired = np.matmul(stack[:, 1:even:2], stack[:, 0:even:2])
        if even < stack.shape[1]:
            paired = np.concatenate([paired, stack[:, even:]], axis=1)
        stack = paired
    return stack[:, 0]


def suffix_mac(c: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Backward suffix sums of multiply-accumulate terms over a stack of pairs.

    Parameters
    ----------
    c : (p, M) array
        Coefficients of ``p`` pairs: an integrand weight times a Brownian
        increment.
    g : (p, r, M+1) array
        ``r`` inner suffixes per pair.
    out : (r, M+1) array, optional
        Where to write the result, which then allocates nothing; a new
        array when None.

    Returns
    -------
    (r, M+1) array
        ``out[:, M] = 0`` and
        ``out[j, m] = out[j, m+1] + sum_i c[i, m] * g[i, j, m+1]``: the pair
        terms are summed first into ``out[:, :M]``, then accumulated from
        the tail in place, one reversed cumsum per row.  p = r = 1 is a
        single iterated integral's step.
    """
    m_steps = c.shape[1]
    if out is None:
        out = np.empty((g.shape[1], m_steps + 1))
    terms = out[:, :m_steps]
    if c.shape[0] == 1:
        # One pair: a plain product, since einsum's per-call set-up costs
        # more than the arithmetic on short grids.
        np.multiply(c[0], g[0, :, 1:], out=terms)
    else:
        np.einsum("im,ijm->jm", c, g[:, :, 1:], out=terms)
    out[:, m_steps] = 0.0
    np.add.accumulate(terms[:, ::-1], axis=1, out=terms[:, ::-1])
    return out
