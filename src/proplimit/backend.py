"""The two hot numpy kernels: chain products of factor stacks and backward suffix sums.

They stay in this module rather than inlined at their call sites because
``perfbench/tracing.py`` times them under these two names.  Neither
splits its input: each works on the whole batch it is given, and its
caller bounds the memory by the size of that batch: a sub-batch of
chains (``montecarlo.sub_batch``) or one limit draw's rows.
"""

from __future__ import annotations

import numpy as np


def lt_chain_multiply(factors: np.ndarray) -> np.ndarray:
    """Multiply chains of square matrices, batched over samples.

    Parameters
    ----------
    factors : (B, L, D, D) array
        Factor ``l`` of sample ``b``: the Bartlett factors of
        ``prior.bartlett_chain_draws``, or any square matrices.

    Returns
    -------
    (B, D, D) array
        For each sample, ``V_L @ ... @ V_2 @ V_1`` where ``V_l`` is
        ``factors[:, l-1]`` (layer axis ascending = applied first).

    The product is associative, so it is reduced as a tree (Blelloch 1990,
    "Prefix sums and their applications"): each level multiplies adjacent
    pairs of the stack in one batched matmul, and an odd last factor
    carries up to the next level, for about log2(L) calls.  Each level
    replaces ``factors``, so a stack its caller does not hold is freed
    after the first level, and the scratch memory is about one and a half
    stacks: a caller bounds it by the batch it passes
    (``montecarlo.sub_batch``).  Rounding differs from a left-to-right
    product only in the last bits.
    """
    while factors.shape[1] > 1:
        even = factors.shape[1] & ~1
        paired = np.matmul(factors[:, 1:even:2], factors[:, 0:even:2])
        if even < factors.shape[1]:
            paired = np.concatenate([paired, factors[:, even:]], axis=1)
        factors = paired
    return factors[:, 0]


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
