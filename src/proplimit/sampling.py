"""Reproducible random generation.

A stream is a plain ``numpy.random.Generator`` over the counter-based
Philox bit generator, keyed by ``(seed, stream_id)``: equal keys replay
bit-identical sequences, distinct keys give statistically independent
streams, and no stream is affected by draws from another.  This is what
makes parallel Monte Carlo reproducible independent of how samples are
partitioned across workers: every sample index owns its own stream.
Streams are single-owner: do not share one generator across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_MASK64 = (1 << 64) - 1


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The deterministic stream keyed by ``(seed, stream_id)``.

    Both halves of the Philox key are taken modulo 2**64, so ``seed=-1``
    keys the same stream as ``seed=2**64 - 1``.  The key is built as an
    explicit uint64 array: a plain list holding a half >= 2**63 would be
    inferred as float64 and rounded, making such seeds collide.
    """
    key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_gamma(shape, rate, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, rate) in the shape-rate parametrization.

    Parameters
    ----------
    shape, rate : float
        Both strictly positive.
    size : int or tuple, optional
        When given, returns an array of i.i.d. draws; default is one scalar.
    """
    if not (np.all(np.asarray(shape) > 0) and np.isfinite(np.sum(shape))):
        raise InvalidParameter(f"gamma shape must be > 0, got {shape}")
    if not rate > 0:
        raise InvalidParameter(f"gamma rate must be > 0, got {rate}")
    out = rng.gamma(shape, 1.0 / rate, size=size)
    return float(out) if size is None and np.ndim(shape) == 0 else out


def sample_gaussian_matrix(
    rows: int, cols: int, variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Matrix of i.i.d. N(0, variance) entries, drawn in row-major order.

    Entries are generated as ``sqrt(variance) * standard_normal`` so that
    rescaling the variance rescales a matched-seed draw pathwise.
    """
    if not variance > 0:
        raise InvalidParameter(f"variance must be > 0, got {variance}")
    if rows < 0 or cols < 0:
        raise InvalidParameter("matrix dimensions must be nonnegative")
    return np.sqrt(variance) * rng.standard_normal((rows, cols))


def _bartlett_dof_check(dof: int, dim: int) -> None:
    if dim < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {dim}")
    if not dof > dim:
        raise InvalidParameter(
            f"degrees of freedom must exceed the dimension: dof={dof}, dim={dim}"
        )


def bartlett_chain_draws(dof: int, dim: int, n_layers: int, rng: np.random.Generator):
    """Raw randomness for ``n_layers`` independent Bartlett factors.

    Returns ``(diag, low)`` where ``diag[l, i]`` is the (strictly positive)
    diagonal entry of factor ``l`` -- the square root of a
    Gamma((dof - i) / 2, dof / 2) draw for 0-based row ``i`` -- and
    ``low[l, t]`` the strict lower-triangle entries, i.i.d. N(0, 1/dof),
    in ``numpy.tril_indices`` (row-major) order.

    Draw order is canonical: all diagonal gammas first, then all lower
    normals, each as a single generator call.
    """
    _bartlett_dof_check(dof, dim)
    shapes = (dof - np.arange(dim)) / 2.0
    gammas = rng.gamma(
        np.broadcast_to(shapes, (n_layers, dim)), 2.0 / dof
    )
    n_low = dim * (dim - 1) // 2
    low = rng.standard_normal((n_layers, n_low)) / np.sqrt(dof)
    return np.sqrt(gammas), low


def _fill_lower(diag_row: np.ndarray, low_row: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim))
    out[np.diag_indices(dim)] = diag_row
    out[np.tril_indices(dim, -1)] = low_row
    return out


def sample_bartlett(dof: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """One lower-triangular Bartlett factor V with V @ V.T Wishart-distributed.

    Diagonal entry ``V[i, i]`` (0-based ``i``) is the positive square root of
    a Gamma((dof - i) / 2, dof / 2) draw; strict lower entries are i.i.d.
    N(0, 1/dof); all entries independent.  Requires ``dof > dim``.
    """
    diag, low = bartlett_chain_draws(dof, dim, 1, rng)
    return _fill_lower(diag[0], low[0], dim)


def sample_wishart(
    dof: int, dim: int, rng: np.random.Generator, method: str = "bartlett"
) -> np.ndarray:
    """Wishart draw with ``dof`` degrees of freedom and scale ``I / dof``.

    ``method="bartlett"`` returns V @ V.T from :func:`sample_bartlett`.
    ``method="outer"`` is an independent cross-check route: the sum of
    ``dof`` outer products of N(0, I/dof) vectors.  Both routes target the
    same law; the tests compare their moments.
    """
    _bartlett_dof_check(dof, dim)
    if method == "bartlett":
        factor = sample_bartlett(dof, dim, rng)
        return factor @ factor.T
    if method == "outer":
        g = rng.standard_normal((dim, dof)) / np.sqrt(dof)
        return g @ g.T
    raise InvalidParameter(f"unknown wishart method {method!r}")
