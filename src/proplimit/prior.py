"""Exact finite-network prior: two independent sampling routes.

A deep linear network with Gaussian weights has output
``f = W_L/sqrt(N_L) @ ... @ W_0/sqrt(N_0) @ X``.  The *direct* route draws
every weight matrix and multiplies.  The *mixture* route draws a product of
Bartlett factors ``Vbar = V_L @ ... @ V_1`` plus one standard-normal matrix
``Z`` and returns ``Vbar @ Z @ X / sqrt(N_0 * lambda_star)``; the two routes
have identical laws whenever every hidden width exceeds the output
dimension.  Keeping both alive gives the test suite a pair of independent
oracles for the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend, montecarlo
from .errors import InvalidParameter, ShapeMismatch
from .linalg import as_matrix, kron
from .sampling import bartlett_chain_draws, sample_gaussian_matrix


def _is_whole(value) -> bool:
    try:
        return not isinstance(value, bool) and float(value).is_integer()
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class NetworkShape:
    """Architecture and precision schedule of a deep linear network.

    Parameters
    ----------
    n_in : int
        Input dimension (rows of X).
    n_out : int
        Output dimension.
    depth : int
        Number of hidden layers.
    width : int
        Common hidden width; must exceed ``n_out`` so the mixture
        representation applies.
    lambdas : sequence of float, length depth + 1
        Per-layer weight precisions; layer ``l`` weights have variance
        ``1 / lambdas[l]``.
    widths : sequence of int, optional
        Per-layer width override.  Only the direct route supports unequal
        widths; the mixture route requires the common-width regime.
    """

    n_in: int
    n_out: int
    depth: int
    width: int
    lambdas: tuple = None
    widths: tuple = None

    def __post_init__(self):
        if self.n_in < 1 or self.n_out < 1 or self.depth < 1:
            raise InvalidParameter(
                f"need n_in, n_out, depth >= 1; got {self.n_in}, "
                f"{self.n_out}, {self.depth}"
            )
        if not self.width > self.n_out:
            raise InvalidParameter(
                f"width must exceed n_out: width={self.width}, n_out={self.n_out}"
            )
        lambdas = self.lambdas
        if lambdas is None:
            lambdas = (1.0,) * (self.depth + 1)
        lambdas = tuple(float(v) for v in np.atleast_1d(lambdas))
        if len(lambdas) != self.depth + 1:
            raise InvalidParameter(
                f"need depth + 1 = {self.depth + 1} precisions, got {len(lambdas)}"
            )
        if not all(v > 0 for v in lambdas):
            raise InvalidParameter("all precisions must be > 0")
        object.__setattr__(self, "lambdas", lambdas)
        if self.widths is not None:
            if not all(_is_whole(w) for w in self.widths):
                raise InvalidParameter(f"widths must be whole numbers, got {self.widths}")
            widths = tuple(int(w) for w in self.widths)
            if len(widths) != self.depth or any(w < 1 for w in widths):
                raise InvalidParameter(
                    f"widths needs {self.depth} entries, all >= 1"
                )
            object.__setattr__(self, "widths", widths)

    @property
    def lambda_star(self) -> float:
        """Product of all layer precisions."""
        return float(np.prod(self.lambdas))

    @property
    def layer_widths(self) -> tuple:
        return self.widths if self.widths is not None else (self.width,) * self.depth

    @property
    def uniform_width(self) -> bool:
        return self.widths is None or all(w == self.width for w in self.widths)


def _check_input(x, n_in: int) -> np.ndarray:
    x = as_matrix(x, "x")
    if x.shape[0] != n_in:
        raise ShapeMismatch(f"x has {x.shape[0]} rows, network expects {n_in}")
    return x


def forward_direct(x, shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """One prior draw of the network outputs via the weight product.

    Draws every weight matrix ``W_l`` with i.i.d. N(0, 1/lambdas[l]) entries
    (input layer first) and returns the matrix product with the
    ``1/sqrt(fan_in)`` scalings applied layer by layer.
    """
    x = _check_input(x, shape.n_in)
    dims = (shape.n_in,) + shape.layer_widths + (shape.n_out,)
    h = x
    for l in range(shape.depth + 1):
        w = sample_gaussian_matrix(dims[l + 1], dims[l], 1.0 / shape.lambdas[l], rng)
        h = (w @ h) / np.sqrt(dims[l])
    return h


def sample_vbar_finite(
    depth: int, width: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Product of ``depth`` i.i.d. Bartlett factors, lower triangular.

    Factor ``l`` has Wishart(width, I/width) outer product; the returned
    product ``V_depth @ ... @ V_1`` has strictly positive diagonal.
    """
    diag, low = bartlett_chain_draws(width, dim, depth, rng)
    chained = backend.lt_chain_multiply(
        np.ascontiguousarray(diag[None]), np.ascontiguousarray(low[None])
    )
    return chained[0]


def sample_prior_mixture(x, shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """One prior draw via the Gaussian-mixture representation.

    Draws ``Vbar`` with :func:`sample_vbar_finite` then an independent
    ``n_out x n_in`` standard-normal ``Z`` and returns
    ``Vbar @ Z @ x / sqrt(n_in * lambda_star)``.  Requires the common-width
    regime (no per-layer ``widths`` override).
    """
    if not shape.uniform_width:
        raise InvalidParameter("the mixture route requires a common hidden width")
    x = _check_input(x, shape.n_in)
    vbar = sample_vbar_finite(shape.depth, shape.width, shape.n_out, rng)
    z = rng.standard_normal((shape.n_out, shape.n_in))
    # einsum + reciprocal scale keeps this bit-identical to the batched driver
    scale = 1.0 / np.sqrt(shape.n_in * shape.lambda_star)
    return np.einsum("ij,jk->ik", vbar, np.einsum("ij,jk->ik", z, x)) * scale


def prior_covariance_exact(x, n_in: int, lambda_star: float, n_out: int) -> np.ndarray:
    """Closed-form covariance of ``vec(f)`` under the prior.

    Both sampling routes have ``Cov(vec f) = (X.T @ X) / (n_in * lambda_star)
    kron I_{n_out}`` exactly (column-major vec; output index varies fastest).
    Returned symmetric PSD; singular whenever X has collinear columns.
    """
    if not lambda_star > 0:
        raise InvalidParameter(f"lambda_star must be > 0, got {lambda_star}")
    x = _check_input(x, n_in)
    gram = (x.T @ x) / (n_in * lambda_star)
    gram = (gram + gram.T) / 2.0
    return kron(gram, np.eye(n_out))


def matnormal_vec_cov(h, k, sigma1, sigma2) -> np.ndarray:
    """Covariance of ``vec(H @ Z @ K)`` for matrix-normal ``Z``.

    For ``Z`` with row covariance ``sigma1`` and column covariance
    ``sigma2`` (so ``vec(Z) ~ N(0, sigma2 kron sigma1)``), linear maps act as
    ``H Z K ~ MN(0, H sigma1 H.T, K.T sigma2 K)`` and therefore
    ``Cov(vec(H Z K)) = (K.T sigma2 K) kron (H sigma1 H.T)``.
    """
    h = as_matrix(h, "h")
    k = as_matrix(k, "k")
    sigma1 = as_matrix(sigma1, "sigma1")
    sigma2 = as_matrix(sigma2, "sigma2")
    if h.shape[1] != sigma1.shape[0] or sigma1.shape[0] != sigma1.shape[1]:
        raise ShapeMismatch("sigma1 must be square with dim = cols of h")
    if k.shape[0] != sigma2.shape[0] or sigma2.shape[0] != sigma2.shape[1]:
        raise ShapeMismatch("sigma2 must be square with dim = rows of k")
    return kron(k.T @ sigma2 @ k, h @ sigma1 @ h.T)


def forward_direct_samples(
    x,
    shape: NetworkShape,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of direct-route draws, one per-sample stream each: (n, n_out, P)."""
    x = _check_input(x, shape.n_in)
    return montecarlo.sample_map(
        lambda rng: forward_direct(x, shape, rng), n_samples, seed, phase, workers
    )


def prior_mixture_samples(
    x,
    shape: NetworkShape,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of mixture-route draws: (n, n_out, P).

    Sample ``i`` consumes its stream exactly like
    :func:`sample_prior_mixture`, but the triangular chains are multiplied
    in batched kernel calls for speed.
    """
    if not shape.uniform_width:
        raise InvalidParameter("the mixture route requires a common hidden width")
    x = _check_input(x, shape.n_in)
    d, n_in, p = shape.n_out, shape.n_in, x.shape[1]
    depth = shape.depth
    n_low = d * (d - 1) // 2
    scale = 1.0 / np.sqrt(n_in * shape.lambda_star)
    out = np.empty((n_samples, d, p))

    def run(lo: int, hi: int) -> None:
        m = hi - lo
        diag = np.empty((m, depth, d))
        low = np.empty((m, depth, n_low))
        z = np.empty((m, d, n_in))
        for j in range(m):
            rng = montecarlo.stream_for(seed, phase, lo + j)
            diag[j], low[j] = bartlett_chain_draws(shape.width, d, depth, rng)
            z[j] = rng.standard_normal((d, n_in))
        vbar = backend.lt_chain_multiply(diag, low)
        zx = np.einsum("nij,jk->nik", z, x)
        out[lo:hi] = np.einsum("nij,njk->nik", vbar, zx) * scale

    montecarlo.chunked_map(run, n_samples, workers)
    return out


def vbar_finite_samples(
    depth: int,
    width: int,
    dim: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of Bartlett-chain products: (n, dim, dim)."""
    n_low = dim * (dim - 1) // 2
    out = np.empty((n_samples, dim, dim))

    def run(lo: int, hi: int) -> None:
        m = hi - lo
        diag = np.empty((m, depth, dim))
        low = np.empty((m, depth, n_low))
        for j in range(m):
            rng = montecarlo.stream_for(seed, phase, lo + j)
            diag[j], low[j] = bartlett_chain_draws(width, dim, depth, rng)
        out[lo:hi] = backend.lt_chain_multiply(diag, low)

    montecarlo.chunked_map(run, n_samples, workers)
    return out
