"""Exact finite-network prior: two independent sampling routes.

A deep linear network with Gaussian weights has output
``f = W_L/sqrt(N_L) @ ... @ W_0/sqrt(N_0) @ X``.  The *direct* route draws
every weight matrix and multiplies.  The *mixture* route draws a product of
Bartlett factors ``Vbar = V_L @ ... @ V_1`` plus one standard-normal matrix
``Z`` and returns ``Vbar @ Z @ X / sqrt(N_0 * lambda_star)``; the two routes
have identical laws whenever every hidden width exceeds the output
dimension.  Keeping both alive gives the test suite a pair of independent
oracles for the same distribution.

Both routes run on :func:`montecarlo.sample_map` a block of samples at a
time.  A mixture block draws all its Bartlett gammas, all its lower
normals and all its ``Z`` with one generator call per family, each from
the family's own stream, and multiplies its chains in one
:func:`backend.lt_chain_multiply` call.  :func:`mixture_outputs` is the
``Vbar @ Z @ X`` map it shares with the proportional-limit prior
(``limit.prior_limit_samples``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend, montecarlo
from .errors import InvalidParameter, ShapeMismatch
from .linalg import as_matrix, kron
from .sampling import bartlett_chain_draws

# Variate families of a block (``montecarlo.stream_for``): the finite
# chains' gammas and lower normals, and the mixtures' ``Z``.
FAMILY_GAMMA, FAMILY_LOW, FAMILY_Z = 0, 1, 2
# Normals the direct route draws at a time: a block of wide networks is
# drawn in sub-batches of samples, which leaves its values unchanged.
DIRECT_BATCH_VALUES = 1 << 19


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
        if not all(0 < v < np.inf for v in lambdas):
            raise InvalidParameter(f"all precisions must be finite and > 0, got {lambdas}")
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


def _direct_draws(x: np.ndarray, shape: NetworkShape, rng: np.random.Generator, m: int):
    """``m`` direct-route draws (m, n_out, P), sample-major from ``rng``.

    Sample ``j`` draws every weight matrix ``W_l`` in turn (input layer
    first), row-major, scaled to N(0, 1/lambdas[l]); each layer is one
    batched matmul with its ``1/sqrt(fan_in)`` scaling.  The samples are
    drawn in sub-batches of at most ``DIRECT_BATCH_VALUES`` normals (one
    sample at least).
    """
    dims = (shape.n_in,) + shape.layer_widths + (shape.n_out,)
    sizes = [fan_in * fan_out for fan_in, fan_out in zip(dims, dims[1:])]
    batch = max(1, DIRECT_BATCH_VALUES // sum(sizes))
    out = []
    for lo in range(0, m, batch):
        g = rng.standard_normal((min(batch, m - lo), sum(sizes)))
        h = x
        for l, w in enumerate(np.split(g, np.cumsum(sizes)[:-1], axis=1)):
            w = w.reshape(-1, dims[l + 1], dims[l])
            h = (np.sqrt(1.0 / shape.lambdas[l]) * w @ h) / np.sqrt(dims[l])
        out.append(h)
    return np.concatenate(out)


def forward_direct(x, shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """One prior draw of the network outputs via the weight product.

    Draws every weight matrix ``W_l`` with i.i.d. N(0, 1/lambdas[l]) entries
    (input layer first) and returns the matrix product with the
    ``1/sqrt(fan_in)`` scalings applied layer by layer.
    """
    return _direct_draws(_check_input(x, shape.n_in), shape, rng, 1)[0]


def mixture_outputs(vbar: np.ndarray, z: np.ndarray, x: np.ndarray, lambda_star: float):
    """Outputs ``Vbar @ Z @ x / sqrt(n_in * lambda_star)`` of a batch of mixing draws.

    ``vbar`` is (n, d, d), ``z`` is (n, d, n_in) standard normal and ``x``
    is (n_in, P); returns (n, d, P).  The finite mixture route and the
    proportional-limit prior differ only in the law of ``vbar``.
    """
    scale = 1.0 / np.sqrt(x.shape[0] * lambda_star)
    zx = np.einsum("nij,jk->nik", z, x)
    return np.einsum("nij,njk->nik", vbar, zx) * scale


def prior_covariance_exact(x, n_in: int, lambda_star: float, n_out: int) -> np.ndarray:
    """Closed-form covariance of ``vec(f)`` under the prior.

    Both sampling routes have ``Cov(vec f) = (X.T @ X) / (n_in * lambda_star)
    kron I_{n_out}`` exactly (column-major vec; output index varies fastest).
    Returned symmetric PSD; singular whenever X has collinear columns.
    """
    if not 0 < lambda_star < np.inf:
        raise InvalidParameter(f"lambda_star must be finite and > 0, got {lambda_star}")
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
    """Stack of direct-route draws: (n, n_out, P), a block from one stream."""
    x = _check_input(x, shape.n_in)
    return montecarlo.sample_map(
        lambda streams, m: _direct_draws(x, shape, streams(0), m), n_samples, seed, phase, workers
    )


def _chains(width: int, dim: int, depth: int, streams, m: int) -> np.ndarray:
    """A block's ``m`` Bartlett-chain products: (m, dim, dim)."""
    diag, low = bartlett_chain_draws(
        width, dim, (m, depth), streams(FAMILY_GAMMA), streams(FAMILY_LOW)
    )
    return backend.lt_chain_multiply(diag, low)


def prior_mixture_samples(
    x,
    shape: NetworkShape,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of mixture-route draws: (n, n_out, P).

    A block draws its Bartlett chains (the same as
    :func:`vbar_finite_samples` at this phase) and an ``n_out x n_in``
    standard-normal ``Z`` per sample from the ``FAMILY_Z`` stream, and
    maps them through :func:`mixture_outputs`.  Requires the common-width
    regime (no per-layer ``widths`` override).
    """
    if not shape.uniform_width:
        raise InvalidParameter("the mixture route requires a common hidden width")
    if not 0 < shape.lambda_star < np.inf:
        # Finite precisions can still multiply out to 0 or inf.
        raise InvalidParameter(f"the product of the precisions must be finite and > 0, "
                               f"got {shape.lambda_star}")
    x = _check_input(x, shape.n_in)
    d = shape.n_out

    def draw_block(streams, m: int) -> np.ndarray:
        vbar = _chains(shape.width, d, shape.depth, streams, m)
        z = streams(FAMILY_Z).standard_normal((m, d, shape.n_in))
        return mixture_outputs(vbar, z, x, shape.lambda_star)

    return montecarlo.sample_map(draw_block, n_samples, seed, phase, workers)


def vbar_finite_samples(
    depth: int,
    width: int,
    dim: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of Bartlett-chain products ``V_depth @ ... @ V_1``: (n, dim, dim).

    Factor ``l`` has Wishart(width, I/width) outer product; every product
    is lower triangular with strictly positive diagonal.
    """
    return montecarlo.sample_map(
        lambda streams, m: _chains(width, dim, depth, streams, m),
        n_samples, seed, phase, workers,
    )
