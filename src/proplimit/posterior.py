"""Gaussian-likelihood posterior machinery.

Conditioning on a covariance-shaping matrix Q, the joint outputs at the
test input and the P training inputs are Gaussian with covariance built
from Kronecker blocks of the input Gram matrix and Q.  Observing labels y
with precision beta turns the prior mixture over Q into a reweighted
mixture: each component keeps a Gaussian law with starred moments
(m*(Q), Sigma*(Q)), and Q is reweighted by exp(-Psi(Q)/2).  This module
computes those quantities, performs self-normalized importance weighting
over mixing draws, and reduces mixtures to predictive moments.

The training block is s11 = G11 kron Q, so every starred quantity is
diagonal in the product eigenbasis U kron V of G11 = U diag(lam) U.T and
Q = V diag(mu) V.T (the Kronecker-GP identity of Saatci, 2011).  One SVD
of the training inputs (X / sqrt(n_in) = W diag(sqrt(lam)) U.T) is shared
by all components and one batched ``eigh`` of the (n, d, d) Q stack gives
every component in closed form, O(d^3 + d^2 P) each.  The Moore-Penrose
inverse of s11 becomes a mask on the products lam mu with the cutoff
``linalg.pinv`` applies, so singular Gram matrices (repeated or collinear
inputs) need no separate code path.

The dense per-Q oracles (:func:`starred` and its simplification
:func:`starred_invertible`) form the Kronecker blocks and invert them
directly.  They are references for the tests and the property suites,
not a production path, and the only code here that needs scipy: they
import it when called, so importing this module loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMixing, InvalidParameter, ShapeMismatch
from .linalg import as_matrix, cholesky, kron, pinv, symmetrize

DEGENERATE_ESS = 1.5
LOW_ESS_FRACTION = 0.10


@dataclass(frozen=True)
class Dataset:
    """Supervised data plus one test input.

    ``x`` is n_in x P (training inputs as columns), ``y`` is n_out x P
    (labels), ``x0`` the test input, ``beta`` the finite, nonnegative label
    precision.
    The stacked input matrix [x0, x] and the column-stacked label vector
    are derived once at construction.
    """

    x: np.ndarray
    y: np.ndarray
    x0: np.ndarray
    beta: float
    x_tilde: np.ndarray = field(init=False, repr=False)
    y_vec: np.ndarray = field(init=False, repr=False)
    _g00: float = field(init=False, repr=False)
    _g01: np.ndarray = field(init=False, repr=False)
    _g11: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_matrix(self.y, "y")
        x0 = np.asarray(self.x0, dtype=np.float64).reshape(-1)
        if x0.shape[0] != x.shape[0]:
            raise ShapeMismatch(
                f"x0 has length {x0.shape[0]}, x has {x.shape[0]} rows"
            )
        if y.shape[1] != x.shape[1]:
            raise ShapeMismatch(
                f"y has {y.shape[1]} columns, x has {x.shape[1]}"
            )
        if x.shape[1] < 1:
            raise InvalidParameter("need at least one training input")
        if not np.isfinite(x0).all():
            raise InvalidParameter("x0 contains non-finite entries")
        if not 0 <= self.beta < np.inf:
            raise InvalidParameter(f"beta must be finite and >= 0, got {self.beta}")
        n_in = x.shape[0]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x_tilde", np.column_stack([x0, x]))
        object.__setattr__(self, "y_vec", y.reshape(-1, order="F").copy())
        object.__setattr__(self, "_g00", float(x0 @ x0) / n_in)
        object.__setattr__(self, "_g01", (x0 @ x)[None, :] / n_in)
        gram = (x.T @ x) / n_in
        object.__setattr__(self, "_g11", (gram + gram.T) / 2.0)

    @property
    def n_in(self) -> int:
        return self.x.shape[0]

    @property
    def n_train(self) -> int:
        return self.x.shape[1]

    @property
    def n_out(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class SigmaBlocks:
    """Block covariance: test/test, test/train, train/train."""

    s00: np.ndarray
    s01: np.ndarray
    s11: np.ndarray

    def full(self) -> np.ndarray:
        top = np.hstack([self.s00, self.s01])
        bottom = np.hstack([self.s01.T, self.s11])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class PosteriorMixture:
    """Weighted Gaussian components plus importance-sampling diagnostics.

    ``means[i]`` (length ``n_out``) and ``covariances[i]`` (``n_out`` x
    ``n_out``) are the starred moments of component i at the test input;
    :func:`joint_moments` gives the full joint including the training
    block.  ``weights`` are normalized to sum to one; ``ess`` is the
    effective sample size ``(sum w)^2 / sum w^2``.  ``psi`` holds each
    component's weight exponent and ``n_nonfinite`` counts components
    whose Psi or moments are not finite.  ``warnings`` lists non-fatal
    diagnostics ("degenerate-weights" when ess < 1.5, "low-ess" below 10%
    of the component count).
    """

    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    ess: float
    psi: np.ndarray
    n_nonfinite: int
    warnings: tuple = ()

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.means.shape[1]

    @property
    def max_weight(self) -> float:
        """Largest normalized weight: 1/n when even, 1 when one component dominates."""
        return float(self.weights.max())

    @property
    def psi_range(self) -> tuple:
        """Smallest and largest weight exponent Psi over the components."""
        return float(self.psi.min()), float(self.psi.max())


def _check_q(q, n_out: int) -> np.ndarray:
    """Symmetrized Q (or (n, d, d) stack of Qs) after shape and PD checks."""
    q = symmetrize(q, name="Q")
    if q.shape[-1] != n_out:
        raise ShapeMismatch(f"Q is {q.shape[-1]}x{q.shape[-1]}, expected {n_out}")
    cholesky(q, name="Q")  # mixing matrices must be strictly positive definite
    return q


def sigma_of_q(q, data: Dataset) -> SigmaBlocks:
    """Covariance blocks of the joint outputs given Q.

    s00 = (x0.x0/n_in) Q, s01 = (x0.X/n_in) kron Q, s11 = (X.X/n_in) kron Q.
    """
    q = _check_q(q, data.n_out)
    return SigmaBlocks(
        s00=data._g00 * q,
        s01=kron(data._g01, q),
        s11=kron(data._g11, q),
    )


def _resolvent(s11: np.ndarray, beta: float):
    # Cholesky of I + beta * s11 (always SPD for beta >= 0, s11 PSD).
    a = np.eye(s11.shape[0]) + beta * s11
    return cholesky(a)


def _chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(chol chol.T)^-1 b`` for a lower Cholesky factor ``chol``.

    Only the dense oracles solve this way, so scipy is imported here, on
    the first call, and stays off the sampling commands' import path.
    """
    from scipy.linalg import cho_solve

    return cho_solve((chol, True), b, check_finite=False)


def starred(q, data: Dataset):
    """Dense per-Q oracle: ``(SigmaBlocks, mean, psi)`` of the posterior component.

    Starred blocks, with s11^- the Moore-Penrose inverse:
    s11* = s11 (I + beta s11)^-1;
    s01* = s01 s11^- s11*;
    s00* = s00 - s01 s11^- (I - s11* s11^-) s01.T.
    Mean [beta s01 s11^- s11* y; beta s11* y].  Weight exponent
    Psi = beta y.(I+beta s11)^-1 y + logdet(I + beta s11), through one
    Cholesky factor with the log-determinant in log space.  At beta = 0
    the blocks are unshrunk and the mean and Psi are zero.
    """
    blocks = sigma_of_q(q, data)
    beta = data.beta
    s00, s01, s11 = blocks.s00, blocks.s01, blocks.s11
    chol = _resolvent(s11, beta)

    # s11 (I + beta s11)^-1 is symmetric; solve from the left and transpose.
    s11_star = _chol_solve(chol, s11).T
    s11_star = (s11_star + s11_star.T) / 2.0

    s11_pinv = pinv(s11)
    bridge = s01 @ s11_pinv                      # test/train transfer
    s01_star = bridge @ s11_star
    inner = np.eye(s11.shape[0]) - s11_star @ s11_pinv
    s00_star = s00 - bridge @ inner @ s01.T
    s00_star = (s00_star + s00_star.T) / 2.0

    m_bottom = beta * (s11_star @ data.y_vec)
    m_top = beta * (bridge @ (s11_star @ data.y_vec))
    mean = np.concatenate([m_top, m_bottom])

    solve_y = _chol_solve(chol, data.y_vec)
    psi_value = float(
        beta * (data.y_vec @ solve_y) + 2.0 * np.sum(np.log(np.diag(chol)))
    )
    return SigmaBlocks(s00_star, s01_star, s11_star), mean, psi_value


def starred_invertible(q, data: Dataset):
    """Simplified ``(SigmaBlocks, mean)`` of :func:`starred`, valid when s11 is invertible.

    s01* = s01 (I + beta s11)^-1,
    s00* = s00 - beta s01 (I + beta s11)^-1 s01.T and the mean's top block
    beta s01 (I + beta s11)^-1 y.  An independent cross-check of
    :func:`starred`; the beta factor in s00* is required for consistency
    with the Moore-Penrose form (both reduce to the unshrunk blocks at
    beta = 0).
    """
    blocks = sigma_of_q(q, data)
    beta = data.beta
    chol = _resolvent(blocks.s11, beta)
    shrunk = _chol_solve(chol, blocks.s11).T
    s11_star = (shrunk + shrunk.T) / 2.0
    s01_star = _chol_solve(chol, blocks.s01.T).T
    s00_star = blocks.s00 - beta * (s01_star @ blocks.s01.T)
    solve_y = _chol_solve(chol, data.y_vec)
    mean = np.concatenate([beta * (blocks.s01 @ solve_y), beta * (shrunk @ data.y_vec)])
    return SigmaBlocks((s00_star + s00_star.T) / 2.0, s01_star, s11_star), mean


def _mixing_stack(mixing) -> np.ndarray:
    """Q draws as one (n, d, d) array."""
    try:
        stack = np.asarray(mixing, dtype=np.float64)
    except ValueError as exc:  # ragged: some Q has another size
        raise ShapeMismatch(f"mixing draws do not stack to (n, d, d): {exc}") from exc
    if stack.shape[0] == 0:
        raise EmptyMixing("a posterior mixture needs at least one mixing draw")
    return stack


@dataclass(frozen=True)
class _Spectrum:
    """Product eigenbasis of s11 = G11 kron Q for a stack of Q draws.

    G11 = U diag(lam) U.T is shared; Q_n = V_n diag(mu_n) V_n.T per draw.
    Arrays indexed (n, j, p) pair output eigenvalue mu_j with input
    eigenvalue lam_p: ``z = V.T Y U`` is the label matrix in that basis,
    ``denom = 1 + beta lam mu`` the eigenvalues of I + beta s11, and
    ``mask`` keeps the products lam mu that ``linalg.pinv`` keeps in s11.
    With x0 / sqrt(n_in) = W a + e (e orthogonal to the left singular
    vectors W of the training inputs), ``a`` holds the test input's
    coordinates, ``c = a sqrt(lam) = g01 U`` the test/train Gram row in the
    input eigenbasis and ``r0 = |e|^2`` the squared residual of x0 off the
    span of the training inputs, so g00 = r0 + sum a^2.
    """

    lam: np.ndarray     # (P,)
    u: np.ndarray       # (P, P)
    a: np.ndarray       # (P,)
    c: np.ndarray       # (P,)
    r0: float
    mu: np.ndarray      # (n, d)
    v: np.ndarray       # (n, d, d)
    z: np.ndarray       # (n, d, P)
    denom: np.ndarray   # (n, d, P)
    mask: np.ndarray    # (n, d, P)


def _spectrum(qs: np.ndarray, data: Dataset) -> _Spectrum:
    d, p = data.n_out, data.n_train
    if qs.ndim != 3:
        raise ShapeMismatch(f"Q stack has shape {qs.shape}, expected (n, {d}, {d})")
    qs = _check_q(qs, d)
    root_n = np.sqrt(data.n_in)
    # Full U even when n_in < P: the null directions of G11 still carry labels.
    w, sing, ut = np.linalg.svd(data.x / root_n, full_matrices=data.n_in < p)
    lam = np.zeros(p)
    lam[: sing.size] = sing**2
    a = np.zeros(p)
    a[: sing.size] = w.T @ data.x0 / root_n
    resid = data.x0 / root_n - w @ a[: sing.size]
    mu, v = np.linalg.eigh(qs)
    z = np.swapaxes(v, 1, 2) @ (data.y @ ut.T)
    lam_mu = mu[:, :, None] * lam
    # linalg.pinv's cutoff on the singular values |lam mu| of s11.
    cutoff = p * d * np.finfo(np.float64).eps * np.abs(lam_mu).max(axis=(1, 2))
    return _Spectrum(
        lam=lam, u=ut.T, a=a, c=a * np.sqrt(lam), r0=float(resid @ resid),
        mu=mu, v=v, z=z,
        denom=1.0 + data.beta * lam_mu, mask=lam_mu > cutoff[:, None, None],
    )


def _spectral_core(sp: _Spectrum, data: Dataset):
    """Weight exponents and test-block moments of every component at once.

    In the product eigenbasis every starred quantity is diagonal:
    Psi = beta sum z^2 / denom + sum log denom;
    m0 = beta V sum_p g_jp z_jp;
    S00* = V diag(mu_j (g00 - beta sum_p c_p g_jp)) V.T,
    with ``g = mask c mu / denom``, the transfer s01 s11^- s11* in that
    basis.  S00* is evaluated in the equivalent residual form
    mu_j (r0 + sum_p a_p^2 / denom_jp), with denom_jp read as 1 where the
    mask drops (j, p): subtracting the projected part of g00 cancels
    catastrophically once beta lam mu is large, and can turn the variance
    negative.  Returns ``(psi, m0, s00, g)``.
    """
    beta = data.beta
    psi = beta * np.sum(sp.z**2 / sp.denom, axis=(1, 2)) + np.sum(
        np.log(sp.denom), axis=(1, 2)
    )
    g = np.where(sp.mask, sp.c * sp.mu[:, :, None] / sp.denom, 0.0)
    m0 = beta * np.einsum("nij,nj->ni", sp.v, np.sum(g * sp.z, axis=2))
    eig00 = sp.mu * (sp.r0 + np.where(sp.mask, 1.0 / sp.denom, 1.0) @ sp.a**2)
    s00 = (sp.v * eig00[:, None, :]) @ np.swapaxes(sp.v, 1, 2)
    return psi, m0, (s00 + np.swapaxes(s00, 1, 2)) / 2.0, g


def posterior_mixture(mixing, data: Dataset) -> PosteriorMixture:
    """Self-normalized importance-weighted posterior mixture.

    ``mixing`` is a sequence (or (n, d, d) stack) of Q draws from the prior
    mixing law.  Each component gets log-weight ``-Psi(Q)/2``; weights are
    max-subtracted before exponentiation and normalized to sum to one.  The
    effective sample size is always reported; degenerate weightings are
    flagged in ``warnings`` rather than raised.

    All components come from one batched eigendecomposition of the Q stack
    (see :func:`_spectral_core`), O(d^3 + d^2 P) per component; only the
    test block of each component is kept.
    """
    qs = _mixing_stack(mixing)
    n = qs.shape[0]
    psi_values, means, covs, _ = _spectral_core(_spectrum(qs, data), data)
    log_w = -0.5 * psi_values
    log_w -= log_w.max()
    weights = np.exp(log_w)
    total = weights.sum()
    ess = float(total**2 / np.sum(weights**2))
    weights = weights / total

    finite = (
        np.isfinite(psi_values)
        & np.isfinite(means).all(axis=1)
        & np.isfinite(covs).all(axis=(1, 2))
    )
    warnings = []
    if ess < DEGENERATE_ESS:
        warnings.append("degenerate-weights")
    if ess < LOW_ESS_FRACTION * n:
        warnings.append("low-ess")
    return PosteriorMixture(
        means, covs, weights, ess, psi_values, int(n - finite.sum()), tuple(warnings)
    )


def joint_moments(mixing, data: Dataset):
    """Starred moments of the full joint outputs, one row per Q draw.

    Returns ``(means, covariances)`` of shapes (n, k) and (n, k, k) with
    k = n_out (P + 1), test block leading: the batched counterpart of the
    mean and ``blocks.full()`` of :func:`starred`, from the same spectral
    core as :func:`posterior_mixture`.
    """
    qs = _mixing_stack(mixing)
    sp = _spectrum(qs, data)
    _, m0, s00, g = _spectral_core(sp, data)
    n, d, p = sp.z.shape
    shrink = sp.lam * sp.mu[:, :, None] / sp.denom  # eigenvalues of s11*
    m1 = data.beta * np.einsum("nij,njr,pr->npi", sp.v, shrink * sp.z, sp.u)
    s01 = np.einsum("nij,njr,qr,nkj->niqk", sp.v, g, sp.u, sp.v, optimize=True)
    s11 = np.einsum(
        "pr,nij,njr,qr,nkj->npiqk", sp.u, sp.v, shrink, sp.u, sp.v, optimize=True
    ).reshape(n, p * d, p * d)
    s11 = (s11 + np.swapaxes(s11, 1, 2)) / 2.0
    s01 = s01.reshape(n, d, p * d)
    top = np.concatenate([s00, s01], axis=2)
    bottom = np.concatenate([np.swapaxes(s01, 1, 2), s11], axis=2)
    means = np.concatenate([m0, m1.reshape(n, p * d)], axis=1)
    return means, np.concatenate([top, bottom], axis=1)


def predictive_moments(mix: PosteriorMixture):
    """Predictive mean and covariance at the test input.

    mean = sum_i w_i m0_i;
    cov  = sum_i w_i S00_i + (sum_i w_i m0_i m0_i.T - mean mean.T).
    The label-dependent part is accumulated separately so that a point-mass
    mixture has covariance exactly equal to its component block.
    """
    m0, s00, w = mix.means, mix.covariances, mix.weights
    mean = np.einsum("n,ni->i", w, m0)
    cov_within = np.einsum("n,nij->ij", w, s00)
    second = np.einsum("n,ni,nj->ij", w, m0, m0)
    cov = cov_within + (second - np.outer(mean, mean))
    return mean, cov


def nngp_mixing(n_out: int) -> np.ndarray:
    """The point-mass mixing of the infinite-width regime: one identity Q."""
    return np.eye(n_out)[None, :, :]
