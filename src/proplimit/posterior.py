"""Gaussian-likelihood posterior machinery.

Conditioning on a covariance-shaping matrix Q, the joint outputs at the
test input and the P training inputs are Gaussian with covariance built
from Kronecker blocks of the input Gram matrix and Q.  Observing labels y
with precision beta turns the prior mixture over Q into a reweighted
mixture: each component keeps a Gaussian law with starred moments
(m*(Q), Sigma*(Q)), and Q is reweighted by exp(-Psi(Q)/2).  This module
computes those quantities, weights the samplers' mixing factors Vbar (with
Q = Vbar Vbar.T) by self-normalized importance sampling, and reduces
mixtures to predictive moments.

The training block is s11 = G11 kron Q, so every starred quantity is
diagonal in the product eigenbasis U kron V of G11 = U diag(lam) U.T and
Q = V diag(mu) V.T (the Kronecker-GP identity of Saatci, 2011).  One thin
SVD X / sqrt(n_in) = W diag(sqrt(lam)) U.T (r = min(n_in, P) columns in U;
one Q-free scalar covers the other P - r directions) and one batched
``eigh`` of the Q stack give every component in closed form, O(d^3 + d^2 r)
each.  No pseudo-inverse or rank decision is needed: the test input's Gram
row x0.X / n_in lies in the row space of G11, so s01 s11^- s11 = s01 and
the Moore-Penrose blocks reduce exactly to the resolvent form
s01 (I + beta s11)^-1, whose eigenvalues 1 / (1 + beta lam mu) are defined
for singular Gram matrices (repeated or collinear inputs) as for any other.
At P = 3000 training inputs a mixture is byte-equal at one and two BLAS
threads with n_in = 3 or 50 input rows (the cases ``tests/test_verify.py``
checks), but not with n_in = 200.

The dense per-Q oracles form the Kronecker blocks and solve with them
directly: :func:`starred` in the Moore-Penrose form, the one caller of
``linalg.pinv`` here, and :func:`starred_invertible` in the resolvent
form.  They are references for the tests and the property suites,
not a production path, and the only code here that needs scipy: they
import it when called, so importing this module loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo
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
    """

    x: np.ndarray
    y: np.ndarray
    x0: np.ndarray
    beta: float

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
        beta = montecarlo.real(self.beta, "beta")
        if not 0 <= beta < np.inf:
            raise InvalidParameter(f"beta must be finite and >= 0, got {beta}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "beta", beta)

    @property
    def y_vec(self) -> np.ndarray:
        """The labels stacked column by column: y[:, 0], then y[:, 1], ..."""
        return self.y.reshape(-1, order="F")

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
    diagnostics ("degenerate-weights" when ess < 1.5 over two or more
    components, "low-ess" below 10% of the component count).
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
        """Smallest and largest finite weight exponent Psi over the components."""
        finite = self.psi[np.isfinite(self.psi)]
        return float(finite.min()), float(finite.max())


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
    x, x0, n_in = data.x, data.x0, data.n_in
    gram = (x.T @ x) / n_in
    return SigmaBlocks(
        s00=(float(x0 @ x0) / n_in) * q,
        s01=kron((x0 @ x)[None, :] / n_in, q),
        s11=kron((gram + gram.T) / 2.0, q),
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
    """Resolvent-form ``(SigmaBlocks, mean)`` of :func:`starred`, valid for every dataset.

    s01* = s01 (I + beta s11)^-1,
    s00* = s00 - beta s01 (I + beta s11)^-1 s01.T and the mean's top block
    beta s01 (I + beta s11)^-1 y.  These equal the Moore-Penrose forms of
    :func:`starred` whether or not s11 is invertible: the Gram row x0.X
    lies in the row space of X.X, so s01 s11^- s11 = s01.  No
    pseudo-inverse is needed, and since I + beta s11 >= I the Cholesky
    solves stay accurate on a singular s11.  An independent cross-check of
    :func:`starred`; both reduce to the unshrunk blocks at beta = 0.
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


@dataclass(frozen=True)
class _Components:
    """Every component of a Q stack, in the product eigenbasis of s11 = G11 kron Q.

    G11 = U diag(lam) U.T is shared, U the P x r thin basis (r = min(n_in, P));
    Q_n = V_n diag(mu_n) V_n.T per draw.  Arrays indexed (n, j, k) pair
    mu_j with lam_k: ``z = V.T Y U`` is the label matrix in that basis,
    ``denom = 1 + beta lam mu`` the eigenvalues of I + beta s11 and ``g``
    the test/train transfer s01 (I + beta s11)^-1.  ``psi``, ``m0`` and
    ``s00`` are each component's weight exponent, test-block mean and
    test-block covariance.
    """

    psi: np.ndarray     # (n,)
    m0: np.ndarray      # (n, d)
    s00: np.ndarray     # (n, d, d)
    g: np.ndarray       # (n, d, r)
    lam: np.ndarray     # (r,)
    u: np.ndarray       # (P, r)
    mu: np.ndarray      # (n, d)
    v: np.ndarray       # (n, d, d)
    z: np.ndarray       # (n, d, r)
    denom: np.ndarray   # (n, d, r)


def _components(mixing, data: Dataset) -> _Components:
    """Weight exponents and starred moments of every mixing draw at once.

    ``mixing`` is a sequence or (n, d, d) stack of mixing factors Vbar; one
    batched Cholesky checks every Q = Vbar Vbar.T positive definite.

    With x0 / sqrt(n_in) = W a + e (e orthogonal to the left singular
    vectors W of the training inputs), ``a`` holds the test input's
    coordinates, ``c = a sqrt(lam) = g01 U`` the test/train Gram row in the
    input eigenbasis and ``r0 = |e|^2`` the squared residual of x0 off the
    span of the training inputs, so g00 = r0 + sum a^2.  In the product
    eigenbasis every starred quantity is diagonal:
    Psi = beta (sum z^2 / denom + |Y - Y U U.T|^2) + sum log denom;
    m0 = beta V sum_k g_jk z_jk, with g = c mu / denom;
    S00* = V diag(mu_j (g00 - beta sum_k c_k g_jk)) V.T.
    c is 0 wherever lam is, since g01 lies in the row space of G11, so no
    direction needs a rank decision.  Off the span of U, denom = 1 and g = 0:
    those P - r directions add only the Q-free |Y - Y U U.T|^2 (not
    |Y|^2 - |Y U|^2, which cancels near the span).  S00* is evaluated in the
    residual form mu_j (r0 + sum_k a_k^2 / denom_jk): subtracting the
    projected part of g00 cancels catastrophically once beta lam mu is
    large, and can turn the variance negative.
    """
    try:
        vbars = np.asarray(mixing, dtype=np.float64)
    except ValueError as exc:  # ragged: some factor has another size
        raise ShapeMismatch(f"mixing draws do not stack to (n, d, d): {exc}") from exc
    if vbars.shape[:1] == (0,):
        raise EmptyMixing("a posterior mixture needs at least one mixing draw")
    d = data.n_out
    if vbars.ndim != 3 or vbars.shape[1:] != (d, d):
        raise ShapeMismatch(f"mixing stack has shape {vbars.shape}, expected (n, {d}, {d})")
    qs = np.einsum("nij,nkj->nik", vbars, vbars)
    cholesky(qs, name="Q")  # mixing matrices must be strictly positive definite
    beta, root_n = data.beta, np.sqrt(data.n_in)
    w, sing, ut = np.linalg.svd(data.x / root_n, full_matrices=False)
    lam = sing**2
    a = w.T @ data.x0 / root_n
    resid = data.x0 / root_n - w @ a
    r0 = float(resid @ resid)
    mu, v = np.linalg.eigh(qs)
    y_in = data.y @ ut.T
    null = float(np.sum((data.y - y_in @ ut) ** 2))
    z = np.swapaxes(v, 1, 2) @ y_in
    denom = 1.0 + beta * (mu[:, :, None] * lam)
    psi = beta * (np.sum(z**2 / denom, axis=(1, 2)) + null) + np.sum(np.log(denom), axis=(1, 2))
    g = a * np.sqrt(lam) * mu[:, :, None] / denom
    m0 = beta * np.einsum("nij,nj->ni", v, np.sum(g * z, axis=2))
    eig00 = mu * (r0 + (1.0 / denom) @ a**2)
    s00 = (v * eig00[:, None, :]) @ np.swapaxes(v, 1, 2)
    return _Components(
        psi=psi, m0=m0, s00=(s00 + np.swapaxes(s00, 1, 2)) / 2.0, g=g,
        lam=lam, u=ut.T, mu=mu, v=v, z=z, denom=denom,
    )


def posterior_mixture(mixing, data: Dataset) -> PosteriorMixture:
    """Self-normalized importance-weighted posterior mixture.

    ``mixing`` is a sequence (or (n, d, d) stack) of mixing factors Vbar,
    as the samplers and :func:`nngp_mixing` draw them.  Component i, with
    Q = Vbar_i Vbar_i.T, gets log-weight ``-Psi(Q)/2``; weights are
    max-subtracted before exponentiation and normalized to sum to one.  The
    effective sample size is always reported; degenerate weightings are
    flagged in ``warnings`` rather than raised.

    All components come from one batched eigendecomposition of the Q stack
    (see :func:`_components`), O(d^3 + d^2 r) per component; only the
    test block of each component is kept.  A component whose Psi is not
    finite gets weight 0; if no component has a finite Psi there is no
    weighting at all, and :class:`EmptyMixing` is raised.
    """
    comp = _components(mixing, data)
    psi_values, means, covs = comp.psi, comp.m0, comp.s00
    n = psi_values.shape[0]
    finite_psi = np.isfinite(psi_values)
    if not finite_psi.any():
        raise EmptyMixing(f"none of the {n} mixing draws has a finite weight exponent Psi")
    log_w = np.where(finite_psi, -0.5 * psi_values, -np.inf)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    total = weights.sum()
    ess = float(total**2 / np.sum(weights**2))
    weights = weights / total

    finite = (
        finite_psi
        & np.isfinite(means).all(axis=1)
        & np.isfinite(covs).all(axis=(1, 2))
    )
    warnings = []
    if n >= 2 and ess < DEGENERATE_ESS:  # one component is a point mass by design
        warnings.append("degenerate-weights")
    if ess < LOW_ESS_FRACTION * n:
        warnings.append("low-ess")
    return PosteriorMixture(
        means, covs, weights, ess, psi_values, int(n - finite.sum()), tuple(warnings)
    )


def joint_moments(mixing, data: Dataset):
    """Starred moments of the full joint outputs, one row per mixing factor.

    Returns ``(means, covariances)`` of shapes (n, k) and (n, k, k) with
    k = n_out (P + 1), test block leading: the batched counterpart of the
    mean and ``blocks.full()`` of :func:`starred`, from the same spectral
    components as :func:`posterior_mixture`.
    """
    sp = _components(mixing, data)
    (n, d), p = sp.mu.shape, data.n_train
    shrink = sp.lam * sp.mu[:, :, None] / sp.denom  # eigenvalues of s11*
    m1 = data.beta * np.einsum("nij,njr,pr->npi", sp.v, shrink * sp.z, sp.u)
    s01 = np.einsum("nij,njr,qr,nkj->niqk", sp.v, sp.g, sp.u, sp.v, optimize=True)
    s11 = np.einsum(
        "pr,nij,njr,qr,nkj->npiqk", sp.u, sp.v, shrink, sp.u, sp.v, optimize=True
    ).reshape(n, p * d, p * d)
    s11 = (s11 + np.swapaxes(s11, 1, 2)) / 2.0
    s01 = s01.reshape(n, d, p * d)
    top = np.concatenate([sp.s00, s01], axis=2)
    bottom = np.concatenate([np.swapaxes(s01, 1, 2), s11], axis=2)
    means = np.concatenate([sp.m0, m1.reshape(n, p * d)], axis=1)
    return means, np.concatenate([top, bottom], axis=1)


def predictive_moments(mix: PosteriorMixture):
    """Predictive mean and covariance at the test input.

    mean = sum_i w_i m0_i;
    cov  = sum_i w_i S00_i + (sum_i w_i m0_i m0_i.T - mean mean.T).
    The label-dependent part is accumulated separately so that a point-mass
    mixture has covariance exactly equal to its component block.  A
    component of weight 0 contributes nothing, even where its moments are
    not finite (0 * NaN would be NaN): its rows are zeroed, not dropped, so
    the sums keep their shapes and order.

    The covariance is exactly symmetric: the einsum multiplies the terms of
    (i, j) and (j, i) in different orders, so the two are averaged as
    ``C/2 + C.T/2``, which leaves every diagonal entry but a subnormal one
    unchanged.
    """
    w = mix.weights
    m0 = np.where((w > 0)[:, None], mix.means, 0.0)
    s00 = np.where((w > 0)[:, None, None], mix.covariances, 0.0)
    mean = np.einsum("n,ni->i", w, m0)
    cov_within = np.einsum("n,nij->ij", w, s00)
    second = np.einsum("n,ni,nj->ij", w, m0, m0)
    cov = cov_within + (second - np.outer(mean, mean))
    return mean, 0.5 * cov + 0.5 * cov.T


def nngp_mixing(n_out: int) -> np.ndarray:
    """The point-mass mixing of the infinite-width regime: one identity factor, so Q = I."""
    return np.eye(n_out)[None, :, :]
