"""Closed-form oracles and statistical tests.

These are the independent yardsticks the samplers are verified against:
exact and limiting moment generating functions of the log diagonal
entries, the combinatorial variance bound for below-diagonal entries, a
Kolmogorov-Smirnov test, and a one-dimensional quadrature oracle for the
posterior predictive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, InvalidParameter

DEFAULT_KS_ALPHA = 1e-3
DEFAULT_QUAD_POINTS = 4001


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check: pass iff statistic <= threshold."""

    statistic: float
    threshold: float
    n: int

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold


def exact_log_mgf_finite(width: int, r: int, depth: int, s: float) -> float:
    """E[exp(s * log Vbar_rr)] for the finite Bartlett-chain product.

    ``r`` is the 1-based diagonal position.  Each of the ``depth`` factors
    contributes Gamma((width - r + 1)/2, width/2) to the squared entry, so

        MGF = ( Gamma(alpha + s/2) / Gamma(alpha) * (2/width)^(s/2) )^depth

    with alpha = (width - r + 1)/2, evaluated in log space via log-Gamma.
    Requires s > -(width - r + 1).
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    if not 1 <= r < width:
        raise InvalidParameter(f"need 1 <= r < width, got r={r}, width={width}")
    alpha = (width - r + 1) / 2.0
    if not alpha + s / 2.0 > 0:
        raise InvalidParameter(
            f"s must exceed -(width - r + 1) = {-(width - r + 1)}, got {s}"
        )
    log_value = depth * (
        math.lgamma(alpha + s / 2.0) - math.lgamma(alpha) + (s / 2.0) * math.log(2.0 / width)
    )
    return math.exp(log_value)


def limit_log_mgf(a: float, r: int, s: float) -> float:
    """Limiting MGF of log Vbar_rr: exp(a s^2 / 4 - s r a / 2)."""
    if a < 0:
        raise InvalidParameter(f"limit ratio must be >= 0, got {a}")
    return math.exp(a * s * s / 4.0 - s * r * a / 2.0)


def offdiag_variance_bound(k: int, i: int, depth: int, width: int) -> float:
    """Combinatorial upper bound on Var(Vbar[k, i]) for 1-based i < k.

    bound = sum_{m=1}^{k-i} width^-m * C(depth, m) * C(k-i-1, m-1).
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    if not 1 <= i < k:
        raise InvalidParameter(f"need 1 <= i < k, got i={i}, k={k}")
    if not k <= width - 1:
        raise InvalidParameter(f"need k <= width - 1, got k={k}, width={width}")
    gap = k - i
    total = 0.0
    for m in range(1, gap + 1):
        total += width ** (-m) * math.comb(depth, m) * math.comb(gap - 1, m - 1)
    return total


def ks_threshold(n: int, alpha: float) -> float:
    """Critical value of the two-sided KS statistic from the asymptotic law.

    Inverts P(sqrt(n) D > x) ~ 2 exp(-2 x^2):
    threshold = sqrt(-ln(alpha/2) / (2 n)).
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    if not 0 < alpha < 1:
        raise InvalidParameter(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-math.log(alpha / 2.0) / (2.0 * n))


def ks_statistic(samples, cdf, alpha: float = DEFAULT_KS_ALPHA) -> TestReport:
    """Two-sided Kolmogorov-Smirnov test of ``samples`` against ``cdf``.

    The statistic is sup |F_n - F| over both one-sided gaps; the threshold
    comes from the asymptotic Kolmogorov distribution at level ``alpha``.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = samples.shape[0]
    if n == 0:
        raise EmptySample("ks_statistic needs a nonempty sample")
    values = np.asarray(cdf(samples), dtype=np.float64)
    grid = np.arange(n + 1) / n
    stat = float(max(np.max(values - grid[:-1]), np.max(grid[1:] - values)))
    return TestReport(stat, ks_threshold(n, alpha), n)


def quadrature_predictive_1d(
    a: float,
    x0: float,
    x1: float,
    y: float,
    beta: float,
    grid_points: int = DEFAULT_QUAD_POINTS,
):
    """Brute-force predictive moments for the scalar limit posterior.

    For one input, one output, and unit input dimension, the limiting
    mixing variable is ``Q = exp(2 Z)`` with ``Z ~ N(-a/2, a/2)``, i.e.
    ``log Q ~ N(-a, 2a)``.  The predictive mean and variance are ratios of
    lognormal integrals of the scalar component moments against the weight
    ``exp(-Psi(q)/2)``; these are evaluated on ``log q`` over an
    8-standard-deviation window (truncating < 1e-15 of the mass) with a
    composite Simpson rule, self-normalized so density constants cancel.

    Returns ``(mean, variance)``.
    """
    if not a > 0:
        raise InvalidParameter(f"limit ratio must be > 0, got {a}")
    if grid_points < 200:
        raise InvalidParameter(f"need grid_points >= 200, got {grid_points}")
    if not beta >= 0:
        raise InvalidParameter(f"beta must be >= 0, got {beta}")
    n_pts = int(grid_points)
    if n_pts % 2 == 0:
        n_pts += 1

    mu, var = -a, 2.0 * a
    half_width = 8.0 * math.sqrt(var)
    u = np.linspace(mu - half_width, mu + half_width, n_pts)
    q = np.exp(u)

    s00 = x0 * x0 * q
    s01 = x0 * x1 * q
    s11 = x1 * x1 * q
    denom = 1.0 + beta * s11
    m0 = beta * s01 * y / denom
    s00_star = s00 - beta * s01 * s01 / denom
    psi_val = beta * y * y / denom + np.log(denom)

    log_weight = -((u - mu) ** 2) / (2.0 * var) - 0.5 * psi_val
    weight = np.exp(log_weight - log_weight.max())

    simpson = np.ones(n_pts)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0

    def integrate(values: np.ndarray) -> float:
        return float(np.sum(simpson * values))

    norm = integrate(weight)
    mean = integrate(weight * m0) / norm
    second = integrate(weight * (s00_star + m0 * m0)) / norm
    return mean, second - mean * mean
