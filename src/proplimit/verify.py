"""Acceptance criteria and property suites.

Every check returns :class:`CheckRow` values with a uniform pass rule
(``statistic <= threshold``), so the CLI can emit one CSV row per check and
the test suite can assert on the same machinery.  Statistical tolerances
follow the convention "within k standard errors": the row statistic is the
worst normalized deviation and the threshold is k.

Checks are keyed by stable names; ``ACCEPTANCE`` holds the desk-scale
criteria, ``PROPERTIES`` the per-module distributional invariants.  Sample
counts live in :class:`VerifyConfig` so quick runs can shrink them without
touching the checks: one count per set of draws that every caller sizes
alike (``grid_samples`` for the limit-grid draws of c5 and the limit
properties, ``prop_samples`` for the other properties and the c7/c8
mixing draws), and c5's refinement grids follow ``c5_steps``.  A count
too small to measure anything is rejected there, before any draw.  Each
reduction has one helper (``_sigma_ratio``, ``_ks_row``, ``_mgf_rel_err``,
``_bridge_rows``), a statistic over several entries reduces them all in
one ``montecarlo.mean_and_se`` or ``var_and_se`` call, and a standard
error from fewer than two draws fails its row.

Every mixture moment of c7 and c8 is ``posterior.predictive_moments`` of a
``posterior.posterior_mixture``, c8's batch variances included, at
O(d^3 + d^2 r) per component with r = min(n_in, P).  Its einsum
reductions keep c8's statistic off the BLAS thread count.  A mixture over
P = 3000 training inputs is byte-equal at one and two threads with
n_in = 3 or 50 input rows (``tests/test_verify.py`` checks exactly these
cases), but not with n_in = 200, through the SVD.

Every check draws through the production block samplers
(``prior.bartlett_chain_draws``, ``prior.vbar_finite_samples``,
``limit.vbar_limit_samples``, ...) or through the numpy primitive they
call (``standard_gamma``); independent routes such as the outer-product
Wishart draw live inside the check that compares against them.  A check
that needs one generator for several families passes it twice.

Only the CLI's verify commands import this module.  scipy (the normal
and gamma CDFs of the KS references) is imported inside the four
functions that use it, not here, so a run of checks that need none of
them never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, limit, linalg, montecarlo, posterior, prior
from .errors import InvalidParameter

# Stream phase ids: one per independent sampling stage.
PH_C1_DIRECT, PH_C1_MIX = 10, 11
PH_C2 = 12
PH_C4_BASE = 13  # four combos: 13..16
PH_C5_FINITE, PH_C5_LIMIT, PH_C5_REFINE = 20, 21, 22
PH_C7, PH_C8 = 30, 31
PH_C10_A, PH_C10_B = 40, 41
PH_C6, PH_C9 = 42, 43
PH_GAMMA_KS, PH_BARTLETT_IND = 50, 51
PH_WISHART_BART, PH_WISHART_OUTER, PH_WISHART_KS = 52, 53, 54
PH_DIAG_PROD, PH_ZERO_MEAN_DIRECT, PH_ZERO_MEAN_MIX = 55, 56, 57
PH_D1_KS, PH_MATNORMAL = 58, 59
PH_LIMIT_DIAG, PH_REFINE_A, PH_REFINE_B, PH_REFINE_C = 60, 61, 62, 63
PH_POSITIVITY, PH_ITERINT = 64, 65
PH_POSTERIOR_PSD, PH_POSTERIOR_REMARK = 66, 67
PH_APPENDIX_JOINT, PH_APPENDIX_MIX = 68, 69
PH_EMPIRICAL_MGF, PH_KS_CALIBRATION = 70, 71

# Grid steps of the scalar limit mixing draws of c7 and c8, and the number
# of batches c8 splits its draws into for the variance standard error.
MIXING_STEPS, C8_BATCHES = 16, 50
# Counts whose floor exceeds 2: prop_samples also sizes c8's mixing draws,
# two per batch.
MIN_COUNTS = {"prop_samples": 2 * C8_BATCHES}

# Fine over coarse grid steps of every coupled refinement pair (c5 and
# prop-limit-refinement), and c5's grid steps over its pair's coarse steps:
# the pair brackets c5's own grid (1024 and 8192 steps around 4096).
REFINE_RATIO, C5_COARSE_SHARE = 8, 4

# The KS rows whose sample size a count sets, as (share, alpha) pairs: the
# row draws count // share at level alpha.  c2_samples sizes diag-ks-r*,
# grid_samples limit-diag-ks-k*, and prop_samples gamma-ks-*,
# vbar-d1-lognormal-ks and (half of it, at 0.01) wishart-d1-gamma-ks.
WISHART_KS_SHARE, WISHART_KS_ALPHA = 2, 0.01
KS_COUNTS = {
    "c2_samples": [(1, analysis.DEFAULT_KS_ALPHA)],
    "grid_samples": [(1, analysis.DEFAULT_KS_ALPHA)],
    "prop_samples": [(1, analysis.DEFAULT_KS_ALPHA), (WISHART_KS_SHARE, WISHART_KS_ALPHA)],
}

# Fixed input matrix for the sampler-equivalence criterion (3 x 4, full rank).
X_EQUIV = np.array(
    [
        [1.0, -0.4, 0.7, 0.2],
        [0.5, 1.1, -0.3, 0.8],
        [-0.6, 0.3, 0.9, -0.5],
    ]
)

# Fixed regression data for the infinite-width degeneracy checks (2 outputs,
# 3 training points, 2 input dims; the training Gram block is singular).
GP_X = np.array([[0.9, -0.3, 0.4], [0.2, 1.1, -0.7]])
GP_Y = np.array([[1.0, -0.5, 0.3], [0.2, 0.8, -1.1]])
GP_X0 = np.array([0.6, -0.4])
GP_BETA = 0.7


@dataclass(frozen=True)
class CheckRow:
    """One verification outcome; passes iff statistic <= threshold."""

    test: str
    statistic: float
    threshold: float
    reference: str = ""
    width: float | None = None
    depth: float | None = None
    a: float | None = None

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold


@dataclass(frozen=True)
class VerifyConfig:
    """Sample counts and grid sizes for the verification suites.

    Defaults are the desk-scale acceptance settings; shrink them for smoke
    runs.  ``workers`` of None means one worker.  ``grid_samples`` sizes
    every draw of c5 and of the limit-sampler properties
    (``prop-limit-diag-ks``, ``prop-limit-refinement``,
    ``prop-iterint-zero-mean``); c5's refinement pair runs
    ``c5_steps // C5_COARSE_SHARE`` and ``REFINE_RATIO`` times as many
    steps.  ``prop_samples`` sizes the other properties and c7's and c8's
    mixing draws.  Every ``*_samples`` and ``*_instances`` count must be at
    least 2, since a standard error needs two draws, and those in
    ``MIN_COUNTS`` at least their entry: ``prop_samples`` needs 2 per c8
    batch, as one component has a label-free predictive variance.
    A count that sizes KS rows (``KS_COUNTS``) must also give each of them a
    threshold below 1, the largest KS statistic; a row at a threshold of 1
    or more passes whatever the draws.
    """

    seed: int
    workers: int | None = None
    c1_samples: int = 200_000
    c2_samples: int = 10_000
    c4_samples: int = 100_000
    grid_samples: int = 10_000
    c5_steps: int = 4096
    prop_samples: int = 100_000
    prop_instances: int = 1_000
    appendix_samples: int = 2_000_000

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_samples", "_instances")):
                floor = _count_floor(KS_COUNTS.get(f.name, ()), MIN_COUNTS.get(f.name, 2))
                if getattr(self, f.name) < floor:
                    raise InvalidParameter(f"'{f.name}' must be >= {floor}, got {getattr(self, f.name)}")


def _count_floor(rows, count: int) -> int:
    """The least count, from ``count``, at which every KS row it sizes has a threshold below 1."""
    while any(analysis.ks_threshold(count // share, alpha) >= 1 for share, alpha in rows):
        count += 1
    return count


def _vecs(draws: np.ndarray) -> np.ndarray:
    # (n, d, p) -> (n, d*p) with output index fastest (column-major vec)
    n, d, p = draws.shape
    return draws.transpose(0, 2, 1).reshape(n, d * p)


def _sigma_ratio(est, target, se) -> float:
    """Largest ``|est - target| / se`` over the entries; ``se == 0`` counts 0.
    A non-finite ``se`` (``montecarlo.mean_and_se`` gives one for fewer than
    two draws) makes it inf: too few draws measure nothing, so the row fails.
    """
    se = np.asarray(se, dtype=np.float64)
    if not np.all(np.isfinite(se)):
        return math.inf
    return float(np.max(np.abs(est - target) / np.where(se > 0, se, np.inf)))


def _second_moment_ratio(vecs: np.ndarray, target: np.ndarray) -> float:
    """``_sigma_ratio`` of the empirical E[v_i v_j], i <= j, against ``target``."""
    iu = np.triu_indices(vecs.shape[1])
    est, se = montecarlo.mean_and_se(vecs[:, iu[0]] * vecs[:, iu[1]])
    return _sigma_ratio(est, target[iu], se)


def _ks_row(name, samples, cdf, reference, alpha=analysis.DEFAULT_KS_ALPHA, **meta):
    statistic, threshold = analysis.ks_statistic(samples, cdf, alpha=alpha)
    return CheckRow(name, statistic, threshold, reference=reference, **meta)


def _log_diag_ks_rows(draws, a, name, **meta) -> list[CheckRow]:
    """One KS row per diagonal entry: log Vbar_kk against N(-ak/2, a/2).

    ``name`` may hold ``{k}``, the 1-based diagonal position.
    """
    from scipy.special import ndtr

    sd = math.sqrt(a / 2.0)
    rows = []
    for k in range(1, draws.shape[1] + 1):
        mean = -a * k / 2.0
        rows.append(_ks_row(
            name.format(k=k), np.log(draws[:, k - 1, k - 1]),
            lambda x, m=mean: ndtr((x - m) / sd),
            f"N({mean:.3g},{a / 2:.3g}) n={draws.shape[0]}", a=a, **meta,
        ))
    return rows


def _mgf_rel_err(width: int, depth: int, r: int, s: float):
    """(relative gap, exact, limit) of the finite MGF of log Vbar_rr to its
    limit at a = depth / width."""
    exact = analysis.exact_log_mgf_finite(width, r, depth, s)
    lim = analysis.limit_log_mgf(depth / width, r, s)
    return abs(exact - lim) / lim, exact, lim


def _bridge_rows(name, reference, first, second, steps, coupled, coarse, fine, **meta):
    """Mean and variance rows comparing the lower triangles of two draw sets.

    The tolerance per entry is 4 combined standard errors plus a
    discretization allowance C * steps^(-1/2), with C fitted per entry from
    the ``coupled`` (coarse, fine) pair riding identical Brownian paths at
    ``coarse`` and ``fine`` grid steps.
    """
    tables = []  # per lower-triangular entry: (mean, se_mean, var, se_var)
    for draws in (first, second, *coupled):
        lower = np.tril_indices(draws.shape[1])
        flat = draws[:, lower[0], lower[1]]
        tables.append((*montecarlo.mean_and_se(flat), *montecarlo.var_and_se(flat)))
    one, two, c_coarse, c_fine = tables
    denom = coarse ** -0.5 - fine ** -0.5
    rows = []
    for label, j in (("mean", 0), ("variance", 2)):
        fitted_c = np.abs(c_coarse[j] - c_fine[j]) / denom
        tol = 4.0 * np.hypot(one[j + 1], two[j + 1]) + fitted_c * steps ** -0.5
        rows.append(CheckRow(
            f"{name}-{label}", _sigma_ratio(one[j], two[j], tol), 1.0,
            reference=f"{reference}={float(np.max(fitted_c)):.4f}", **meta,
        ))
    return rows


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


def check_prop1_equivalence(cfg: VerifyConfig) -> list[CheckRow]:
    """Both prior routes match the closed-form covariance; 4th moments agree."""
    shape = prior.NetworkShape(n_in=3, n_out=2, depth=3, width=8)
    target = prior.prior_covariance_exact(X_EQUIV, 3, shape.lambda_star, 2)
    n = cfg.c1_samples
    direct = _vecs(
        prior.forward_direct_samples(X_EQUIV, shape, n, cfg.seed, PH_C1_DIRECT, cfg.workers)
    )
    mixture = _vecs(
        prior.prior_mixture_samples(X_EQUIV, shape, n, cfg.seed, PH_C1_MIX, cfg.workers)
    )

    rows = []
    for name, draws in (("direct", direct), ("mixture", mixture)):
        rows.append(
            CheckRow(
                f"prop1-covariance-{name}", _second_moment_ratio(draws, target), 3.0,
                reference="X.T@X/3 kron I, per-entry / SE",
                width=8, depth=3,
            )
        )
    # Fourth mixed moment E[f11^2 f21^2]: route-vs-route comparison.
    m4 = []
    for draws in (direct, mixture):
        vals = draws[:, 0] ** 2 * draws[:, 1] ** 2
        m4.append(montecarlo.mean_and_se(vals))
    se = math.hypot(float(m4[0][1]), float(m4[1][1]))
    rows.append(
        CheckRow(
            "prop1-fourth-moment", _sigma_ratio(m4[0][0], m4[1][0], se), 4.0,
            reference=f"direct={m4[0][0]:.5f} mixture={m4[1][0]:.5f}",
            width=8, depth=3,
        )
    )
    return rows


def check_diag_lognormal_ks(cfg: VerifyConfig) -> list[CheckRow]:
    """Log diagonal entries of the deep chain pass KS against the limit law."""
    width, depth, dim = 400, 200, 2
    a = depth / width
    draws = prior.vbar_finite_samples(
        depth, width, dim, cfg.c2_samples, cfg.seed, PH_C2, cfg.workers
    )
    rows = []
    ks_rows = _log_diag_ks_rows(draws, a, "diag-ks-r{k}", width=width, depth=depth)
    for r, ks_row in enumerate(ks_rows, start=1):
        rows.append(ks_row)
        # Finite-size bias allowance: exact MGF within 1% of the limit MGF.
        for s in (-1.0, 1.0):
            err, exact, lim = _mgf_rel_err(width, depth, r, s)
            rows.append(
                CheckRow(
                    f"diag-mgf-bias-r{r}-s{s:+.0f}", err, 0.01,
                    reference=f"exact={exact:.6f} limit={lim:.6f}",
                    width=width, depth=depth, a=a,
                )
            )
    return rows


def check_mgf_bridge(cfg: VerifyConfig) -> list[CheckRow]:
    """Exact MGF at N=1000, L=500 sits within 0.5% of exp(-0.125)."""
    err, exact, ref = _mgf_rel_err(1000, 500, 1, 1.0)
    return [
        CheckRow(
            "mgf-bridge-n1000", err, 0.005,
            reference=f"exact={exact:.8f} limit=exp(-1/8)={ref:.8f}",
            width=1000, depth=500, a=0.5,
        )
    ]


def check_offdiag_variance_bound(cfg: VerifyConfig) -> list[CheckRow]:
    """Empirical below-diagonal variances respect the combinatorial bound."""
    dim = 3
    rows_at, cols_at = np.tril_indices(dim, -1)
    rows = []
    for idx, (width, depth) in enumerate([(8, 4), (8, 16), (32, 4), (32, 16)]):
        draws = prior.vbar_finite_samples(
            depth, width, dim, cfg.c4_samples, cfg.seed, PH_C4_BASE + idx, cfg.workers
        )
        var, se = montecarlo.var_and_se(draws[:, rows_at, cols_at])
        bounds = np.array([
            analysis.offdiag_variance_bound(r + 1, c + 1, depth, width)
            for r, c in zip(rows_at, cols_at)
        ])
        rows.append(
            CheckRow(
                f"variance-bound-N{width}-L{depth}", float(np.max((var - bounds) / se)), 4.0,
                reference="max (Var - bound)/SE over strict-lower entries",
                width=width, depth=depth,
            )
        )
    return rows


def check_limit_vs_finite_bridge(cfg: VerifyConfig) -> list[CheckRow]:
    """Limit sampler matches the deep finite chain, entrywise moments."""
    dim, a = 3, 0.5
    coarse = cfg.c5_steps // C5_COARSE_SHARE
    fine = coarse * REFINE_RATIO
    # Reject the grids before 20k draws are spent, not after.
    limit.check_grid(a, dim, cfg.c5_steps)
    limit.check_refinement(a, dim, coarse, fine)
    finite = prior.vbar_finite_samples(
        500, 1000, dim, cfg.grid_samples, cfg.seed, PH_C5_FINITE, cfg.workers
    )
    limit_draws = limit.vbar_limit_samples(
        a, dim, cfg.c5_steps, cfg.grid_samples, cfg.seed, PH_C5_LIMIT, cfg.workers
    )
    coupled = limit.vbar_limit_refinement_pair(
        a, dim, coarse, fine, cfg.grid_samples, cfg.seed, PH_C5_REFINE, cfg.workers
    )
    return _bridge_rows(
        "bridge", "max fitted C", finite, limit_draws, cfg.c5_steps,
        coupled, coarse, fine, width=1000, depth=500, a=a,
    )


def _gp_closed_form(data: posterior.Dataset, q: np.ndarray):
    """Conjugate Gaussian conditioning, as an independent oracle.

    Treats y = s_train + noise directly: with S the full joint covariance,
    mean = S[:, train] (S_tt + I/beta)^-1 y and
    cov = S - S[:, train] (S_tt + I/beta)^-1 S[:, train].T.
    """
    blocks = posterior.sigma_of_q(q, data)
    full = blocks.full()
    d = data.n_out
    cross = full[:, d:]
    gram_y = blocks.s11 + np.eye(blocks.s11.shape[0]) / data.beta
    solved = np.linalg.solve(gram_y, np.column_stack([data.y_vec, cross.T]))
    mean = cross @ solved[:, 0]
    cov = full - cross @ solved[:, 1:]
    return mean, cov


def check_nngp_degeneracy(cfg: VerifyConfig) -> list[CheckRow]:
    """a=0 collapses to the infinite-width regime, exactly."""
    rows = []
    vbar = limit.vbar_limit_samples(0.0, 3, 64, 1, cfg.seed, PH_C6)[0]
    rows.append(
        CheckRow(
            "lazy-identity", float(np.max(np.abs(vbar - np.eye(3)))), 0.0,
            reference="bit-exact identity at a=0", a=0.0,
        )
    )

    data = posterior.Dataset(x=GP_X, y=GP_Y, x0=GP_X0, beta=GP_BETA)
    means, covs = posterior.joint_moments(posterior.nngp_mixing(2), data)
    mean_cf, cov_cf = _gp_closed_form(data, np.eye(2))
    gap = max(
        float(np.max(np.abs(means[0] - mean_cf))),
        float(np.max(np.abs(covs[0] - cov_cf))),
    )
    rows.append(
        CheckRow(
            "nngp-gp-closed-form", gap, 1e-10,
            reference="conjugate Gaussian conditioning oracle", a=0.0,
        )
    )

    mix = posterior.posterior_mixture(posterior.nngp_mixing(2), data)
    _, cov_pred = posterior.predictive_moments(mix)
    data_shift = posterior.Dataset(x=GP_X, y=GP_Y + 3.5, x0=GP_X0, beta=GP_BETA)
    mix_shift = posterior.posterior_mixture(posterior.nngp_mixing(2), data_shift)
    _, cov_shift = posterior.predictive_moments(mix_shift)
    identical = cov_pred.tobytes() == cov_shift.tobytes()
    rows.append(
        CheckRow(
            "nngp-label-independence", 0.0 if identical else 1.0, 0.0,
            reference="predictive covariance bytes under label shift", a=0.0,
        )
    )
    return rows


def _scalar_limit_mixing(cfg: VerifyConfig, n: int, phase: int) -> np.ndarray:
    return limit.vbar_limit_samples(1.0, 1, MIXING_STEPS, n, cfg.seed, phase, cfg.workers)


def check_posterior_oracle(cfg: VerifyConfig) -> list[CheckRow]:
    """Importance-sampled predictive moments match the quadrature oracle."""
    vbars = _scalar_limit_mixing(cfg, cfg.prop_samples, PH_C7)
    data = posterior.Dataset(x=[[1.0]], y=[[2.0]], x0=[1.0], beta=1.0)
    mix = posterior.posterior_mixture(vbars, data)
    mean, cov = posterior.predictive_moments(mix)
    oracle_mean, oracle_var = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0)
    rows = [
        CheckRow(
            "posterior-mean-vs-quadrature",
            abs(float(mean[0]) - oracle_mean) / abs(oracle_mean), 0.02,
            reference=f"IS={float(mean[0]):.6f} quad={oracle_mean:.6f}", a=1.0,
        ),
        CheckRow(
            "posterior-variance-vs-quadrature",
            abs(float(cov[0, 0]) - oracle_var) / oracle_var, 0.02,
            reference=f"IS={float(cov[0, 0]):.6f} quad={oracle_var:.6f}", a=1.0,
        ),
        CheckRow(
            "posterior-ess",
            (cfg.prop_samples / 10.0) / mix.ess, 1.0,
            reference=f"ESS={mix.ess:.1f} of n={cfg.prop_samples}", a=1.0,
        ),
    ]
    return rows


def check_label_dependence(cfg: VerifyConfig) -> list[CheckRow]:
    """Predictive variance at a=1 responds to the labels (non-NNGP learning)."""
    vbars = _scalar_limit_mixing(cfg, cfg.prop_samples, PH_C8)
    edges = np.linspace(0, vbars.shape[0], C8_BATCHES + 1).astype(int)
    variances = {}
    batch_vars = {}
    for label in (0.0, 5.0):
        data = posterior.Dataset(x=[[1.0]], y=[[label]], x0=[1.0], beta=1.0)
        # The whole mixture's variance, then each batch's, whose mixture
        # renormalizes the batch's own weights.
        var = [
            float(posterior.predictive_moments(posterior.posterior_mixture(mixing, data))[1][0, 0])
            for mixing in (vbars, *np.split(vbars, edges[1:-1]))
        ]
        variances[label], batch_vars[label] = var[0], np.array(var[1:])
    se = float(montecarlo.mean_and_se(batch_vars[5.0] - batch_vars[0.0])[1])
    full_diff = abs(variances[5.0] - variances[0.0])
    return [
        CheckRow(
            "label-dependent-variance", 5.0 * se / full_diff, 1.0,
            reference=(
                f"var(y=0)={variances[0.0]:.5f} var(y=5)={variances[5.0]:.5f} "
                f"SE={se:.2e}"
            ),
            a=1.0,
        )
    ]


def check_linalg_substrate(cfg: VerifyConfig) -> list[CheckRow]:
    """Randomized batteries for the dense linear-algebra layer."""
    rng = montecarlo.stream_for(cfg.seed, PH_C9, 0)
    n = cfg.prop_instances

    worst_chol = 0.0
    for _ in range(n):
        dim = int(rng.integers(1, 9))
        m = rng.standard_normal((dim, dim))
        spd = m @ m.T + 1e-6 * np.eye(dim)
        low = linalg.cholesky(spd)
        err = np.max(np.abs(low @ low.T - spd)) / np.max(np.abs(spd))
        worst_chol = max(worst_chol, float(err))

    worst_pen = 0.0
    for _ in range(n):
        rows_n = int(rng.integers(1, 7))
        cols_n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, min(rows_n, cols_n) + 1))
        if rank == 0:
            mat = np.zeros((rows_n, cols_n))
        else:
            mat = rng.standard_normal((rows_n, rank)) @ rng.standard_normal(
                (rank, cols_n)
            )
        pinv_mat = linalg.pinv(mat)
        scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
        proj_left = mat @ pinv_mat
        proj_right = pinv_mat @ mat
        worst_pen = max(
            worst_pen,
            float(np.max(np.abs(mat @ pinv_mat @ mat - mat))) / scale,
            float(np.max(np.abs(pinv_mat @ mat @ pinv_mat - pinv_mat))) / scale,
            float(np.max(np.abs(proj_left - proj_left.T))),
            float(np.max(np.abs(proj_right - proj_right.T))),
        )

    worst_kron = 0.0
    for _ in range(n):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a1, c1 = rng.standard_normal((2, da, da))
        b1, d1 = rng.standard_normal((2, db, db))
        lhs = linalg.kron(a1, b1) @ linalg.kron(c1, d1)
        rhs = linalg.kron(a1 @ c1, b1 @ d1)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        worst_kron = max(worst_kron, float(np.max(np.abs(lhs - rhs))) / scale)

    worst_det = 0.0
    for _ in range(n):
        d = int(rng.integers(1, 4))
        p1 = int(rng.integers(1, 4))
        n0 = p1 + int(rng.integers(0, 3))
        xt = rng.standard_normal((n0, p1))
        m = rng.standard_normal((d, d))
        q = m @ m.T + 0.5 * np.eye(d)
        gram = xt.T @ xt
        lhs = linalg.logdet_spd(linalg.kron(gram, q))
        rhs = d * linalg.logdet_spd(gram) + p1 * linalg.logdet_spd(q)
        worst_det = max(
            worst_det, abs(lhs - rhs) / max(1.0, abs(lhs))
        )

    return [
        CheckRow("linalg-cholesky-roundtrip", worst_chol, 1e-10,
                 reference=f"{n} random SPD instances"),
        CheckRow("linalg-penrose", worst_pen, 1e-9,
                 reference=f"{n} random (incl. rank-deficient) instances"),
        CheckRow("linalg-kron-mixed-product", worst_kron, 1e-12,
                 reference=f"{n} random instances"),
        CheckRow("linalg-kron-det-identity", worst_det, 1e-8,
                 reference=f"{n} random instances, log space"),
    ]


def check_worker_invariance(cfg: VerifyConfig) -> list[CheckRow]:
    """Identical bits from reruns and from different worker counts."""
    base = prior.vbar_finite_samples(6, 8, 2, 512, cfg.seed, PH_C10_A, workers=1)
    rerun = prior.vbar_finite_samples(6, 8, 2, 512, cfg.seed, PH_C10_A, workers=1)
    wide = prior.vbar_finite_samples(6, 8, 2, 512, cfg.seed, PH_C10_A, workers=4)
    lim_a = limit.vbar_limit_samples(0.5, 2, 64, 128, cfg.seed, PH_C10_B, workers=1)
    lim_b = limit.vbar_limit_samples(0.5, 2, 64, 128, cfg.seed, PH_C10_B, workers=3)
    same = (
        base.tobytes() == rerun.tobytes()
        and base.tobytes() == wide.tobytes()
        and lim_a.tobytes() == lim_b.tobytes()
    )
    return [
        CheckRow(
            "reproducibility-bitwise", 0.0 if same else 1.0, 0.0,
            reference="rerun + workers {1,4} finite, {1,3} limit",
        )
    ]


# ---------------------------------------------------------------------------
# Property suites (module invariants)
# ---------------------------------------------------------------------------


def prop_gamma_ks(cfg: VerifyConfig) -> list[CheckRow]:
    from scipy.special import gammainc

    rows = []
    for idx, (shape_p, rate_p) in enumerate([(0.5, 1.0), (1.0, 1.0), (4.5, 5.0), (50.0, 50.0)]):
        rng = montecarlo.stream_for(cfg.seed, PH_GAMMA_KS, idx)
        # The primitive the Bartlett diagonals draw, scaled to rate ``rate_p``.
        draws = rng.standard_gamma(shape_p, cfg.prop_samples) * (1.0 / rate_p)
        rows.append(_ks_row(
            f"gamma-ks-{shape_p}-{rate_p}", draws,
            lambda x, s=shape_p, r=rate_p: gammainc(s, r * x),
            f"n={cfg.prop_samples} alpha={analysis.DEFAULT_KS_ALPHA}",
        ))
    return rows


def prop_bartlett_independence(cfg: VerifyConfig) -> list[CheckRow]:
    rng = montecarlo.stream_for(cfg.seed, PH_BARTLETT_IND, 0)
    factors = prior.bartlett_chain_draws(10, 3, cfg.prop_samples, rng, rng)
    rows, cols = np.tril_indices(3, -1)
    entries = np.column_stack([np.diagonal(factors, axis1=1, axis2=2), factors[:, rows, cols]])
    corr = np.corrcoef(entries, rowvar=False)
    off = corr[np.triu_indices(entries.shape[1], 1)]
    stat = float(np.max(np.abs(off)))
    return [
        CheckRow(
            "bartlett-independence", stat, 4.0 / math.sqrt(cfg.prop_samples),
            reference="max |corr| across entry pairs", width=10,
        )
    ]


def prop_bartlett_wishart_moments(cfg: VerifyConfig) -> list[CheckRow]:
    n, dof, dim = cfg.prop_samples, 10, 2
    rng_b = montecarlo.stream_for(cfg.seed, PH_WISHART_BART, 0)
    factors = prior.bartlett_chain_draws(dof, dim, n, rng_b, rng_b)
    bart = np.einsum("nij,nkj->nik", factors, factors)

    rng_o = montecarlo.stream_for(cfg.seed, PH_WISHART_OUTER, 0)
    g = rng_o.standard_normal((n, dim, dof)) / math.sqrt(dof)
    outer = np.einsum("nij,nkj->nik", g, g)

    flat_b = bart.reshape(n, -1)
    flat_o = outer.reshape(n, -1)
    mean_b, se_b = montecarlo.mean_and_se(flat_b)
    mean_o, se_o = montecarlo.mean_and_se(flat_o)
    var_b, vse_b = montecarlo.var_and_se(flat_b)
    var_o, vse_o = montecarlo.var_and_se(flat_o)
    stat = max(
        _sigma_ratio(mean_b, mean_o, np.hypot(se_b, se_o)),
        _sigma_ratio(var_b, var_o, np.hypot(vse_b, vse_o)),
    )
    return [
        CheckRow(
            "bartlett-vs-outer-wishart", stat, 4.0,
            reference="entrywise mean and variance, combined SE", width=dof,
        ),
        CheckRow(
            "wishart-mean-identity", _sigma_ratio(mean_b, np.eye(dim).ravel(), se_b), 4.0,
            reference="E[Q] = I entrywise", width=dof,
        ),
    ]


def prop_wishart_gamma_ks(cfg: VerifyConfig) -> list[CheckRow]:
    from scipy.special import gammainc

    rng = montecarlo.stream_for(cfg.seed, PH_WISHART_KS, 0)
    # At dim 1 the Wishart draw V @ V.T is the squared Bartlett diagonal.
    n = cfg.prop_samples // WISHART_KS_SHARE
    draws = prior.bartlett_chain_draws(8, 1, n, rng, rng)[:, 0, 0] ** 2
    return [
        _ks_row("wishart-d1-gamma-ks", draws, lambda x: gammainc(4.0, 4.0 * x),
                f"Gamma(4, rate 4) at alpha={WISHART_KS_ALPHA}", alpha=WISHART_KS_ALPHA, width=8)
    ]


def prop_diag_product_identity(cfg: VerifyConfig) -> list[CheckRow]:
    width, depth, dim = 10, 6, 3
    draws = prior.vbar_finite_samples(
        depth, width, dim, cfg.prop_samples, cfg.seed, PH_DIAG_PROD, cfg.workers
    )
    est, se = montecarlo.mean_and_se(np.diagonal(draws, axis1=1, axis2=2) ** 2)
    target = np.array([((width - k + 1) / width) ** depth for k in range(1, dim + 1)])
    return [
        CheckRow(
            "diag-product-identity", _sigma_ratio(est, target, se), 4.0,
            reference="E[(Vbar_kk)^2] = ((N-k+1)/N)^L", width=width, depth=depth,
        )
    ]


def prop_zero_mean(cfg: VerifyConfig) -> list[CheckRow]:
    shape = prior.NetworkShape(n_in=3, n_out=2, depth=3, width=8)
    n = cfg.prop_samples // 5
    rows = []
    for name, phase, sampler in (
        ("direct", PH_ZERO_MEAN_DIRECT, prior.forward_direct_samples),
        ("mixture", PH_ZERO_MEAN_MIX, prior.prior_mixture_samples),
    ):
        draws = _vecs(sampler(X_EQUIV, shape, n, cfg.seed, phase, cfg.workers))
        mean, se = montecarlo.mean_and_se(draws)
        rows.append(
            CheckRow(
                f"prior-zero-mean-{name}", _sigma_ratio(mean, 0.0, se), 4.0,
                reference="every output entry", width=8, depth=3,
            )
        )
    return rows


def prop_vbar_d1_ks(cfg: VerifyConfig) -> list[CheckRow]:
    width, depth = 400, 200
    a = depth / width
    draws = prior.vbar_finite_samples(
        depth, width, 1, cfg.prop_samples, cfg.seed, PH_D1_KS, cfg.workers
    )
    return _log_diag_ks_rows(draws, a, "vbar-d1-lognormal-ks", width=width, depth=depth)


def prop_matnormal_mc(cfg: VerifyConfig) -> list[CheckRow]:
    rng = montecarlo.stream_for(cfg.seed, PH_MATNORMAL, 0)
    h = np.array([[1.0, -0.5, 0.2], [0.3, 0.8, -0.4]])
    k = np.array([[0.7, 0.1], [-0.6, 1.2], [0.4, 0.5]])
    m1 = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.8]])
    m2 = np.array([[1.2, -0.4, 0.1], [-0.4, 0.9, 0.2], [0.1, 0.2, 1.1]])
    target = prior.matnormal_vec_cov(h, k, m1, m2)

    low1 = linalg.cholesky(m1)
    low2 = linalg.cholesky(m2)
    n = cfg.prop_samples
    g = rng.standard_normal((n, 3, 3))
    z = np.einsum("ij,njk,lk->nil", low1, g, low2)
    hzk = np.einsum("ij,njk,kl->nil", h, z, k)
    return [
        CheckRow(
            "matnormal-vec-cov-mc", _second_moment_ratio(_vecs(hzk), target), 4.0,
            reference="empirical covariance of vec(HZK)",
        )
    ]


def prop_limit_diag_ks(cfg: VerifyConfig) -> list[CheckRow]:
    dim, a, steps = 3, 0.5, 64
    draws = limit.vbar_limit_samples(
        a, dim, steps, cfg.grid_samples, cfg.seed, PH_LIMIT_DIAG, cfg.workers
    )
    return _log_diag_ks_rows(draws, a, "limit-diag-ks-k{k}")


def prop_limit_refinement(cfg: VerifyConfig) -> list[CheckRow]:
    dim, a, coarse = 2, 1.0, 1024
    fine = coarse * REFINE_RATIO
    n = cfg.grid_samples
    run_coarse = limit.vbar_limit_samples(a, dim, coarse, n, cfg.seed, PH_REFINE_A, cfg.workers)
    run_fine = limit.vbar_limit_samples(a, dim, fine, n, cfg.seed, PH_REFINE_B, cfg.workers)
    coupled = limit.vbar_limit_refinement_pair(
        a, dim, coarse, fine, n, cfg.seed, PH_REFINE_C, cfg.workers
    )
    # The below-diagonal entry alone, as a 1 x 1 lower triangle.
    entry = [d[:, 1:, :1] for d in (run_coarse, run_fine, *coupled)]
    return _bridge_rows(
        "grid-refinement", "fitted C", entry[0], entry[1], coarse, entry[2:], coarse, fine, a=a
    )


def prop_limit_positivity(cfg: VerifyConfig) -> list[CheckRow]:
    draws = limit.vbar_limit_samples(
        1.0, 3, 256, cfg.prop_instances, cfg.seed, PH_POSITIVITY, cfg.workers
    )
    dets = np.linalg.det(draws)
    return [
        CheckRow(
            "limit-determinant-positive", float(-np.min(dets)), 0.0,
            reference=f"min det={float(np.min(dets)):.3e} over {len(dets)} draws",
            a=1.0,
        )
    ]


def prop_iterated_integral_mean(cfg: VerifyConfig) -> list[CheckRow]:
    a, dim, steps = 0.5, 3, 256
    n = cfg.grid_samples

    def draw_block(streams, m):
        grid, vals = limit.Grid(a, dim, steps, m), np.empty((m, 2))
        for i, j in limit.block_draws(streams(0), m, grid):
            vals[i] = [limit.iterated_integral(grid, path, j) for path in ((0, 2), (0, 1, 2))]
        return vals

    vals = montecarlo.sample_map(draw_block, n, cfg.seed, PH_ITERINT, cfg.workers)
    mean, se = montecarlo.mean_and_se(vals)
    return [
        CheckRow(
            "iterated-integral-zero-mean", _sigma_ratio(mean, 0.0, se), 4.0,
            reference="paths (0,2) and (0,1,2)", a=a,
        )
    ]


def _random_instance(rng, full_rank: bool):
    """A random (data, Q) pair; with ``full_rank`` the inputs have at least as
    many rows as there are training points, so the Gram block is invertible."""
    d = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    n_in = p + int(rng.integers(0, 3)) if full_rank else int(rng.integers(1, 5))
    x = rng.standard_normal((n_in, p))
    y = rng.standard_normal((d, p))
    x0 = rng.standard_normal(n_in)
    beta = float(rng.uniform(0.1, 3.0))
    m = rng.standard_normal((d, d))
    return posterior.Dataset(x=x, y=y, x0=x0, beta=beta), m @ m.T + 0.3 * np.eye(d)


def prop_posterior_psd(cfg: VerifyConfig) -> list[CheckRow]:
    rng = montecarlo.stream_for(cfg.seed, PH_POSTERIOR_PSD, 0)
    failures = 0
    for _ in range(cfg.prop_instances):
        data, q = _random_instance(rng, full_rank=False)
        full = posterior.starred(q, data)[0].full()
        try:
            linalg.cholesky(full + 1e-10 * np.eye(full.shape[0]))
        except linalg.NotPositiveDefinite:  # pragma: no cover
            failures += 1
    return [
        CheckRow(
            "posterior-sigma-star-psd", float(failures), 0.0,
            reference=f"{cfg.prop_instances} random (Q, data) instances",
        )
    ]


def prop_posterior_remark(cfg: VerifyConfig) -> list[CheckRow]:
    rng = montecarlo.stream_for(cfg.seed, PH_POSTERIOR_REMARK, 0)
    worst = 0.0
    for _ in range(cfg.prop_instances):
        data, q = _random_instance(rng, full_rank=True)
        general, mean_general, _ = posterior.starred(q, data)
        simple, mean_simple = posterior.starred_invertible(q, data)
        scale = max(1.0, float(np.max(np.abs(general.full()))))
        worst = max(
            worst,
            float(np.max(np.abs(general.full() - simple.full()))) / scale,
            float(np.max(np.abs(mean_general - mean_simple)))
            / max(1.0, float(np.max(np.abs(mean_general)))),
        )
    return [
        CheckRow(
            "posterior-remark-consistency", worst, 1e-8,
            reference=f"{cfg.prop_instances} invertible instances",
        )
    ]


def prop_appendix_round_trip(cfg: VerifyConfig) -> list[CheckRow]:
    """Conditioning the generative joint on a label bin matches the mixture.

    Scalar instance with x0 = 1, x1 = 0.8, beta = 1, lognormal mixing at
    a = 1.  Draw (Q, z, y) jointly, keep draws with y near y*, and compare
    the binned moments of (s0, s1) with the reweighted mixture moments.
    """
    a, x0v, x1v, beta, y_star, half_bin = 1.0, 1.0, 0.8, 1.0, 1.2, 0.02
    rng = montecarlo.stream_for(cfg.seed, PH_APPENDIX_JOINT, 0)
    n = cfg.appendix_samples
    z_mix = rng.standard_normal(n) * math.sqrt(a / 2.0) - a / 2.0
    q = np.exp(2.0 * z_mix)
    z1 = rng.standard_normal(n)
    noise = rng.standard_normal(n) / math.sqrt(beta)

    s11 = x1v * x1v * q
    root_s11 = np.sqrt(s11)
    y_draw = root_s11 * z1 + noise
    s1 = root_s11 * z1
    s0 = (x0v * x1v * q / root_s11) * z1  # conditional-mean transfer; s0|s1 gap is 0

    keep = np.abs(y_draw - y_star) <= half_bin
    emp = np.column_stack([s0[keep], s1[keep]])
    n_bin = emp.shape[0]
    emp_mean, emp_mean_se = montecarlo.mean_and_se(emp)

    vbars = _scalar_limit_mixing(cfg, cfg.prop_samples, PH_APPENDIX_MIX)
    data = posterior.Dataset(x=[[x1v]], y=[[y_star]], x0=[x0v], beta=beta)
    w = posterior.posterior_mixture(vbars, data).weights
    means, covs = posterior.joint_moments(vbars, data)
    mix_mean = np.einsum("n,ni->i", w, means)
    mix_second = np.einsum("n,nij->ij", w, covs) + np.einsum(
        "n,ni,nj->ij", w, means, means
    )

    stat = max(
        _sigma_ratio(emp_mean, mix_mean, emp_mean_se),
        _second_moment_ratio(emp, mix_second),
    )
    return [
        CheckRow(
            "appendix-round-trip", stat, 6.0,
            reference=f"bin count={n_bin} at y*={y_star}", a=a,
        )
    ]


def prop_mgf_bridge_grid(cfg: VerifyConfig) -> list[CheckRow]:
    worst_at_1000 = 0.0
    worst_violation = -math.inf
    for a in (0.5, 1.0):
        for r in (1, 2):
            for s in (-1.0, 1.0, 2.0):
                errs = [
                    _mgf_rel_err(width, int(a * width), r, s)[0]
                    for width in (100, 1000, 10000)
                ]
                worst_at_1000 = max(worst_at_1000, errs[1])
                worst_violation = max(
                    worst_violation, errs[1] - errs[0], errs[2] - errs[1]
                )
    # Noise floor: log-gamma rounding accumulates linearly in depth, about
    # depth * eps * |lgamma|, ~1e-7 at the largest grid point.
    return [
        CheckRow(
            "mgf-bridge-error-n1000", worst_at_1000, 0.005,
            reference="(a,r,s) grid {0.5,1}x{1,2}x{-1,1,2}",
        ),
        CheckRow(
            "mgf-bridge-monotone", worst_violation, 1e-6,
            reference="error decreasing over N in {100,1000,10000}, "
                      "up to log-gamma rounding",
        ),
    ]


def prop_empirical_mgf(cfg: VerifyConfig) -> list[CheckRow]:
    width, depth, dim = 50, 25, 2
    draws = prior.vbar_finite_samples(
        depth, width, dim, cfg.prop_samples, cfg.seed, PH_EMPIRICAL_MGF, cfg.workers
    )
    cases = [(r, s) for r in (1, 2) for s in (-1.0, 1.0)]
    r_at, s_at = (np.array(v) for v in zip(*cases))
    logs = np.log(np.diagonal(draws, axis1=1, axis2=2))
    est, se = montecarlo.mean_and_se(np.exp(s_at * logs[:, r_at - 1]))
    target = np.array([analysis.exact_log_mgf_finite(width, r, depth, s) for r, s in cases])
    return [
        CheckRow(
            "empirical-mgf", _sigma_ratio(est, target, se), 4.0,
            reference="s in {-1, 1}, r in {1, 2}", width=width, depth=depth,
        )
    ]


def prop_gamma_ratio_expansion(cfg: VerifyConfig) -> list[CheckRow]:
    worst = 0.0
    for x in (50.0, 500.0):
        for alpha in (-0.5, 0.5, 1.5):
            exact = math.exp(math.lgamma(x + alpha) - math.lgamma(x))
            approx = x**alpha * (1.0 + alpha * (alpha - 1.0) / (2.0 * x))
            rel = abs(exact - approx) / exact
            worst = max(worst, rel / (10.0 / (x * x)))
    return [
        CheckRow(
            "gamma-ratio-two-term", worst, 1.0,
            reference="relative error under 10/x^2 at x in {50, 500}",
        )
    ]


def prop_quadrature_doubling(cfg: VerifyConfig) -> list[CheckRow]:
    points = analysis.DEFAULT_QUAD_POINTS
    m1, v1 = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0, points)
    m2, v2 = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0, 2 * points + 1)
    stat = max(abs(m2 - m1) / abs(m1), abs(v2 - v1) / abs(v1))
    return [
        CheckRow(
            "quadrature-grid-doubling", stat, 1e-8,
            reference=f"{points} vs {2 * points + 1} points",
        )
    ]


def prop_ks_calibration(cfg: VerifyConfig) -> list[CheckRow]:
    from scipy.special import ndtr

    n_rep, n_draw = 200, 10_000
    failures = 0
    for rep in range(n_rep):
        rng = montecarlo.stream_for(cfg.seed, PH_KS_CALIBRATION, rep)
        draws = rng.standard_normal(n_draw)
        row = _ks_row(f"ks-calibration-{rep}", draws, ndtr, "N(0, 1)", alpha=1e-3)
        failures += 0 if row.passed else 1
    return [
        CheckRow(
            "ks-calibration", failures / n_rep, 0.01,
            reference=f"failure rate over {n_rep} seeds at alpha=1e-3",
        )
    ]


ACCEPTANCE = {
    "c1-prop1-equivalence": check_prop1_equivalence,
    "c2-diag-lognormal-ks": check_diag_lognormal_ks,
    "c3-mgf-bridge": check_mgf_bridge,
    "c4-variance-bound": check_offdiag_variance_bound,
    "c5-limit-vs-finite": check_limit_vs_finite_bridge,
    "c6-nngp-degeneracy": check_nngp_degeneracy,
    "c7-posterior-oracle": check_posterior_oracle,
    "c8-label-dependence": check_label_dependence,
    "c9-linalg-substrate": check_linalg_substrate,
    "c10-reproducibility": check_worker_invariance,
}

PROPERTIES = {
    "prop-gamma-ks": prop_gamma_ks,
    "prop-bartlett-independence": prop_bartlett_independence,
    "prop-bartlett-wishart": prop_bartlett_wishart_moments,
    "prop-wishart-gamma-ks": prop_wishart_gamma_ks,
    "prop-diag-product": prop_diag_product_identity,
    "prop-zero-mean": prop_zero_mean,
    "prop-vbar-d1-ks": prop_vbar_d1_ks,
    "prop-matnormal-mc": prop_matnormal_mc,
    "prop-limit-diag-ks": prop_limit_diag_ks,
    "prop-limit-refinement": prop_limit_refinement,
    "prop-limit-positivity": prop_limit_positivity,
    "prop-iterint-zero-mean": prop_iterated_integral_mean,
    "prop-posterior-psd": prop_posterior_psd,
    "prop-posterior-remark": prop_posterior_remark,
    "prop-appendix-round-trip": prop_appendix_round_trip,
    "prop-mgf-bridge-grid": prop_mgf_bridge_grid,
    "prop-empirical-mgf": prop_empirical_mgf,
    "prop-gamma-ratio": prop_gamma_ratio_expansion,
    "prop-quadrature-doubling": prop_quadrature_doubling,
    "prop-ks-calibration": prop_ks_calibration,
}


def run_checks(cfg: VerifyConfig, names=None, include_properties=False):
    """Run the requested checks; returns (ordered names, rows).

    ``names`` of None runs every registered check; otherwise it must name
    at least one check, each registered and none twice.
    """
    registry = dict(ACCEPTANCE)
    if include_properties:
        registry.update(PROPERTIES)
    if names is None:
        names = list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise InvalidParameter(f"unknown check {unknown[0]!r}")
    if not names or len(set(names)) < len(names):
        raise InvalidParameter(f"need at least one check and no check twice, got {names}")
    return names, [row for name in names for row in registry[name](cfg)]
