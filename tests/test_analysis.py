import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from proplimit import analysis
from proplimit.errors import EmptySample, InvalidParameter

# Regression fixtures for the quadrature oracle at a=1, x0=x1=1, beta=1,
# y=2; recorded from a run with grid-doubling convergence below 1e-8 and
# confirmed against 30-digit adaptive integration.
ORACLE_MEAN = 0.763115962621758
ORACLE_VARIANCE = 0.6207827782898671


class TestExactLogMgf:
    def test_minimal_case(self):
        assert analysis.exact_log_mgf_finite(2, 1, 1, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_first_row_unit_second_moment(self):
        for width, depth in ((8, 3), (100, 50)):
            assert analysis.exact_log_mgf_finite(width, 1, depth, 2.0) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_second_row_s2(self):
        assert analysis.exact_log_mgf_finite(4, 2, 3, 2.0) == pytest.approx(
            (3.0 / 4.0) ** 3, rel=1e-12
        )

    def test_domain_gate(self):
        with pytest.raises(InvalidParameter):
            analysis.exact_log_mgf_finite(4, 2, 3, -3.0)


class TestLimitLogMgf:
    def test_zero_ratio(self):
        for s in (-2.0, 0.0, 1.5):
            assert analysis.limit_log_mgf(0.0, 3, s) == 1.0

    def test_substitution(self):
        assert analysis.limit_log_mgf(1.0, 1, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert analysis.limit_log_mgf(0.5, 1, 1.0) == pytest.approx(
            math.exp(-0.125), rel=1e-14
        )

    def test_negative_ratio_rejected(self):
        with pytest.raises(InvalidParameter):
            analysis.limit_log_mgf(-0.5, 1, 1.0)


class TestVarianceBound:
    def test_adjacent(self):
        assert analysis.offdiag_variance_bound(2, 1, 2, 4) == pytest.approx(0.5)

    def test_gap_two(self):
        assert analysis.offdiag_variance_bound(3, 1, 3, 10) == pytest.approx(0.33)

    def test_depth_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            analysis.offdiag_variance_bound(2, 1, 0, 4)

    def test_index_order_enforced(self):
        with pytest.raises(InvalidParameter):
            analysis.offdiag_variance_bound(1, 2, 3, 10)


class TestKsStatistic:
    def test_single_point_against_normal(self):
        report = analysis.ks_statistic([0.0], ndtr)
        assert report.statistic == pytest.approx(0.5)

    def test_exact_quantile_spacing(self):
        n = 64
        samples = (np.arange(n) + 0.5) / n
        report = analysis.ks_statistic(samples, lambda x: np.clip(x, 0.0, 1.0))
        assert report.statistic == pytest.approx(0.5 / n)

    def test_matches_scipy(self, np_rng):
        draws = np_rng.standard_normal(2000)
        ours = analysis.ks_statistic(draws, ndtr)
        ref = scipy.stats.kstest(draws, "norm")
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)

    def test_threshold_value(self):
        assert analysis.ks_threshold(10_000, 1e-3) == pytest.approx(0.0195, abs=2e-4)

    def test_calibration_quick(self):
        failures = 0
        for seed in range(20):
            draws = np.random.default_rng(seed).standard_normal(10_000)
            failures += 0 if analysis.ks_statistic(draws, ndtr).passed else 1
        assert failures == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            analysis.ks_statistic([], ndtr)


class TestQuadraturePredictive:
    def test_zero_labels_zero_mean(self):
        mean, _ = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 0.0, 1.0)
        assert abs(mean) < 1e-14

    def test_beta_zero_prior_variance(self):
        mean, var = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 0.0)
        assert mean == 0.0
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_frozen_reference_values(self):
        mean, var = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0)
        assert mean == pytest.approx(ORACLE_MEAN, rel=1e-9)
        assert var == pytest.approx(ORACLE_VARIANCE, rel=1e-9)

    def test_grid_doubling_converged(self):
        m1, v1 = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0, 4001)
        m2, v2 = analysis.quadrature_predictive_1d(1.0, 1.0, 1.0, 2.0, 1.0, 8003)
        assert abs(m2 - m1) < 1e-8 * abs(m1)
        assert abs(v2 - v1) < 1e-8 * abs(v1)

    @pytest.mark.parametrize("kwargs", [
        dict(a=0.0), dict(grid_points=100), dict(beta=-1.0),
    ])
    def test_invalid_parameters(self, kwargs):
        base = dict(a=1.0, x0=1.0, x1=1.0, y=2.0, beta=1.0)
        base.update(kwargs)
        with pytest.raises(InvalidParameter):
            analysis.quadrature_predictive_1d(**base)


def test_gamma_ratio_two_term_expansion():
    for x in (50.0, 500.0):
        for alpha in (-0.5, 0.5, 1.5):
            exact = math.exp(math.lgamma(x + alpha) - math.lgamma(x))
            approx = x**alpha * (1.0 + alpha * (alpha - 1.0) / (2.0 * x))
            assert abs(exact - approx) / exact < 10.0 / (x * x)

