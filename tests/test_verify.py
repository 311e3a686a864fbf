"""Edge rules of the verification reductions: too few draws must fail a row."""

import math

import numpy as np
import pytest

from proplimit import verify


class TestSigmaRatio:
    def test_zero_se_counts_zero(self):
        est = np.array([5.0, 1.0])
        assert verify._sigma_ratio(est, 0.0, np.array([0.0, 0.5])) == 2.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_se_gives_inf(self, bad):
        # mean_and_se returns an infinite SE for fewer than two draws.
        est = np.array([0.0, 1.0])
        assert verify._sigma_ratio(est, 0.0, np.array([1.0, bad])) == math.inf


@pytest.mark.parametrize("seed, n_bin", [(2, 1), (3, 0)])
def test_appendix_round_trip_fails_on_a_thin_bin(monkeypatch, seed, n_bin):
    # 200 joint draws leave n_bin of them in the label bin at this seed; the
    # mixture side needs no real limit draws to show the rule.
    monkeypatch.setattr(verify, "_scalar_limit_mixing", lambda cfg, n, phase: np.ones((8, 1, 1)))
    cfg = verify.VerifyConfig(seed=seed, appendix_samples=200)
    (row,) = verify.prop_appendix_round_trip(cfg)
    assert row.reference.startswith(f"bin count={n_bin} ")
    assert row.statistic == math.inf and not row.passed
