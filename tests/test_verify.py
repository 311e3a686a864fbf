"""Edge rules of the verification reductions: too few draws must fail a row."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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


def test_bridge_rows_fail_on_a_single_draw():
    # One draw gives an inf SE and a NaN variance: both rows must fail.
    one = np.ones((1, 2, 2))
    many = np.random.default_rng(1).standard_normal((8, 2, 2))
    rows = verify._bridge_rows("b", "C", one, many, 16, (many, many), 4, 32)
    assert [row.passed for row in rows] == [False, False]


def test_variance_bound_fails_on_a_single_draw(monkeypatch):
    monkeypatch.setattr(verify.prior, "vbar_finite_samples", lambda *args: np.eye(3)[None])
    rows = verify.check_offdiag_variance_bound(verify.VerifyConfig(seed=1))
    assert not any(row.passed for row in rows)


class _PairCalled(Exception):
    pass


@pytest.mark.parametrize("c5_steps, pair", [(256, (64, 512)), (4096, (1024, 8192))])
def test_c5_refinement_pair_brackets_its_grid(monkeypatch, c5_steps, pair):
    # The pair runs c5_steps // C5_COARSE_SHARE steps and REFINE_RATIO times as many.
    def record_pair(a, dim, coarse, fine, *args):
        raise _PairCalled(coarse, fine)

    monkeypatch.setattr(verify.prior, "vbar_finite_samples", lambda *args: None)
    monkeypatch.setattr(verify.limit, "vbar_limit_samples", lambda *args: None)
    monkeypatch.setattr(verify.limit, "vbar_limit_refinement_pair", record_pair)
    with pytest.raises(_PairCalled) as called:
        verify.check_limit_vs_finite_bridge(verify.VerifyConfig(seed=1, c5_steps=c5_steps))
    assert called.value.args == pair


def test_readme_lists_every_verify_knob():
    # The README's knob sentence names exactly the VerifyConfig fields a
    # verify command reads besides its seed.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"The knobs are the integer fields of\s+`verify\.VerifyConfig`:(.*?)\.\s",
                         readme, re.S).group(1)
    knobs = {f.name for f in fields(verify.VerifyConfig)} - {"seed"}
    assert set(re.findall(r"`(\w+)`", sentence)) == knobs


C8_STATISTIC = """
from proplimit import verify
(row,) = verify.check_label_dependence(verify.VerifyConfig(seed=20260810, prop_samples=20_000))
print(repr(row.statistic))
"""

# posterior_mixture on n_in x 3000 inputs, 50 mixing factors at d = 2: wide enough
# that a full P x P SVD basis follows the BLAS thread count.
POSTERIOR_DIGEST = """
import hashlib
import numpy as np
from proplimit import posterior
rng = np.random.default_rng(20261019)
n_in, p = {n_in}, 3000
data = posterior.Dataset(x=rng.standard_normal((n_in, p)), y=rng.standard_normal((2, p)),
                         x0=rng.standard_normal(n_in), beta=1.0)
mix = posterior.posterior_mixture(rng.standard_normal((50, 2, 2)), data)
h = hashlib.sha256()
for arr in (mix.psi, mix.weights, mix.means, mix.covariances):
    h.update(np.ascontiguousarray(arr).tobytes())
print(h.hexdigest())
"""


@pytest.mark.parametrize("snippet", [
    pytest.param(C8_STATISTIC, id="c8"),
    pytest.param(POSTERIOR_DIGEST.format(n_in=3), id="posterior-3x3000"),
    pytest.param(POSTERIOR_DIGEST.format(n_in=50), id="posterior-50x3000"),
])
def test_results_are_independent_of_blas_threads(snippet):
    # Results depend on (seed, phase, index) only, never on the BLAS thread
    # count, which numpy reads once, at import.
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", snippet], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.strip())
    assert outputs[0] == outputs[1]
