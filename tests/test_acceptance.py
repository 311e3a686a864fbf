"""Desk-scale acceptance suite.

Each test runs one criterion of the verification registry at full scale
and prints one PASS/FAIL line per check row.  Tolerances are fixed by the
checks themselves (k standard errors, KS critical values, or exact/relative
bounds); the master seed pins every draw, so outcomes are reproducible.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import hashlib
import io
import json

import pytest

from proplimit import cli, verify

ACCEPTANCE_SEED = 20260810

CFG = verify.VerifyConfig(seed=ACCEPTANCE_SEED)


def run_criterion(name):
    _, rows = verify.run_checks(CFG, names=[name])
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status} {row.test}: statistic={row.statistic:.6g} "
              f"threshold={row.threshold:.6g} [{row.reference}]")
    failed = [row.test for row in rows if not row.passed]
    assert not failed, f"failed rows: {failed}"


def test_c01_prop1_sampler_equivalence():
    run_criterion("c1-prop1-equivalence")


def test_c02_diagonal_lognormal_ks():
    run_criterion("c2-diag-lognormal-ks")


def test_c03_mgf_bridge():
    run_criterion("c3-mgf-bridge")


def test_c04_offdiag_variance_bound():
    run_criterion("c4-variance-bound")


def test_c05_limit_vs_finite_bridge():
    run_criterion("c5-limit-vs-finite")


def test_c06_nngp_degeneracy():
    run_criterion("c6-nngp-degeneracy")


def test_c07_posterior_quadrature_oracle():
    run_criterion("c7-posterior-oracle")


def test_c08_label_dependent_covariance():
    run_criterion("c8-label-dependence")


def test_c09_linear_algebra_substrate():
    run_criterion("c9-linalg-substrate")


def test_c10_reproducibility_library_level():
    run_criterion("c10-reproducibility")


SMOKE_SCALE = [
    "c1_samples=2000", "c2_samples=1500", "c4_samples=2000",
    "c5_samples=400", "c5_steps=256", "c5_refine_coarse=128",
    "c5_refine_fine=1024", "c5_refine_samples=400",
    "c7_mixing=3000", "c8_mixing=3000",
    "prop_samples=3000", "prop_grid_samples=400",
    "prop_instances=120", "appendix_samples=300000",
]


def _verify_all(out_dir, seed=ACCEPTANCE_SEED):
    args = ["verify-all", "--seed", str(seed), "--out-dir", str(out_dir)]
    for item in SMOKE_SCALE:
        args += ["--set", item]
    return cli.main(args)


def test_c10_cli_byte_identical_and_worker_invariant(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PROPLIMIT_WORKERS", raising=False)
    code_a = _verify_all(tmp_path / "a")
    code_b = _verify_all(tmp_path / "b")
    assert code_a == code_b == 0
    report_a = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report_a["results"]["failed_tests"] == []
    csv_a = (tmp_path / "a" / "verify_all.csv").read_bytes()
    csv_b = (tmp_path / "b" / "verify_all.csv").read_bytes()
    assert csv_a == csv_b
    rows = list(csv.DictReader(io.StringIO(csv_a.decode())))
    assert {row["pass"] for row in rows} <= {"true", "false"}
    # The 57 smoke-scale rows, pinned byte for byte.
    assert hashlib.sha256(csv_a).hexdigest()[:12] == "38dc9cc24f31"

    monkeypatch.setenv("PROPLIMIT_WORKERS", "3")
    code_c = _verify_all(tmp_path / "c")
    assert code_c == code_a
    csv_c = (tmp_path / "c" / "verify_all.csv").read_bytes()
    assert csv_c == csv_a

    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["results"]["workers"] == 3
    capsys.readouterr()
