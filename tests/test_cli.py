import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proplimit import backend, cli, posterior, prior, verify

SCALAR_CFG = {
    "seed": 13,
    "x": [[1.0]],
    "y": [[2.0]],
    "x0": [1.0],
    "beta": 1.0,
    "mixing": "nngp",
}


def run(args):
    return cli.main([str(a) for a in args])


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_report(path: Path) -> dict:
    """``path`` parsed as strict JSON: NaN, Infinity and -Infinity raise."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


@pytest.fixture(autouse=True)
def reports_are_strict_json(request):
    """Every report.json a test leaves under its tmp_path must be strict JSON."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is not None:
        for path in tmp.rglob("report.json"):
            read_report(path)


PRIOR_ARGS = ["x=[[1.0]]", "n_out=1", "depth=2", "width=4", "n_samples=2"]
LIMIT_ARGS = ["a=0.5", "dim=2", "steps=4"]
POSTERIOR_ARGS = [f"{k}={json.dumps(v)}" for k, v in SCALAR_CFG.items() if k != "seed"]

# (command, --set items, the key the error must name): keys no mode of the
# command reads, values that only a lax coercion would accept, and verify
# counts too small to measure anything.
BAD_CONFIGS = [
    ("sample-limit", LIMIT_ARGS + ["n_sampels=3"], "n_sampels"),
    ("posterior-predict", POSTERIOR_ARGS + ["stpes=16"], "stpes"),
    ("converge-test", ['checks=["c6-nngp-degeneracy"]'], "checks"),
    ("verify-all", ["checks=5"], "checks"),
    ("sample-prior", PRIOR_ARGS + ['widths="44"'], "widths"),
    ("sample-prior", PRIOR_ARGS + ['lambdas="123"'], "lambdas"),
    ("posterior-predict", POSTERIOR_ARGS + ["beta=true"], "beta"),
    ("sample-limit", LIMIT_ARGS + ['a="0.5"'], "a"),
    ("sample-limit", LIMIT_ARGS + ["a=.5"], "a"),
    ("sample-limit", LIMIT_ARGS + ['n_samples="4"'], "n_samples"),
    ("posterior-predict", POSTERIOR_ARGS + ['x0=["1"]'], "x0"),
    ("posterior-predict", POSTERIOR_ARGS + ["y=[[2.0, 1.0]]", "x=[[1.0, true]]"], "x"),
    # Keys the selected mode does not read are checked all the same.
    ("sample-limit", LIMIT_ARGS + ["emit=vbar", "x=[[true]]"], "x"),
    ("sample-limit", LIMIT_ARGS + ["emit=vbar", 'lambda_star="abc"'], "lambda_star"),
    ("posterior-predict", POSTERIOR_ARGS + ["a=zzz"], "a"),
    ("converge-test", ["ks_alpha=0.01"], "ks_alpha"),
    ("converge-test", ['criteria=["c9-linalg-substrate"]', "prop_instances=0"], "prop_instances"),
    ("verify-all", ['checks=["prop-posterior-psd"]', "prop_instances=0"], "prop_instances"),
    ("verify-all", ['checks=["prop-iterint-zero-mean"]', "grid_samples=1"], "grid_samples"),
    # prop_samples also sizes c8's mixing draws: at least two per batch.
    ("converge-test", ['criteria=["c8-label-dependence"]', "prop_samples=99"], "prop_samples"),
    ("verify-all", ['checks=["prop-wishart-gamma-ks"]', "prop_samples=5"], "prop_samples"),
    # KS rows whose threshold would be 1 or more, so no draw could fail them.
    ("converge-test", ['criteria=["c2-diag-lognormal-ks"]', "c2_samples=3"], "c2_samples"),
    ("verify-all", ['checks=["prop-limit-diag-ks"]', "grid_samples=3"], "grid_samples"),
    # Counts folded into another or derived: grid_samples, prop_samples,
    # REFINE_RATIO and c5_steps // C5_COARSE_SHARE.
    ("converge-test", ['criteria=["c5-limit-vs-finite"]', "c5_samples=400"], "c5_samples"),
    ("verify-all", ['checks=["prop-limit-diag-ks"]', "prop_grid_samples=400"],
     "prop_grid_samples"),
    ("converge-test", ['criteria=["c8-label-dependence"]', "posterior_mixing=3000"],
     "posterior_mixing"),
    ("converge-test", ['criteria=["c5-limit-vs-finite"]', "c5_refine_coarse=128"],
     "c5_refine_coarse"),
    ("converge-test", ['criteria=["c5-limit-vs-finite"]', "c5_refine_fine=8192"],
     "c5_refine_fine"),
    ("converge-test", ['criteria=["c5-limit-vs-finite"]', "c5_refine_samples=400"],
     "c5_refine_samples"),
    ("converge-test", ['criteria=["c7-posterior-oracle"]', "c7_mixing=3000"], "c7_mixing"),
    ("verify-all", ['checks=["c8-label-dependence"]', "c8_mixing=3000"], "c8_mixing"),
]


class TestConfigHandling:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code = run(["sample-limit", "--out-dir", tmp_path, "--set", "a=0.5",
                    "--set", "dim=2", "--set", "n_samples=4"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "seed" in err["error"]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        code = run(["sample-limit", "--seed", seed, "--out-dir", tmp_path,
                    "--set", "a=0.5", "--set", "dim=2", "--set", "n_samples=2"])
        assert code == 2
        assert "seed" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    def test_largest_seed_accepted(self, tmp_path):
        code = run(["sample-limit", "--seed", 2**64 - 1, "--out-dir", tmp_path,
                    "--set", "a=0.5", "--set", "dim=2", "--set", "steps=4",
                    "--set", "n_samples=2"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rng"]["seed"] == 2**64 - 1

    def test_bad_value_exits_2(self, tmp_path, capsys):
        code = run(["sample-limit", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "a=-2", "--set", "dim=2"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("a", ["NaN", "Infinity"])
    def test_non_finite_ratio_exits_2(self, tmp_path, capsys, a):
        code = run(["sample-limit", "--seed", 1, "--out-dir", tmp_path, "--set", f"a={a}",
                    "--set", "dim=2", "--set", "steps=4", "--set", "n_samples=2"])
        assert code == 2
        assert "finite" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    def test_infinite_beta_exits_2(self, tmp_path, capsys):
        args = ["posterior-predict", "--out-dir", tmp_path]
        for key, value in {**SCALAR_CFG, "beta": float("inf")}.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        assert run(args) == 2
        assert "beta" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "report.json").exists()

    def test_infinite_precision_exits_2(self, tmp_path, capsys):
        code = run(["sample-prior", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "x=[[1.0]]", "--set", "n_out=1", "--set", "depth=1",
                    "--set", "width=4", "--set", "n_samples=2",
                    "--set", 'routes=["mixture"]', "--set", "lambdas=[Infinity, 1.0]"])
        assert code == 2
        assert "precisions" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    def test_infinite_lambda_star_exits_2(self, tmp_path, capsys):
        code = run(["sample-limit", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "a=0.5", "--set", "dim=1", "--set", "steps=4",
                    "--set", "n_samples=2", "--set", "emit=prior",
                    "--set", "x=[[1.0]]", "--set", "lambda_star=Infinity"])
        assert code == 2
        assert "lambda_star" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 0.5, "dim": 2, "n_samples": 3, "steps": 8}))
        code = run(["sample-limit", "--config", cfg, "--seed", 5,
                    "--out-dir", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["seed"] == 5
        assert report["config"]["a"] == 0.5
        assert report["rng"] == {"algorithm": "Philox", "seed": 5}

    def test_repeated_route_exits_2(self, tmp_path, capsys):
        # A route named twice would write every one of its rows twice.
        code = run(["sample-prior", "--seed", 1, "--out-dir", tmp_path,
                    *[arg for item in PRIOR_ARGS for arg in ("--set", item)],
                    "--set", 'routes=["mixture", "mixture"]'])
        assert code == 2
        assert "none twice" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    def test_fractional_widths_exit_2(self, tmp_path, capsys):
        code = run(["sample-prior", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "x=[[1.0]]", "--set", "n_out=1", "--set", "depth=2",
                    "--set", "width=4", "--set", "widths=[2.5, 4]"])
        assert code == 2
        assert "widths" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()

    # Each size is past any address space, so its first allocation fails at
    # once on every host: a limit grid of 1e17 steps, or depth + 1 = 1e17
    # layer precisions.
    @pytest.mark.parametrize("command, settings", [
        ("sample-limit", LIMIT_ARGS + ["steps=100000000000000000"]),
        ("posterior-predict",
         POSTERIOR_ARGS + ['mixing="limit"', "a=0.5", "n_mixing=4", "steps=1e17"]),
        ("sample-prior", PRIOR_ARGS + ["depth=100000000000000000"]),
    ], ids=["sample-limit", "posterior-predict", "sample-prior"])
    def test_config_too_large_to_allocate_exits_2(self, tmp_path, capsys, command, settings):
        args = [command, "--seed", 1, "--out-dir", tmp_path]
        for item in settings:
            args += ["--set", item]
        assert run(args) == 2
        assert "not enough memory" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_unknown_verify_key_exits_2(self, tmp_path, capsys):
        code = run(["converge-test", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "bogus_knob=3"])
        assert code == 2
        assert "bogus_knob" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "command, settings, key", BAD_CONFIGS, ids=[f"{c}:{s[-1]}" for c, s, _ in BAD_CONFIGS]
    )
    def test_bad_key_exits_2_before_any_output(
        self, tmp_path, capsys, monkeypatch, command, settings, key
    ):
        # A misspelt or misread key must not fall back to a default.
        def no_checks(*args, **kwargs):
            raise AssertionError("checks ran despite a bad config key")

        monkeypatch.setattr(verify, "run_checks", no_checks)
        args = [command, "--seed", 1, "--out-dir", tmp_path]
        for item in settings:
            args += ["--set", item]
        assert run(args) == 2
        assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "samples.csv").exists()
        assert not (tmp_path / "report.json").exists()


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_overrides_do_not_leak_between_calls(self, tmp_path):
        base = ["sample-limit", "--seed", 1, "--set", "a=0.5", "--set", "dim=2",
                "--set", "steps=4", "--set", "n_samples=2"]
        assert run(base + ["--out-dir", tmp_path / "a", "--set", "workers=1"]) == 0
        assert run(base + ["--out-dir", tmp_path / "b", "--set", "n_samples=3"]) == 0
        first = json.loads((tmp_path / "a" / "report.json").read_text())["config"]
        second = json.loads((tmp_path / "b" / "report.json").read_text())["config"]
        assert first["workers"] == 1 and first["n_samples"] == 2
        assert "workers" not in second and second["n_samples"] == 3


class TestSampleCommands:
    def test_sample_prior_csv(self, tmp_path):
        code = run([
            "sample-prior", "--seed", 11, "--out-dir", tmp_path,
            "--set", "x=[[1.0, 0.5], [0.0, 1.0]]",
            "--set", "n_out=2", "--set", "depth=2", "--set", "width=4",
            "--set", "n_samples=5",
        ])
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "sample_id,route,row,col,value"
        # 5 samples x 2 routes x (2 x 2) entries
        assert len(lines) == 1 + 5 * 2 * 4
        assert {line.split(",")[1] for line in lines[1:]} == {"direct", "mixture"}
        report = read_report(tmp_path / "report.json")
        assert report["results"]["n_nonfinite"] == 0 and report["warnings"] == []

    def test_sample_prior_rerun_byte_identical(self, tmp_path):
        args = [
            "sample-prior", "--seed", 11,
            "--set", "x=[[1.0], [2.0]]", "--set", "n_out=1",
            "--set", "depth=2", "--set", "width=4", "--set", "n_samples=8",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", out_a]) == 0
        assert run(args + ["--out-dir", out_b]) == 0
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()

    def test_sample_prior_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # With the chain product held to a left-to-right einsum loop, the
        # two-route CSV (direct draws, mixture draws, formatting) is pinned.
        def sequential_chain(diag, low):
            n, layers, dim = diag.shape
            rows, cols = np.tril_indices(dim, -1)
            out = None
            for l in range(layers):
                mat = np.zeros((n, dim, dim))
                mat[:, np.arange(dim), np.arange(dim)] = diag[:, l, :]
                mat[:, rows, cols] = low[:, l, :]
                out = mat if out is None else np.einsum("nij,njk->nik", mat, out)
            return out

        monkeypatch.setattr(backend, "lt_chain_multiply", sequential_chain)
        code = run(["sample-prior", "--seed", 11, "--out-dir", tmp_path,
                    "--set", "x=[[1.0, 0.5, -2.0], [0.0, 1.0, 0.25]]",
                    "--set", "n_out=2", "--set", "depth=3", "--set", "width=5",
                    "--set", "n_samples=40"])
        assert code == 0
        data = (tmp_path / "samples.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest()[:12] == "41e0b174e8c2"

    def test_sample_limit_vbar_lazy_identity(self, tmp_path):
        code = run(["sample-limit", "--seed", 3, "--out-dir", tmp_path,
                    "--set", "a=0.0", "--set", "dim=2", "--set", "steps=4",
                    "--set", "n_samples=2"])
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        values = {}
        for line in rows:
            _, _, r, c, v = line.split(",")
            values[(int(r), int(c))] = float(v)
        assert values[(0, 0)] == 1.0 and values[(1, 1)] == 1.0
        assert values[(0, 1)] == 0.0 and values[(1, 0)] == 0.0

    def test_sample_limit_prior_route(self, tmp_path):
        code = run(["sample-limit", "--seed", 3, "--out-dir", tmp_path,
                    "--set", "a=0.5", "--set", "dim=2", "--set", "steps=8",
                    "--set", "emit=prior", "--set", "x=[[1.0, 0.0], [0.0, 1.0]]",
                    "--set", "n_samples=3"])
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[1].split(",")[1] == "limit-prior"
        report = read_report(tmp_path / "report.json")
        assert report["results"]["n_nonfinite"] == 0 and report["warnings"] == []

    # numpy's overflow warnings are the expected symptom of these configs.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command,settings", [
        ("sample-limit", ["a=1e300", "dim=2", "steps=16", "n_samples=3"]),
        ("sample-prior", ["x=[[1e308]]", "n_out=1", "depth=1", "width=2", "n_samples=50"]),
    ], ids=["sample-limit", "sample-prior"])
    def test_non_finite_draws_are_counted_and_flagged(self, tmp_path, command, settings):
        args = [command, "--seed", 1, "--out-dir", tmp_path]
        for item in settings:
            args += ["--set", item]
        assert run(args) == 0
        bad = set()
        for line in (tmp_path / "samples.csv").read_text().splitlines()[1:]:
            sample_id, route, _, _, value = line.split(",")
            if not np.isfinite(float(value)):
                bad.add((route, sample_id))
        report = read_report(tmp_path / "report.json")
        assert report["results"]["n_nonfinite"] == len(bad) > 0
        assert report["warnings"] == ["non-finite-draws"]


class TestPosteriorPredict:
    def test_nngp_matches_library(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SCALAR_CFG))
        code = run(["posterior-predict", "--config", cfg, "--out-dir", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        results = report["results"]
        data = posterior.Dataset(x=[[1.0]], y=[[2.0]], x0=[1.0], beta=1.0)
        mix = posterior.posterior_mixture(posterior.nngp_mixing(1), data)
        mean, cov = posterior.predictive_moments(mix)
        assert results["predictive_mean"] == pytest.approx(mean.tolist())
        assert results["predictive_covariance"][0] == pytest.approx(cov[0].tolist())
        assert results["ess"] == 1.0

    def test_nngp_report_has_no_warnings(self, tmp_path):
        # The one-component point mass has ESS 1 by design, not degenerate weights.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SCALAR_CFG))
        assert run(["posterior-predict", "--config", cfg, "--out-dir", tmp_path]) == 0
        assert read_report(tmp_path / "report.json")["warnings"] == []

    def test_limit_mixing_runs(self, tmp_path):
        cfg = dict(SCALAR_CFG)
        cfg.update({"mixing": "limit", "a": 1.0, "steps": 8, "n_mixing": 200})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["posterior-predict", "--config", path, "--out-dir", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        results = report["results"]
        assert results["n_components"] == 200
        assert results["ess"] > 100
        assert 1 / 200 <= results["max_weight"] < 1
        assert 0 < results["psi_min"] <= results["psi_max"]
        assert results["n_nonfinite"] == 0

    def test_report_echoes_resolved_config(self, tmp_path):
        # The report holds what the command read: n_mixing as an int, and
        # the default steps the limit draws used.
        args = ["posterior-predict", "--out-dir", tmp_path]
        for key, value in {**SCALAR_CFG, "mixing": "limit", "a": 1.0, "n_mixing": 64.0}.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        assert run(args) == 0
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config["n_mixing"] == 64 and isinstance(config["n_mixing"], int)
        assert config["steps"] == 4096

    def test_no_finite_psi_exits_2_without_a_report(self, tmp_path, capsys):
        # x = 1e200 overflows the Gram matrix: every Psi is infinite, so no
        # weighting exists.
        args = ["posterior-predict", "--seed", 1, "--out-dir", tmp_path, "--set", "x=[[1e200]]",
                "--set", "y=[[1.0]]", "--set", "x0=[1.0]", "--set", "beta=1.0"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(args) == 2
        assert "finite" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("depth", [0, -1])
    def test_finite_mixing_without_layers_exits_2(self, tmp_path, capsys, depth):
        args = ["posterior-predict", "--seed", 1, "--out-dir", tmp_path]
        for item in [*POSTERIOR_ARGS, 'mixing="finite"', f"depth={depth}", "width=4",
                     "n_mixing=4"]:
            args += ["--set", item]
        assert run(args) == 2
        assert "depth" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "report.json").exists()

    def test_finite_mixing_runs(self, tmp_path):
        cfg = dict(SCALAR_CFG)
        cfg.update({"mixing": "finite", "depth": 4, "width": 6, "n_mixing": 100})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["posterior-predict", "--config", path, "--out-dir", tmp_path]) == 0


class TestConvergeTest:
    def test_subset_runs_and_reports(self, tmp_path, capsys):
        code = run(["converge-test", "--seed", 2026, "--out-dir", tmp_path,
                    "--set", 'criteria=["c3-mgf-bridge", "c6-nngp-degeneracy"]'])
        assert code == 0
        lines = (tmp_path / "converge_test.csv").read_text().splitlines()
        assert lines[0] == "test,N,L,a,statistic,threshold,reference,pass"
        assert all(line.endswith("true") for line in lines[1:])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["failed"] == 0
        out = capsys.readouterr().out
        assert "PASS mgf-bridge-n1000" in out

    def test_unknown_criterion_exits_2(self, tmp_path, capsys):
        assert run(["converge-test", "--seed", 1, "--out-dir", tmp_path,
                    "--set", 'criteria=["no-such-check"]']) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "unknown check 'no-such-check'"

    @pytest.mark.parametrize(
        "command, setting",
        [("verify-all", "checks=[]"), ("converge-test", 'criteria=["c3-mgf-bridge", "c3-mgf-bridge"]')],
    )
    def test_empty_or_repeated_selection_exits_2(self, tmp_path, capsys, command, setting):
        # An empty selection measures nothing; a repeated one writes its rows twice.
        assert run([command, "--seed", 1, "--out-dir", tmp_path, "--set", setting]) == 2
        assert "no check twice" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "report.json").exists()

    def test_zero_step_refinement_grid_exits_2(self, tmp_path, capsys):
        # A bad grid is a config error (exit 2), not a crash or a failed check:
        # c5_steps=3 is a valid grid, but its refinement pair's coarse grid,
        # 3 // C5_COARSE_SHARE, has no steps.
        code = run(["converge-test", "--seed", 1, "--out-dir", tmp_path,
                    "--set", "c5_steps=3", "--set", "grid_samples=4",
                    "--set", 'criteria=["c5-limit-vs-finite"]'])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "need at least 2 grid steps, got 0"

    @pytest.mark.parametrize(
        "knob", ["c5_steps=1", "c5_steps=7"]
    )
    def test_bad_c5_grid_fails_before_any_draw(self, tmp_path, monkeypatch, knob):
        # At the default sample counts the draws before a late check take ~10 s.
        def no_draws(*args, **kwargs):
            raise AssertionError("c5 drew samples before checking its grids")

        monkeypatch.setattr(prior, "vbar_finite_samples", no_draws)
        code = run(["converge-test", "--seed", 1, "--out-dir", tmp_path, "--set", knob,
                    "--set", 'criteria=["c5-limit-vs-finite"]'])
        assert code == 2


def test_outputs_are_replaced_not_truncated(tmp_path):
    # A rewrite creates a new file: a hard link to the old one keeps its bytes.
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    cli._write_report(report, {"run": 1})
    cli._write_csv(table, ["run"], ["1\n"])
    os.link(report, tmp_path / "old.json")
    os.link(table, tmp_path / "old.csv")
    cli._write_report(report, {"run": 2})
    cli._write_csv(table, ["run"], ["2\n"])
    assert json.loads((tmp_path / "old.json").read_text()) == {"run": 1}
    assert json.loads(report.read_text()) == {"run": 2}
    assert (tmp_path / "old.csv").read_text() == "run\n1\n"
    assert table.read_text() == "run\n2\n"


def test_non_finite_report_refused_before_the_file_is_touched(tmp_path):
    report = tmp_path / "report.json"
    cli._write_report(report, {"run": 1})
    with pytest.raises(ValueError):
        cli._write_report(report, {"run": float("nan")})
    assert read_report(report) == {"run": 1}


def test_write_csv_golden(tmp_path):
    # Signed zero, infinity and NaN take the same 17-digit text as any value.
    draws = np.random.default_rng(0).standard_normal((300, 3, 2))
    draws[0, 0, 0], draws[1, 0, 0], draws[2, 1, 1] = -0.0, np.inf, np.nan
    path = tmp_path / "samples.csv"
    cli._write_csv(path, ["sample_id", "route", "row", "col", "value"],
                   cli._sample_rows(draws, "mixture"))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest()[:12] == "3700d41c43e4"
    assert b"\n1,mixture,0,0,inf\n" in data and b"\n0,mixture,0,0,-0\n" in data


# Modules of proplimit that some command runs; importing the CLI loads none.
COMMAND_MODULES = {"verify", "analysis", "posterior", "limit", "prior"}

# The sampling commands, tiny and single-worker, each with the modules of
# proplimit it must never load.
COLD_COMMANDS = {
    "prior": (["sample-prior", *PRIOR_ARGS], {"limit", "posterior", "verify", "analysis"}),
    "limit-vbar": (["sample-limit", *LIMIT_ARGS, "n_samples=2", "emit=vbar"],
                   {"posterior", "verify", "analysis"}),
    "limit-prior": (["sample-limit", *LIMIT_ARGS, "n_samples=2", "emit=prior",
                     "x=[[1.0, 0.0], [0.0, 1.0]]"], {"posterior", "verify", "analysis"}),
    "posterior-nngp": (["posterior-predict", *POSTERIOR_ARGS],
                       {"verify", "analysis", "limit", "prior"}),
    "posterior-finite": (["posterior-predict", *POSTERIOR_ARGS, 'mixing="finite"', "depth=2",
                          "width=4", "n_mixing=4"], {"verify", "analysis", "limit"}),
    "posterior-limit": (["posterior-predict", *POSTERIOR_ARGS, 'mixing="limit"', "a=0.5",
                         "steps=4", "n_mixing=4"], {"verify", "analysis"}),
}
# Imports the CLI and runs one command; reports the proplimit modules, and
# which of scipy and the thread pool, were loaded on import and after the run.
COLD_START = """
import json, sys
def loaded():
    return sorted(m.removeprefix("proplimit.") for m in sys.modules
                  if m.startswith("proplimit.") or m in ("scipy", "concurrent.futures"))
from proplimit import cli
on_import = loaded()
out_dir, command, *settings = sys.argv[1:]
argv = [command, "--seed", "5", "--out-dir", out_dir, "--set", "workers=1"]
for item in settings:
    argv += ["--set", item]
code = cli.main(argv)
print(json.dumps({"on_import": on_import, "code": code, "after_run": loaded()}))
"""


def run_fresh(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports proplimit from these sources."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """Each of ``COLD_COMMANDS`` run by ``COLD_START`` in its own interpreter."""
    runs = {}
    for name, (command, _) in COLD_COMMANDS.items():
        done = run_fresh("-c", COLD_START, str(tmp_path_factory.mktemp(name)), *command)
        assert done.returncode == 0, done.stderr
        runs[name] = json.loads(done.stdout.splitlines()[-1])
    return runs


def test_cli_import_loads_no_command_module(cold_runs):
    for run in cold_runs.values():
        assert COMMAND_MODULES.isdisjoint(run["on_import"]), run["on_import"]


def test_sampling_commands_import_neither_scipy_nor_the_thread_pool(cold_runs):
    # Only verify-all, converge-test and the dense oracles need scipy, and
    # only a multi-worker map needs the pool: both stay off the start-up path.
    for run in cold_runs.values():
        assert run["code"] == 0
        for modules in (run["on_import"], run["after_run"]):
            assert {"scipy", "concurrent.futures"}.isdisjoint(modules), modules


@pytest.mark.parametrize("name", COLD_COMMANDS)
def test_sampling_command_loads_only_the_modules_it_runs(cold_runs, name):
    run = cold_runs[name]
    assert run["code"] == 0
    assert COLD_COMMANDS[name][1].isdisjoint(run["after_run"]), run["after_run"]


def test_module_entry_point_prints_version():
    done = run_fresh("-m", "proplimit", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == cli.__version__
