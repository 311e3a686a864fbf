"""Command-line interface: experiment orchestration and reports.

Subcommands: sample-prior, sample-limit, posterior-predict, converge-test,
verify-all.  Each reads a JSON config file (``--config``), applies CLI
overrides (``--seed``, ``--out-dir``, ``--set key=value``), validates the
merged config against the command schema, and writes CSV data plus one
JSON run report echoing the fully resolved config.

Determinism contract: CSV bodies are byte-identical across reruns of the
same config and across worker counts (only the report's timing field may
differ).  The seed is mandatory; there is no wall-clock default.  Floats
are written with 17 significant digits and LF line endings.

Exit codes: 0 success, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, limit, posterior, prior, verify
from .montecarlo import worker_count

# Stream phases for CLI sampling stages.
PH_DIRECT, PH_MIXTURE, PH_LIMIT_PRIOR, PH_LIMIT_VBAR, PH_MIXING = 1, 2, 3, 4, 5


class ConfigError(Exception):
    """Invalid or incomplete configuration."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _create(path: Path):
    """``path`` opened for writing as a new file, replacing any file there.

    An existing file is unlinked, not truncated: on ext4, closing a file
    truncated from a nonzero size starts a flush (``auto_da_alloc``), and
    rewrites of ``report.json`` in place stalled for 11-13 ms now and then
    in benchmark runs, against about 1 ms otherwise.
    """
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: Path, header, lines) -> None:
    """Write the ``header`` row, then ``lines``: CSV text, one or more rows per item.

    ``lines`` may be lazy; it is consumed, and so formatted, here.
    """
    with _create(path) as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)


def _table_text(rows) -> str:
    """CSV text of rows of mixed values, each formatted by ``_fmt`` and quoted as needed."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)
    return buffer.getvalue()


def _write_report(path: Path, report: dict) -> None:
    with _create(path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _require(cfg: dict, key: str, kind, command: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{command}: missing required config key '{key}'")
    return _coerce(cfg[key], key, kind)


def _coerce(value, key: str, kind):
    try:
        if kind == "int":
            if isinstance(value, bool):
                raise ValueError
            # Integers compare exactly: float() would round those above 2**53.
            if not isinstance(value, (int, np.integer)) and int(value) != float(value):
                raise ValueError
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind == "vector":
            arr = np.asarray(value, dtype=float)
            if arr.ndim != 1:
                raise ValueError
            return arr
        if kind == "matrix":
            arr = np.asarray(value, dtype=float)
            if arr.ndim != 2:
                raise ValueError
            return arr
        if kind == "str_list":
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, str) for v in value
            ):
                raise ValueError
            return list(value)
        if kind == "int_list":
            return [_coerce(v, key, "int") for v in value]
        if kind == "num_list":
            arr = [float(v) for v in value]
            return arr
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"config key '{key}' is not a valid {kind}: {value!r}")


def _common(cfg: dict, command: str):
    seed = _require(cfg, "seed", "int", command)
    # Streams key on the seed mod 2**64; outside that range two seeds would
    # draw the same numbers under different provenance.
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    out_dir = Path(_coerce(cfg.get("out_dir", "."), "out_dir", "str"))
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = cfg.get("workers")
    if workers is not None:
        workers = _coerce(workers, "workers", "int")
    return seed, out_dir, workers


def _base_report(command: str, cfg: dict, seed: int) -> dict:
    return {
        "command": command,
        "version": __version__,
        "rng": {"algorithm": "Philox", "seed": seed},
        "config": {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in cfg.items()
        },
        "warnings": [],
    }


def _sample_rows(draws: np.ndarray, route: str):
    """Lazy CSV text of ``sample_id,route,row,col,value`` rows, one block per sample.

    Values take 17 significant digits, as ``_fmt`` writes them; route
    names are plain words, so no field needs quoting.
    """
    n, n_rows, n_cols = draws.shape
    template = "".join(f"%d,{route},{r},{c},%.17g\n" for r in range(n_rows) for c in range(n_cols))
    args = [0] * (2 * n_rows * n_cols)
    for idx, values in enumerate(draws.reshape(n, -1).tolist()):
        args[0::2] = [idx] * len(values)
        args[1::2] = values
        yield template % tuple(args)


def cmd_sample_prior(cfg: dict) -> int:
    command = "sample-prior"
    seed, out_dir, workers = _common(cfg, command)
    x = _require(cfg, "x", "matrix", command)
    n_out = _require(cfg, "n_out", "int", command)
    depth = _require(cfg, "depth", "int", command)
    width = _require(cfg, "width", "int", command)
    lambdas = cfg.get("lambdas")
    if lambdas is not None:
        lambdas = tuple(_coerce(lambdas, "lambdas", "num_list"))
    widths = cfg.get("widths")
    if widths is not None:
        widths = tuple(_coerce(widths, "widths", "int_list"))
    routes = _coerce(cfg.get("routes", ["direct", "mixture"]), "routes", "str_list")
    bad = set(routes) - {"direct", "mixture"}
    if bad or not routes:
        raise ConfigError(f"routes must be a nonempty subset of direct/mixture: {routes}")
    n_samples = _coerce(cfg.get("n_samples", 1000), "n_samples", "int")

    shape = prior.NetworkShape(
        n_in=x.shape[0], n_out=n_out, depth=depth, width=width,
        lambdas=lambdas, widths=widths,
    )
    resolved = dict(
        cfg,
        x=x, n_out=n_out, depth=depth, width=width,
        lambdas=list(shape.lambdas), widths=list(shape.layer_widths),
        routes=routes, n_samples=n_samples, out_dir=str(out_dir),
    )
    start = time.perf_counter()
    drawn = []
    for route in routes:
        if route == "direct":
            draws = prior.forward_direct_samples(x, shape, n_samples, seed, PH_DIRECT, workers)
        else:
            draws = prior.prior_mixture_samples(x, shape, n_samples, seed, PH_MIXTURE, workers)
        drawn.append((draws, route))

    csv_path = out_dir / "samples.csv"
    _write_csv(
        csv_path, ["sample_id", "route", "row", "col", "value"],
        itertools.chain.from_iterable(_sample_rows(*pair) for pair in drawn),
    )
    report = _base_report(command, resolved, seed)
    report["results"] = {"n_samples": n_samples, "routes": routes}
    report["outputs"] = [csv_path.name]
    report["timing_seconds"] = time.perf_counter() - start
    _write_report(out_dir / "report.json", report)
    return 0


def cmd_sample_limit(cfg: dict) -> int:
    command = "sample-limit"
    seed, out_dir, workers = _common(cfg, command)
    a = _require(cfg, "a", "float", command)
    dim = _require(cfg, "dim", "int", command)
    steps = _coerce(cfg.get("steps", limit.DEFAULT_STEPS), "steps", "int")
    n_samples = _coerce(cfg.get("n_samples", 1000), "n_samples", "int")
    emit = _coerce(cfg.get("emit", "vbar"), "emit", "str")
    if emit not in ("vbar", "prior"):
        raise ConfigError(f"emit must be 'vbar' or 'prior', got {emit!r}")

    resolved = dict(
        cfg, a=a, dim=dim, steps=steps, n_samples=n_samples, emit=emit,
        out_dir=str(out_dir),
    )
    start = time.perf_counter()
    if emit == "vbar":
        draws = limit.vbar_limit_samples(a, dim, steps, n_samples, seed, PH_LIMIT_VBAR, workers)
        route = "limit-vbar"
    else:
        x = _require(cfg, "x", "matrix", command)
        lambda_star = _coerce(cfg.get("lambda_star", 1.0), "lambda_star", "float")
        resolved.update(x=x, lambda_star=lambda_star)
        draws = limit.prior_limit_samples(
            x, a, dim, x.shape[0], lambda_star, steps, n_samples, seed,
            PH_LIMIT_PRIOR, workers,
        )
        route = "limit-prior"

    csv_path = out_dir / "samples.csv"
    _write_csv(
        csv_path, ["sample_id", "route", "row", "col", "value"],
        _sample_rows(draws, route),
    )
    report = _base_report(command, resolved, seed)
    report["results"] = {"n_samples": n_samples, "emit": emit}
    report["outputs"] = [csv_path.name]
    report["timing_seconds"] = time.perf_counter() - start
    _write_report(out_dir / "report.json", report)
    return 0


def _mixing_draws(cfg: dict, seed: int, workers, n_out: int) -> np.ndarray:
    source = _coerce(cfg.get("mixing", "nngp"), "mixing", "str")
    if source == "nngp":
        return posterior.nngp_mixing(n_out)
    n_mixing = _require(cfg, "n_mixing", "int", "posterior-predict")
    if source == "finite":
        depth = _require(cfg, "depth", "int", "posterior-predict")
        width = _require(cfg, "width", "int", "posterior-predict")
        vbars = prior.vbar_finite_samples(
            depth, width, n_out, n_mixing, seed, PH_MIXING, workers
        )
    elif source == "limit":
        a = _require(cfg, "a", "float", "posterior-predict")
        steps = _coerce(cfg.get("steps", limit.DEFAULT_STEPS), "steps", "int")
        vbars = limit.vbar_limit_samples(
            a, n_out, steps, n_mixing, seed, PH_MIXING, workers
        )
    else:
        raise ConfigError(f"mixing must be finite/limit/nngp, got {source!r}")
    return np.einsum("nij,nkj->nik", vbars, vbars)


def cmd_posterior_predict(cfg: dict) -> int:
    command = "posterior-predict"
    seed, out_dir, workers = _common(cfg, command)
    x = _require(cfg, "x", "matrix", command)
    y = _require(cfg, "y", "matrix", command)
    x0 = _require(cfg, "x0", "vector", command)
    beta = _require(cfg, "beta", "float", command)
    data = posterior.Dataset(x=x, y=y, x0=x0, beta=beta)
    resolved = dict(
        cfg, x=x, y=y, x0=x0, beta=beta,
        mixing=cfg.get("mixing", "nngp"), out_dir=str(out_dir),
    )

    start = time.perf_counter()
    qs = _mixing_draws(cfg, seed, workers, data.n_out)
    mix = posterior.posterior_mixture(qs, data)
    mean, cov = posterior.predictive_moments(mix)

    report = _base_report(command, resolved, seed)
    report["results"] = {
        "predictive_mean": mean.tolist(),
        "predictive_covariance": cov.tolist(),
        "ess": mix.ess,
        "n_components": mix.n_components,
        "max_weight": mix.max_weight,
        "psi_min": mix.psi_range[0],
        "psi_max": mix.psi_range[1],
        "n_nonfinite": mix.n_nonfinite,
    }
    report["warnings"] = list(mix.warnings)
    report["outputs"] = []
    report["timing_seconds"] = time.perf_counter() - start
    _write_report(out_dir / "report.json", report)
    return 0


def _verify_config(cfg: dict, seed: int, workers) -> verify.VerifyConfig:
    knobs = {"seed": seed, "workers": workers}
    known = {f.name for f in fields(verify.VerifyConfig)}
    for key, value in cfg.items():
        if key in ("seed", "workers", "out_dir", "checks", "criteria"):
            continue
        if key not in known:
            raise ConfigError(f"unknown verify config key '{key}'")
        kind = "float" if key == "ks_alpha" else "int"
        knobs[key] = _coerce(value, key, kind)
    return verify.VerifyConfig(**knobs)


def _run_verify(cfg: dict, command: str, include_properties: bool, csv_name: str) -> int:
    seed, out_dir, workers = _common(cfg, command)
    vcfg = _verify_config(cfg, seed, workers)
    names = cfg.get("criteria") if command == "converge-test" else cfg.get("checks")
    if names is not None:
        names = _coerce(names, "criteria", "str_list")

    start = time.perf_counter()
    names, rows = verify.run_checks(vcfg, names, include_properties=include_properties)
    csv_path = out_dir / csv_name
    _write_csv(
        csv_path,
        ["test", "N", "L", "a", "statistic", "threshold", "reference", "pass"],
        [_table_text(
            (r.test, r.width, r.depth, r.a, r.statistic, r.threshold, r.reference, r.passed)
            for r in rows
        )],
    )
    n_failed = sum(0 if r.passed else 1 for r in rows)
    resolved = dict(cfg, out_dir=str(out_dir))
    resolved.update({f.name: getattr(vcfg, f.name) for f in fields(verify.VerifyConfig)})
    report = _base_report(command, resolved, seed)
    report["results"] = {
        "checks_run": names,
        "rows": len(rows),
        "failed": n_failed,
        "failed_tests": [r.test for r in rows if not r.passed],
        "workers": worker_count(workers),
    }
    report["outputs"] = [csv_path.name]
    report["timing_seconds"] = time.perf_counter() - start
    _write_report(out_dir / "report.json", report)
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status} {row.test}: statistic={row.statistic:.6g} "
              f"threshold={row.threshold:.6g}")
    return 0 if n_failed == 0 else 1


def cmd_converge_test(cfg: dict) -> int:
    return _run_verify(cfg, "converge-test", False, "converge_test.csv")


def cmd_verify_all(cfg: dict) -> int:
    return _run_verify(cfg, "verify-all", True, "verify_all.csv")


COMMANDS = {
    "sample-prior": cmd_sample_prior,
    "sample-limit": cmd_sample_limit,
    "posterior-predict": cmd_posterior_predict,
    "converge-test": cmd_converge_test,
    "verify-all": cmd_verify_all,
}


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="proplimit",
        description=(
            "Sample and verify deep linear Bayesian network priors and "
            "posteriors across width/depth regimes."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None,
                         help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="master seed (required here or in the config)")
        cmd.add_argument("--out-dir", type=str, default=None,
                         help="output directory (default '.')")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override any config key (value parsed as JSON)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg: dict = {}
        if args.config is not None:
            with open(args.config) as handle:
                loaded = json.load(handle)
            if not isinstance(loaded, dict):
                raise ConfigError("config file must hold a JSON object")
            cfg.update(loaded)
        for item in args.set:
            key, value = _parse_override(item)
            cfg[key] = value
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
        return COMMANDS[args.command](cfg)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        error = {"error": str(exc), "command": args.command}
        print(json.dumps(error), file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
