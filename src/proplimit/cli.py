"""Command-line interface: experiment orchestration and reports.

Subcommands: sample-prior, sample-limit, posterior-predict, converge-test,
verify-all.  Each reads a JSON config file (``--config``), applies CLI
overrides (``--seed``, ``--out-dir``, ``--set key=value``) and resolves the
merged config against the command's schema (``_schema``): a key the
command never reads is an error, every key given must be a JSON value of
its kind in every mode, and unset keys take their defaults.  The command
reads only the resolved config, and writes CSV data plus one JSON run
report whose ``config`` echoes that resolved config, defaults included.

This module imports only the standard library, numpy and ``montecarlo``.
Each command imports the modules it runs when it runs, so that a fresh
process loads, and without cached bytecode compiles, only those:
``sample-prior`` ``prior``, ``sample-limit`` ``limit``, ``posterior-predict``
``posterior`` plus ``prior`` or ``limit`` for finite or limit mixing, and
the two verify commands ``verify``, whose ``VerifyConfig`` fields also make
up their schema.  The commands call into those modules through module
attributes (``limit.vbar_limit_samples``), never through names bound here.

Determinism contract: CSV bodies are byte-identical across reruns of the
same config and across worker counts (only the report's timing field may
differ).  The seed is mandatory; there is no wall-clock default.  Floats
are written with 17 significant digits and LF line endings.

Exit codes: 0 success, 1 check failure, 2 config error (a config too large
to allocate included).
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

from . import __version__
from .montecarlo import real, whole, worker_count

# Stream phases for CLI sampling stages.
PH_DIRECT, PH_MIXTURE, PH_LIMIT_PRIOR, PH_LIMIT_VBAR, PH_MIXING = 1, 2, 3, 4, 5


class ConfigError(Exception):
    """Invalid or incomplete configuration."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
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
    # Strict JSON: a NaN or infinity raises ValueError here, before the file is touched.
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with _create(path) as handle:
        handle.write(text + "\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, depth: int) -> bool:
    """Whether ``value`` is JSON numbers nested in ``depth`` levels of arrays."""
    if depth == 0:
        return _is_number(value)
    return isinstance(value, list) and all(_numbers(v, depth - 1) for v in value)


_ARRAY_DEPTH = {"vector": 1, "matrix": 2}
_LIST_ITEM = {"str_list": "str", "int_list": "int", "num_list": "float"}


def _coerce(value, key: str, kind: str):
    """``value`` as ``kind``: a JSON value of that kind, or a config error."""
    try:
        # The library's own count and real-number rules.
        if kind == "int":
            return whole(value, key)
        elif kind == "float":
            return real(value, key)
        elif kind == "str":
            if isinstance(value, str):
                return value
        elif kind in _ARRAY_DEPTH:
            # Leaf by leaf first: np.asarray turns strings, booleans and
            # None into floats or ints.  A ragged array raises ValueError.
            depth = _ARRAY_DEPTH[kind]
            if _numbers(value, depth):
                arr = np.asarray(value, dtype=float)
                if arr.ndim == depth:
                    return arr
        elif isinstance(value, list):
            return [_coerce(v, key, _LIST_ITEM[kind]) for v in value]
    except (OverflowError, ValueError):
        pass
    raise ConfigError(f"config key '{key}' is not a valid {kind}: {value!r}")


# Each command's config keys: key -> (kind, default).  A key without a
# default is required; one whose default is None stays unset until given.
_BASE = {"seed": ("int",), "out_dir": ("str", "."), "workers": ("int", None)}

# Grid size M of a limit draw when the config sets no ``steps``.
DEFAULT_STEPS = 4096

# The sampling commands' schemas; the verify commands' come from ``_schema``.
SCHEMAS = {
    "sample-prior": {
        **_BASE, "x": ("matrix",), "n_out": ("int",), "depth": ("int",), "width": ("int",),
        "lambdas": ("num_list", None), "widths": ("int_list", None),
        "routes": ("str_list", ("direct", "mixture")), "n_samples": ("int", 1000),
    },
    "sample-limit": {
        **_BASE, "a": ("float",), "dim": ("int",), "steps": ("int", DEFAULT_STEPS),
        "n_samples": ("int", 1000), "emit": ("str", "vbar"),
        # Read with emit=prior only.
        "x": ("matrix", None), "lambda_star": ("float", 1.0),
    },
    "posterior-predict": {
        **_BASE, "x": ("matrix",), "y": ("matrix",), "x0": ("vector",), "beta": ("float",),
        "mixing": ("str", "nngp"),
        # Read with mixing=finite (n_mixing, depth, width) or limit (n_mixing, a, steps).
        "n_mixing": ("int", None), "depth": ("int", None), "width": ("int", None),
        "a": ("float", None), "steps": ("int", DEFAULT_STEPS),
    },
}

# The config key that names the checks each verify command runs.
_VERIFY_NAMES = {"converge-test": "criteria", "verify-all": "checks"}


@functools.cache
def _schema(command: str) -> dict:
    """The config schema of ``command``.

    A verify command's keys are ``verify.VerifyConfig``'s fields, all
    integers, then ``_BASE`` and its names key, so its schema is built,
    importing ``verify``, the first time it is asked for.
    """
    if command in SCHEMAS:
        return SCHEMAS[command]
    from . import verify

    knobs = {f.name: ("int", f.default) for f in fields(verify.VerifyConfig)}
    return {**knobs, **_BASE, _VERIFY_NAMES[command]: ("str_list", None)}


def _need(cfg: dict, command: str, *keys) -> None:
    """Reject ``cfg`` unless it sets every one of ``keys`` to a value other than null."""
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"{command}: missing required config key '{key}'")


def _resolve(cfg: dict, command: str) -> dict:
    """``cfg`` checked against the schema of ``command``, defaults filled in.

    Every key given is coerced by its kind, whichever mode reads it; an
    unset key whose default is None stays out.  Creates the output directory.
    """
    schema = _schema(command)
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ConfigError(f"{command}: unknown config key '{unknown[0]}'")
    _need(cfg, command, *[key for key, spec in schema.items() if len(spec) == 1])
    resolved = {}
    for key, (kind, *default) in schema.items():
        if key in cfg:
            resolved[key] = _coerce(cfg[key], key, kind)
        elif default[0] is not None:
            resolved[key] = default[0]
    # Streams key on the seed mod 2**64; outside that range two seeds would
    # draw the same numbers under different provenance.
    if not 0 <= resolved["seed"] < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {resolved['seed']}")
    Path(resolved["out_dir"]).mkdir(parents=True, exist_ok=True)
    return resolved


def _report(cfg: dict, command: str, start: float, results: dict, outputs=(),
            warnings=()) -> None:
    """Write ``report.json``: the resolved ``cfg`` as the command read it,
    its ``results``, the data files written and the seconds since ``start``."""
    _write_report(Path(cfg["out_dir"]) / "report.json", {
        "command": command,
        "version": __version__,
        "rng": {"algorithm": "Philox", "seed": cfg["seed"]},
        "config": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in cfg.items()},
        "results": results,
        "outputs": list(outputs),
        "warnings": list(warnings),
        "timing_seconds": time.perf_counter() - start,
    })


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


def _nonfinite_report(*stacks) -> tuple[int, list]:
    """Draws (first axis) with any non-finite entry over ``stacks``, and
    the report warnings that count calls for."""
    count = sum(int(len(s) - np.isfinite(s).reshape(len(s), -1).all(axis=1).sum())
                for s in stacks)
    return count, ["non-finite-draws"] if count else []


def cmd_sample_prior(cfg: dict) -> int:
    from . import prior

    routes = cfg["routes"]
    if not routes or set(routes) - {"direct", "mixture"} or len(set(routes)) < len(routes):
        raise ConfigError(
            f"routes must name direct and/or mixture, at least one and none twice: {routes}"
        )
    x, n_samples, seed, workers = cfg["x"], cfg["n_samples"], cfg["seed"], cfg.get("workers")
    shape = prior.NetworkShape(
        n_in=x.shape[0], n_out=cfg["n_out"], depth=cfg["depth"], width=cfg["width"],
        lambdas=cfg.get("lambdas"), widths=cfg.get("widths"),
    )
    cfg.update(lambdas=list(shape.lambdas), widths=list(shape.layer_widths))
    start = time.perf_counter()
    drawn = []
    for route in routes:
        if route == "direct":
            draws = prior.forward_direct_samples(x, shape, n_samples, seed, PH_DIRECT, workers)
        else:
            draws = prior.prior_mixture_samples(x, shape, n_samples, seed, PH_MIXTURE, workers)
        drawn.append((draws, route))

    _write_csv(
        Path(cfg["out_dir"]) / "samples.csv", ["sample_id", "route", "row", "col", "value"],
        itertools.chain.from_iterable(_sample_rows(*pair) for pair in drawn),
    )
    n_nonfinite, warnings = _nonfinite_report(*(draws for draws, _ in drawn))
    _report(cfg, "sample-prior", start,
            {"n_samples": n_samples, "routes": routes, "n_nonfinite": n_nonfinite},
            ["samples.csv"], warnings)
    return 0


def cmd_sample_limit(cfg: dict) -> int:
    from . import limit

    emit = cfg["emit"]
    if emit not in ("vbar", "prior"):
        raise ConfigError(f"emit must be 'vbar' or 'prior', got {emit!r}")
    a, dim, steps, n_samples = cfg["a"], cfg["dim"], cfg["steps"], cfg["n_samples"]
    seed, workers = cfg["seed"], cfg.get("workers")
    start = time.perf_counter()
    if emit == "vbar":
        draws = limit.vbar_limit_samples(a, dim, steps, n_samples, seed, PH_LIMIT_VBAR, workers)
    else:
        _need(cfg, "sample-limit", "x")
        draws = limit.prior_limit_samples(
            cfg["x"], a, dim, cfg["lambda_star"], steps, n_samples, seed,
            PH_LIMIT_PRIOR, workers,
        )

    _write_csv(
        Path(cfg["out_dir"]) / "samples.csv", ["sample_id", "route", "row", "col", "value"],
        _sample_rows(draws, f"limit-{emit}"),
    )
    n_nonfinite, warnings = _nonfinite_report(draws)
    _report(cfg, "sample-limit", start,
            {"n_samples": n_samples, "emit": emit, "n_nonfinite": n_nonfinite},
            ["samples.csv"], warnings)
    return 0


def _mixing_draws(cfg: dict, n_out: int) -> np.ndarray:
    source, seed, workers = cfg["mixing"], cfg["seed"], cfg.get("workers")
    if source == "nngp":
        from . import posterior

        return posterior.nngp_mixing(n_out)
    if source == "finite":
        from . import prior

        _need(cfg, "posterior-predict", "n_mixing", "depth", "width")
        vbars = prior.vbar_finite_samples(
            cfg["depth"], cfg["width"], n_out, cfg["n_mixing"], seed, PH_MIXING, workers
        )
    elif source == "limit":
        from . import limit

        _need(cfg, "posterior-predict", "n_mixing", "a")
        vbars = limit.vbar_limit_samples(
            cfg["a"], n_out, cfg["steps"], cfg["n_mixing"], seed, PH_MIXING, workers
        )
    else:
        raise ConfigError(f"mixing must be finite/limit/nngp, got {source!r}")
    return np.einsum("nij,nkj->nik", vbars, vbars)


def cmd_posterior_predict(cfg: dict) -> int:
    from . import posterior

    data = posterior.Dataset(x=cfg["x"], y=cfg["y"], x0=cfg["x0"], beta=cfg["beta"])
    start = time.perf_counter()
    qs = _mixing_draws(cfg, data.n_out)
    mix = posterior.posterior_mixture(qs, data)
    mean, cov = posterior.predictive_moments(mix)
    results = {
        "predictive_mean": mean.tolist(),
        "predictive_covariance": cov.tolist(),
        "ess": mix.ess,
        "n_components": mix.n_components,
        "max_weight": mix.max_weight,
        "psi_min": mix.psi_range[0],
        "psi_max": mix.psi_range[1],
        "n_nonfinite": mix.n_nonfinite,
    }
    _report(cfg, "posterior-predict", start, results, warnings=mix.warnings)
    return 0


def _run_verify(cfg: dict, command: str, include_properties: bool, csv_name: str) -> int:
    from . import verify

    knobs = {f.name for f in fields(verify.VerifyConfig)}
    vcfg = verify.VerifyConfig(**{k: v for k, v in cfg.items() if k in knobs})
    names = cfg.get(_VERIFY_NAMES[command])

    start = time.perf_counter()
    names, rows = verify.run_checks(vcfg, names, include_properties=include_properties)
    _write_csv(
        Path(cfg["out_dir"]) / csv_name,
        ["test", "N", "L", "a", "statistic", "threshold", "reference", "pass"],
        [_table_text(
            (r.test, r.width, r.depth, r.a, r.statistic, r.threshold, r.reference, r.passed)
            for r in rows
        )],
    )
    n_failed = sum(0 if r.passed else 1 for r in rows)
    results = {
        "checks_run": names,
        "rows": len(rows),
        "failed": n_failed,
        "failed_tests": [r.test for r in rows if not r.passed],
        "workers": worker_count(vcfg.workers),
    }
    _report(cfg, command, start, results, [csv_name])
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
        return COMMANDS[args.command](_resolve(cfg, args.command))
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        message = str(exc)
    except MemoryError as exc:
        # A grid, chain or sample count too large to allocate.
        message = f"not enough memory for this config: {str(exc) or 'allocation failed'}"
    print(json.dumps({"error": message, "command": args.command}), file=sys.stderr)
    return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
