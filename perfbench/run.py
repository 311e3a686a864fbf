"""Benchmark of the proplimit command-line tool, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload finite-chain --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed``, then calls
``proplimit.cli.main(argv)`` in-process, one invocation at a time
(closed loop, one client, ``workers=1``, one BLAS thread), for
``--seconds`` seconds after one untimed warm-up invocation, with a
garbage collection before each invocation, outside its timing.  Every
invocation's output is checked: the first against closed forms or a
dense reference (``workloads.py``), every later one for byte identity
with the first.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
per invocation, items per second, set-up seconds (median over fresh
processes that import ``proplimit.cli`` and build the inputs) and peak
resident memory.  Times are in reference seconds: each median is scaled
by the host speed measured among the same invocations, so that the
drift of a shared host's speed cancels (``hostspeed.py``); the unscaled
medians are printed beside them.  ``--trace 1`` alternates untraced and
traced invocations and reports per-layer calls, total and self seconds from
spans recorded around proplimit's entry points (``tracing.py``), plus
the tracing overhead.  A traced run is flagged incorrect when the traced
layers below ``cli.main`` cover less of an invocation's wall time than
the workload states (``workloads.LAYER_SHARE``), or when a count differs
between its invocations or from an earlier traced run of the same
sources, workload and seed.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every workload, one after another:

    for w in finite-chain limit-deep-grid posterior-collinear; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Exit code 2, without a result line, when the checkout holds no
``src/proplimit``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by the set-up
# probes.  On a few shared cores, idle BLAS worker threads spin against
# other load and make timings swing by whole multiples; the workloads are
# single-threaded baselines.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("finite-chain", "limit-deep-grid", "posterior-collinear")

SETUP_PROBES = 6  # timed fresh-process set-ups per run, after one untimed
MIN_TIMED = 3  # timed invocations per run, even past --seconds
MIN_TRACED = 2  # traced and untraced invocations each, in a traced run
LOOP_CAP_S = 120.0  # stop starting invocations after this, whatever the minimums
PROBE_TIMEOUT_S = 60.0


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> list:
    """Seconds to import proplimit.cli and build the inputs, in this process,
    and a host-speed sample taken after one warm-up run of the kernel."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import proplimit.cli  # noqa: F401
    import workloads

    workloads.build(name, seed).argv(WORK / name)
    seconds = time.perf_counter() - start
    import hostspeed

    hostspeed.kernel_seconds()
    return [seconds, hostspeed.kernel_mean_seconds()]


def measure_setup(name: str, seed: int) -> tuple:
    """Set-up seconds and host-speed samples from fresh processes; the first
    probe, which fills caches, is dropped."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    seconds, kernels = zip(*probes[1:])
    return list(seconds), list(kernels)


def environment(w, argv) -> dict:
    import numpy
    import scipy
    import proplimit

    backend = getattr(proplimit, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if backend else "absent",
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
        "platform": platform.platform(),
        "workload": w.name,
        "seed": w.seed,
        "argv": ["proplimit"] + argv,
    }


def _fingerprint(w, out_dir: Path) -> str:
    if w.writes_csv:
        return hashlib.sha256((out_dir / "samples.csv").read_bytes()).hexdigest()
    results = json.loads((out_dir / "report.json").read_text())["results"]
    return json.dumps(results, sort_keys=True)


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Runner:
    """Runs invocations of one workload and keeps what each produced."""

    def __init__(self, w, cli_main, out_dir: Path):
        self.w = w
        self.cli_main = cli_main
        self.out_dir = out_dir
        self.first_dir = out_dir.with_name(out_dir.name + "-first")
        self.argv = w.argv(out_dir)
        self.attempted = 0
        self.failed = 0
        self.first = None  # fingerprint of the first good output
        self.first_ok = 0  # invocations whose output matched it
        self.problems: list = []

    def invoke(self, call=None):
        """One invocation; returns its (wall_s, cpu_s)."""
        call = call or self.cli_main
        self.attempted += 1
        gc.collect()  # no garbage left by one invocation is collected in the next
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        try:
            code = call(self.argv)
        except Exception:  # a crash is one failed invocation, not a failed run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if code != 0:
            self.failed += 1
            self.problems.append(f"invocation {self.attempted}: exit code {code}")
        elif not self._same_as_first():
            self.failed += 1
            self.problems.append(f"invocation {self.attempted}: output differs from the first")
        return wall, cpu

    def _same_as_first(self) -> bool:
        try:
            digest = _fingerprint(self.w, self.out_dir)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"unreadable output: {exc}")
            return False
        if self.first is None:
            self.first = digest
            shutil.copytree(self.out_dir, self.first_dir, dirs_exist_ok=True)
        same = digest == self.first
        self.first_ok += same
        return same

    def check_first(self) -> None:
        """Check the first output; every output equal to it shares the verdict."""
        if self.first is None:
            return
        import workloads

        reference = None if self.w.writes_csv else workloads.posterior_reference(self.w)
        try:
            found = workloads.check_output(self.w, self.first_dir, reference)
        except (OSError, ValueError, KeyError) as exc:
            found = [f"unreadable output: {exc}"]
        if found:
            self.problems += found
            self.failed += self.first_ok

    def csv_bytes(self) -> int:
        path = self.out_dir / "samples.csv"
        return path.stat().st_size if self.w.writes_csv and path.exists() else 0


def run_untraced(runner: Runner, seconds: float):
    """Timed invocations, with a host-speed sample before the first and after each."""
    import hostspeed

    walls, cpus = [], []
    runner.invoke()  # warm-up: lazy imports and caches, output checked
    kernels = [hostspeed.kernel_mean_seconds()]
    start = time.perf_counter()
    while (len(walls) < MIN_TIMED or time.perf_counter() - start < seconds) and (
        time.perf_counter() - start < LOOP_CAP_S
    ):
        wall, cpu = runner.invoke()
        walls.append(wall)
        cpus.append(cpu)
        kernels.append(hostspeed.kernel_mean_seconds())
    return walls, cpus, kernels


def run_traced(runner: Runner, tracer, seconds: float):
    """Alternate traced and untraced invocations; per-layer summaries of the traced.

    Also returns the traced invocations whose layers below ``cli.main``
    cover less of the wall time than ``workloads.LAYER_SHARE`` states.
    """
    import tracing
    import workloads

    least = workloads.LAYER_SHARE[runner.w.name]
    plain, traced, summaries, counts, flags = [], [], [], [], []
    runner.invoke()
    start = time.perf_counter()
    while (
        min(len(plain), len(traced)) < MIN_TRACED or time.perf_counter() - start < seconds
    ) and time.perf_counter() - start < LOOP_CAP_S:
        if len(traced) <= len(plain):
            inv = len(traced)
            wall, _ = runner.invoke(lambda argv: tracer.run(inv, runner.cli_main, argv))
            traced.append(wall)
            summary = tracer.summary(inv)
            summaries.append(summary)
            counts.append(layer_counts(summary, tracer.stack_bytes, runner))
            covered = (wall - summary[tracing.ROOT]["self_s"]) / wall
            if covered < least:
                flags.append(
                    f"traced invocation {inv}: layers below {tracing.ROOT} cover "
                    f"{covered:.1%} of {wall:.4f} s wall, less than {least:.0%}"
                )
        else:
            plain.append(runner.invoke()[0])
    return plain, traced, summaries, counts, flags


def layer_counts(summary: dict, stack_bytes: int, runner: Runner) -> dict:
    """Counts that must repeat exactly for the same code and inputs."""
    items = runner.w.items
    calls = {f"{span}.calls": s["calls"] for span, s in summary.items()}
    linalg = summary["linalg.cholesky"]["calls"] + summary["linalg.pinv"]["calls"]
    return {
        **calls,
        "cli.csv_bytes": runner.csv_bytes(),
        "montecarlo.streams_per_draw": summary["montecarlo.stream_for"]["calls"] / items,
        "limit.suffix_calls_per_draw": summary["backend.suffix_mac"]["calls"] / items,
        "posterior.linalg_calls_per_component": linalg / items,
        "posterior.stack_bytes": stack_bytes,
    }


COUNT_UNITS = {
    "cli.csv_bytes": "B",
    "montecarlo.streams_per_draw": "ratio",
    "limit.suffix_calls_per_draw": "ratio",
    "posterior.linalg_calls_per_component": "ratio",
    "posterior.stack_bytes": "B",
}


def source_digest() -> str:
    """Hash of the proplimit and benchmark sources: the code whose counts are compared."""
    digest = hashlib.sha256()
    files = [*SRC.glob("proplimit/*.py"), *SRC.glob("proplimit/*.pyx"),
             *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def compare_counts(w, counts: list) -> list:
    """Flag counts that differ between invocations or from an earlier run of the same code.

    The first traced run of a workload and seed records its counts under
    ``.perfbench_work/counts/<source digest>/``; later runs of the same
    sources compare against that record.  Runs of other sources, such as
    a parent commit and a change alternating in one checkout, never meet.
    """
    flags = [
        f"count {key} differs between invocations: {sorted({c[key] for c in counts})}"
        for key in counts[0] if len({c[key] for c in counts}) > 1
    ]
    record = WORK / "counts" / source_digest() / f"{w.name}-{w.seed}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        flags += [
            f"count {key} = {counts[0][key]} here, {earlier[key]} in an earlier run"
            for key in counts[0] if key in earlier and earlier[key] != counts[0][key]
        ]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts[0], sort_keys=True))
    return flags


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(w, walls, cpus, kernels, setups, setup_kernels) -> dict:
    """Medians in reference seconds: each median time is scaled by the median
    host-speed sample taken among the same invocations (``hostspeed``)."""
    import hostspeed

    scale = hostspeed.scale(statistics.median(kernels))
    wall = statistics.median(walls) * scale
    setup_scale = hostspeed.scale(statistics.median(setup_kernels))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(wall, "s"),
        "items_per_s": _metric(w.items / wall, "1/s"),
        "cpu_s": _metric(statistics.median(cpus) * scale, "s"),
        "setup_s": _metric(statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
    }


def per_layer_metrics(plain, traced, summaries, counts) -> dict:
    metrics = {}
    for span in summaries[0]:
        metrics[f"{span}.calls"] = _metric(counts[0][f"{span}.calls"], "count")
        for key in ("s", "self_s"):
            metrics[f"{span}.{key}"] = _metric(
                statistics.median(s[span][key] for s in summaries), "s"
            )
    for key, unit in COUNT_UNITS.items():
        metrics[key] = _metric(counts[0][key], unit)
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def _print_end_to_end(w, metrics, walls, cpus, kernels, setups, setup_kernels, runner) -> None:
    m = {k: v["value"] for k, v in metrics.items()}
    print(f"{w.name}: {runner.attempted} invocations (1 warm-up), {runner.failed} failed; "
          f"reference seconds, kernel median {statistics.median(kernels):.5f} s "
          f"(set-up {statistics.median(setup_kernels):.5f} s)")
    print(f"  wall_s       {m['wall_s']:.4f} s     median of {len(walls)} invocations; "
          f"unscaled {statistics.median(walls):.4f} s")
    print(f"  items_per_s  {m['items_per_s']:.1f} 1/s   {w.items} items per invocation")
    print(f"  cpu_s        {m['cpu_s']:.4f} s     median of {len(walls)}, children included; "
          f"unscaled {statistics.median(cpus):.4f} s")
    print(f"  setup_s      {m['setup_s']:.4f} s     median of {len(setups)} fresh processes; "
          f"unscaled {statistics.median(setups):.4f} s")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MiB")
    print(f"  failed_frac  {runner.failed / runner.attempted:.4f}   "
          f"{runner.failed}/{runner.attempted} invocations")


def _print_layers(w, metrics, traced, spans, absent) -> None:
    wall = statistics.median(traced)
    print(f"{w.name}: traced wall {wall:.4f} s, median of {len(traced)}; "
          f"overhead {metrics['trace.overhead_s']['value']:+.4f} s")
    print(f"  {'span':32s} {'calls':>8s} {'s':>9s} {'self_s':>9s} {'self %':>7s}")
    for span in spans:
        calls = metrics[f"{span}.calls"]["value"]
        total, own = metrics[f"{span}.s"]["value"], metrics[f"{span}.self_s"]["value"]
        note = "  absent" if span in absent else ""
        print(f"  {span:32s} {calls:8d} {total:9.4f} {own:9.4f} {100 * own / wall:6.1f}%{note}")
    for key in COUNT_UNITS:
        print(f"  {key:32s} {metrics[key]['value']} {metrics[key]['unit']}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if not (SRC / "proplimit" / "cli.py").is_file():
        print(f"perfbench: no proplimit sources under {SRC}", file=sys.stderr)
        return 2

    setups, setup_kernels = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    from proplimit import cli
    import tracing
    import workloads

    w = workloads.build(args.workload, args.seed)
    out_dir = WORK / f"{w.name}-{w.seed}"
    runner = Runner(w, cli.main, out_dir)
    print("env " + json.dumps(environment(w, runner.argv)))
    try:
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced, summaries, counts, flags = run_traced(runner, tracer, args.seconds)
            runner.check_first()
            flags += compare_counts(w, counts)
            runner.problems += flags
            metrics = per_layer_metrics(plain, traced, summaries, counts)
            tracer.save(WORK / "traces" / f"{w.name}.npz")
            _print_layers(w, metrics, traced, tracing.SPAN_NAMES, tracer.absent)
        else:
            walls, cpus, kernels = run_untraced(runner, args.seconds)
            metrics = end_to_end_metrics(w, walls, cpus, kernels, setups, setup_kernels)
            runner.check_first()
            flags = []
            _print_end_to_end(w, metrics, walls, cpus, kernels, setups, setup_kernels, runner)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(runner.first_dir, ignore_errors=True)
    for problem in runner.problems:
        print(f"  problem: {problem}")
    result = {
        "correct": runner.failed == 0 and not flags,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
