"""Monte Carlo drivers: per-sample streams, worker pool, deterministic reductions.

Every sample index ``i`` of a run draws from its own stream keyed by
``(seed, (phase << PHASE_SHIFT) | i)``, so the set of values produced is
bit-identical no matter how indices are partitioned across workers.  The
``phase`` namespaces independent stages of one run (routes, criteria,
commands) inside a single master seed.

Moment reductions collect per-sample values into index-ordered arrays and
reduce with numpy, which is deterministic for a fixed array; worker count
therefore changes wall time only.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameter
from .sampling import RngStream, make_stream

WORKERS_ENV = "PROPLIMIT_WORKERS"
PHASE_SHIFT = 40
_MAX_INDEX = 1 << PHASE_SHIFT


def worker_count(workers: int | None = None) -> int:
    """Resolve the worker count: explicit arg, else PROPLIMIT_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidParameter(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return workers


def stream_for(seed: int, phase: int, index: int) -> RngStream:
    """The stream owned by sample ``index`` of stage ``phase``."""
    if not 0 <= index < _MAX_INDEX:
        raise InvalidParameter(f"sample index {index} out of range")
    if phase < 0:
        raise InvalidParameter(f"phase must be >= 0, got {phase}")
    return make_stream(seed, (phase << PHASE_SHIFT) | index)


def sample_map(fn, n_samples: int, seed: int, phase: int, workers: int | None = None) -> np.ndarray:
    """Stack ``fn(stream_for(seed, phase, i))`` for ``i`` in range(n_samples).

    ``fn`` must return an ndarray (or scalar) of fixed shape.  Work is split
    into contiguous index chunks across a thread pool; because each sample
    owns its stream, results are independent of the partitioning.
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)

    first = np.asarray(fn(stream_for(seed, phase, 0)), dtype=np.float64)
    out = np.empty((n_samples,) + first.shape)
    out[0] = first

    def run_chunk(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = fn(stream_for(seed, phase, i))

    _dispatch(run_chunk, 1, n_samples, workers)
    return out


def chunked_map(fn, n_samples: int, workers: int | None = None, chunk: int = 1024):
    """Run ``fn(lo, hi)`` over contiguous chunks of ``range(n_samples)``.

    For drivers that batch kernel calls over many samples at once.  ``fn``
    must write its results into preallocated arrays indexed by absolute
    sample index (so chunk boundaries cannot change the outcome).
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)
    bounds = list(range(0, n_samples, chunk)) + [n_samples]
    if workers == 1:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            fn(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for fut in futures:
            fut.result()


def _dispatch(run_chunk, lo: int, hi: int, workers: int) -> None:
    if hi <= lo:
        return
    if workers == 1:
        run_chunk(lo, hi)
        return
    edges = np.linspace(lo, hi, workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_chunk, int(a), int(b))
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
        for fut in futures:
            fut.result()


def mean_and_se(values: np.ndarray):
    """Entrywise sample mean and its standard error over axis 0."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n < 2:
        return mean, np.full_like(mean, np.inf)
    se = values.std(axis=0, ddof=1) / np.sqrt(n)
    return mean, se


def var_and_se(values: np.ndarray):
    """Entrywise sample variance and the standard error of that variance.

    The SE uses the moment-based formula
    ``sqrt((m4 - (n-3)/(n-1) * s^4) / n)``, valid without normality.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    var = values.var(axis=0, ddof=1)
    centered = values - values.mean(axis=0)
    m4 = np.mean(centered**4, axis=0)
    se_sq = (m4 - (n - 3) / (n - 1) * var**2) / n
    return var, np.sqrt(np.maximum(se_sq, 0.0))
