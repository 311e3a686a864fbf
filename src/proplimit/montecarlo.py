"""Monte Carlo drivers: per-sample streams, one chunked pool, deterministic reductions.

Every sample index ``i`` of a run draws from its own stream keyed by
``(seed, (phase << PHASE_SHIFT) | i)``, so the set of values produced is
bit-identical no matter how indices are partitioned across workers.  The
``phase`` namespaces independent stages of one run (routes, criteria,
commands) inside a single master seed.

:func:`sample_map` is the only sampler driver and the only partitioner:
it cuts ``range(n)`` into contiguous chunks of
``min(MAX_CHUNK, ceil(n / workers))`` indices, runs them serially (one
worker) or on a thread pool, collects each chunk's raw draws into
buffers and hands them to an optional batched ``finish``.  Moment
reductions collect per-sample values into index-ordered arrays and
reduce with numpy, which is deterministic for a fixed array; worker
count therefore changes wall time only.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameter
from .sampling import make_stream

WORKERS_ENV = "PROPLIMIT_WORKERS"
PHASE_SHIFT = 40
MAX_CHUNK = 1024
_MAX_INDEX = 1 << PHASE_SHIFT


def worker_count(workers: int | None = None) -> int:
    """Resolve the worker count: explicit arg, else PROPLIMIT_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidParameter(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    elif isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise InvalidParameter(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return int(workers)


def stream_for(seed: int, phase: int, index: int) -> np.random.Generator:
    """The stream owned by sample ``index`` of stage ``phase``."""
    if not 0 <= index < _MAX_INDEX:
        raise InvalidParameter(f"sample index {index} out of range")
    if phase < 0:
        raise InvalidParameter(f"phase must be >= 0, got {phase}")
    return make_stream(seed, (phase << PHASE_SHIFT) | index)


def sample_map(
    draw, n_samples: int, seed: int, phase: int, workers: int | None = None, finish=None
) -> np.ndarray:
    """Rows built from ``draw(stream_for(seed, phase, i))`` for ``i`` in range(n_samples).

    ``range(n_samples)`` is cut into contiguous chunks of
    ``min(MAX_CHUNK, ceil(n_samples / workers))`` indices, run serially
    (one worker) or on a thread pool.  Within a chunk, each draw -- an
    array or a tuple of arrays of fixed shapes -- is written into chunk
    buffers allocated from the chunk's first draw; ``finish(*buffers)``
    then turns them into the chunk's rows (a batched kernel, say), or the
    single buffer is the rows when ``finish`` is None.  The first chunk
    runs first to learn the row shape.  Because each sample owns its
    stream and ``finish`` maps rows to rows, results do not depend on the
    partitioning.
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)
    size = min(MAX_CHUNK, -(-n_samples // workers))
    rest = [(lo, min(lo + size, n_samples)) for lo in range(size, n_samples, size)]

    def chunk(lo: int, hi: int) -> np.ndarray:
        first = draw(stream_for(seed, phase, lo))
        single = not isinstance(first, tuple)
        parts = (first,) if single else first
        buffers = [np.empty((hi - lo,) + np.shape(part)) for part in parts]
        for buf, part in zip(buffers, parts):
            buf[0] = part
        for j in range(1, hi - lo):
            parts = draw(stream_for(seed, phase, lo + j))
            if single:
                buffers[0][j] = parts
            else:
                for buf, part in zip(buffers, parts):
                    buf[j] = part
        return buffers[0] if finish is None else finish(*buffers)

    rows = chunk(0, size)
    out = np.empty((n_samples,) + rows.shape[1:])
    out[:size] = rows

    def fill(lo: int, hi: int) -> None:
        out[lo:hi] = chunk(lo, hi)

    if workers == 1:
        for lo, hi in rest:
            fill(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(fill, lo, hi) for lo, hi in rest]:
                fut.result()
    return out


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
