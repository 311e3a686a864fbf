"""Monte Carlo drivers: per-sample streams, one chunked pool, deterministic reductions.

Every sample index ``i`` of a run draws from its own stream keyed by
``(seed, (phase << PHASE_SHIFT) | i)``, so the set of values produced is
bit-identical no matter how indices are partitioned across workers.
Inside :func:`sample_map` a chunk builds one Philox generator and rekeys
it per index rather than building one per index: a counter-based
generator's stream is a function of its key alone (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3").  The
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
_MAX_PHASE = 1 << (64 - PHASE_SHIFT)  # phase << PHASE_SHIFT fills the key half


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


def stream_for(
    seed: int, phase: int, index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The stream owned by sample ``index`` of stage ``phase``.

    Without ``rng`` this is a new, independent generator.  With ``rng``,
    a generator from an earlier call, that generator is rekeyed in place
    (``make_stream``) and returned: it then draws exactly what a new one
    would, and whatever stream it held before is gone.
    """
    if not 0 <= index < _MAX_INDEX:
        raise InvalidParameter(f"sample index {index} out of range")
    if not 0 <= phase < _MAX_PHASE:
        raise InvalidParameter(f"phase {phase} out of range")
    return make_stream(seed, (phase << PHASE_SHIFT) | index, rng)


def sample_map(
    draw, n_samples: int, seed: int, phase: int, workers: int | None = None, finish=None
) -> np.ndarray:
    """Rows built from ``draw(stream_for(seed, phase, i))`` for ``i`` in range(n_samples).

    ``range(n_samples)`` is cut into contiguous chunks of
    ``min(MAX_CHUNK, ceil(n_samples / workers))`` indices, run serially
    (one worker) or on a thread pool.  Each chunk owns one generator and
    rekeys it for every index (``stream_for``), so ``draw`` must not keep
    the generator past its return.  Within a chunk, each draw -- an
    array or a tuple of arrays of fixed shapes -- is written into chunk
    buffers shaped by the chunk's first draw; ``finish(*buffers)`` then
    turns them into the chunk's rows (a batched kernel, say), or the
    single buffer is the rows when ``finish`` is None.  Buffers are
    reused by later chunks once the rows are copied out, so ``finish``
    must not keep them.  The first chunk runs first to learn the row
    shape.  Because each sample owns its stream and ``finish`` maps rows
    to rows, results do not depend on the partitioning.
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)
    size = min(MAX_CHUNK, -(-n_samples // workers))
    rest = [(lo, min(lo + size, n_samples)) for lo in range(size, n_samples, size)]
    out = None
    # Buffer sets of finished chunks.  Reusing them matters: fresh
    # chunk-sized buffers page-fault on every write of every chunk.
    spare = []

    def chunk(lo: int, hi: int) -> None:
        nonlocal out
        rng = stream_for(seed, phase, lo)
        first = draw(rng)
        single = not isinstance(first, tuple)
        parts = (first,) if single else first
        try:
            full = spare.pop()
        except IndexError:
            full = [np.empty((size,) + np.shape(part)) for part in parts]
        buffers = [buf[: hi - lo] for buf in full]
        for buf, part in zip(buffers, parts):
            buf[0] = part
        for j in range(1, hi - lo):
            parts = draw(stream_for(seed, phase, lo + j, rng))
            if single:
                buffers[0][j] = parts
            else:
                for buf, part in zip(buffers, parts):
                    buf[j] = part
        rows = buffers[0] if finish is None else finish(*buffers)
        if out is None:
            out = np.empty((n_samples,) + rows.shape[1:])
        out[lo:hi] = rows
        spare.append(full)

    chunk(0, size)
    if workers == 1:
        for lo, hi in rest:
            chunk(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(chunk, lo, hi) for lo, hi in rest]:
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
