"""Monte Carlo drivers: block-keyed streams, one block map, deterministic reductions.

Sample ``i`` of a run belongs to block ``i // BLOCK`` and sits at position
``i % BLOCK`` inside it.  A block draws each of its variate families --
Bartlett gammas, lower normals, ``Z``, or a limit sampler's whole
sequence of draws -- from its own Philox stream, keyed by
``(seed, phase, family, block)``, and draws it sample-major: the values of
sample ``i`` come after those of every earlier sample of the block.  A
counter-based generator's stream is a function of its key alone (Salmon
et al., SC'11, "Parallel random numbers: as easy as 1, 2, 3"), so every
value is a function of ``(seed, phase, index)`` only: not of the worker
count, and not of ``n_samples`` either, since a partial last block draws
a prefix of what the full block would.  The ``phase`` namespaces
independent stages of one run (routes, criteria, commands) inside a
single master seed.

Key layout.  A stream is a plain ``numpy.random.Generator`` over the
Philox bit generator, keyed by ``[seed mod 2**64, stream_id]``
(:func:`make_stream`): equal keys replay bit-identical sequences and
draws from one stream never move another.  :func:`stream_for` lays out
the stream id as

    stream_id = phase << PHASE_SHIFT | family << FAMILY_SHIFT | block

so ``phase`` has 24 bits, ``family`` 6 and ``block`` 34 (``BLOCK`` times
that many samples is 2**40, the largest run).  Distinct
``(phase, family, block)`` never share a key; :func:`stream_for` rejects
values outside their fields.  Streams are single-owner: a block's
generators never cross threads.

:func:`sample_map` is the only sampler driver and the only partitioner:
it cuts ``range(n)`` into blocks of ``BLOCK`` and stacks the rows each
block returns, in block order, whether the blocks run in the caller's
thread (one worker) or on a thread pool.  The pool is imported on the
first map with more than one worker, so a single-worker run never loads
``concurrent.futures``.  Moment reductions collect per-sample values into
index-ordered arrays and reduce with numpy, which is deterministic for a
fixed array; worker count therefore changes wall time only.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidParameter

WORKERS_ENV = "PROPLIMIT_WORKERS"
# Samples per block: a constant, so the bytes never follow the worker
# count, the run length or a memory budget.
BLOCK = 64
PHASE_SHIFT = 40
FAMILY_SHIFT = 34
_MAX_BLOCK = 1 << FAMILY_SHIFT
_MAX_FAMILY = 1 << (PHASE_SHIFT - FAMILY_SHIFT)
_MAX_PHASE = 1 << (64 - PHASE_SHIFT)  # phase << PHASE_SHIFT fills the key half
_MASK64 = (1 << 64) - 1


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


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """A new generator over the deterministic stream keyed by ``(seed, stream_id)``.

    Both halves of the Philox key are taken modulo 2**64, so ``seed=-1``
    keys the same stream as ``seed=2**64 - 1``.  The key is built as an
    explicit uint64 array: a plain list holding a half >= 2**63 would be
    inferred as float64 and rounded, making such seeds collide.
    """
    key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_for(seed: int, phase: int, block: int, family: int = 0) -> np.random.Generator:
    """A new generator over the stream of ``family`` in ``block`` of stage ``phase``.

    A stand-alone draw (one verify check, say) takes block 0 or a block
    number of its own choosing.
    """
    if not 0 <= block < _MAX_BLOCK:
        raise InvalidParameter(f"block {block} out of range")
    if not 0 <= family < _MAX_FAMILY:
        raise InvalidParameter(f"variate family {family} out of range")
    if not 0 <= phase < _MAX_PHASE:
        raise InvalidParameter(f"phase {phase} out of range")
    return make_stream(seed, (phase << PHASE_SHIFT) | (family << FAMILY_SHIFT) | block)


def sample_map(
    draw_block, n_samples: int, seed: int, phase: int, workers: int | None = None
) -> np.ndarray:
    """The rows of samples ``0 .. n_samples - 1``, drawn block by block.

    Block ``b`` holds the ``m <= BLOCK`` samples from ``b * BLOCK`` on;
    ``draw_block(streams, m)`` returns their ``(m, ...)`` rows, where
    ``streams(family)`` is a new generator for that family of the block.
    It must draw sample-major (see the module docstring) and take each
    family's generator once.  One worker runs the blocks in the caller's
    thread; more run them on a thread pool, ``workers`` blocks at a time.
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)

    def block(b: int) -> np.ndarray:
        m = min(BLOCK, n_samples - b * BLOCK)
        return draw_block(lambda family: stream_for(seed, phase, b, family), m)

    blocks = range(-(-n_samples // BLOCK))
    if workers == 1:
        return np.concatenate([block(b) for b in blocks])
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(block, blocks)))


def mean_and_se(values: np.ndarray):
    """Entrywise sample mean and its standard error over axis 0.

    Fewer than two values give an inf SE; no values also give a NaN mean.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    mean = values.mean(axis=0) if n else np.full(values.shape[1:], np.nan)
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
