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

:func:`sample_map` is the only sampler driver, the only partitioner and
the only owner of a sampler's output: it allocates the output once and
each block of ``BLOCK`` samples writes its own rows of it, in the
caller's thread (one worker) or on a thread pool, one strided run of
blocks per thread.  The pool is imported on the first map with more
than one worker, so a single-worker run never loads ``concurrent.futures``.
A block whose draws need more memory than ``SUB_BATCH_BYTES`` cuts them
into sub-batches of :func:`sub_batch` samples; it still draws each family
sample-major from one stream, so the cut leaves every value unchanged.
Moment reductions collect per-sample values into index-ordered arrays
and reduce with numpy, which is deterministic for a fixed array; worker
count therefore changes wall time only.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .errors import InvalidParameter

# Samples per block: a constant, so the bytes never follow the worker
# count, the run length or a memory budget.
BLOCK = 64
# Bytes of per-draw scratch a block holds at a time: the finite chains'
# factor stacks and the limit grids' paths and coefficients.  At depth 200
# and dim 3 that is 36 of a block's 64 chains, whose draws, stack and tree
# levels (about 1.4 MB) stay cache-sized, where a whole block's (2.4 MB)
# made a sample-prior run take twice the page faults and ~20% longer.
SUB_BATCH_BYTES = 1 << 19
PHASE_SHIFT = 40
FAMILY_SHIFT = 34
_MAX_BLOCK = 1 << FAMILY_SHIFT
_MAX_FAMILY = 1 << (PHASE_SHIFT - FAMILY_SHIFT)
_MAX_PHASE = 1 << (64 - PHASE_SHIFT)  # phase << PHASE_SHIFT fills the key half
_MASK64 = (1 << 64) - 1


def whole(value, name: str) -> int:
    """``value`` as an int, if it is a whole real number (``8.0`` reads 8).

    This is the one rule for counts and sizes (samples, steps, dimensions,
    depths, widths): anything else -- ``8.5``, a bool, a string, NaN --
    raises :class:`InvalidParameter` rather than a bare ``TypeError`` or a
    silent truncation.
    """
    if not isinstance(value, bool):
        # An integer as is: float() would overflow on one above ~1.8e308.
        if isinstance(value, Integral) or (isinstance(value, Real) and float(value).is_integer()):
            return int(value)
    raise InvalidParameter(f"{name} must be a whole number, got {value!r}")


def real(value, name: str) -> float:
    """``value`` as a float, if it is a real number that is not a bool.

    This is the one rule for real parameters (limit ratio, precisions,
    label precision): a string or a bool raises :class:`InvalidParameter`
    rather than a bare ``TypeError`` or a silent 1.0.  Each caller keeps
    its own range check.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise InvalidParameter(f"{name} must be a real number, got {value!r}")


def worker_count(workers: int | None = None) -> int:
    """Resolve the worker count: None means 1; anything else must be an integer >= 1."""
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise InvalidParameter(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return int(workers)


def sub_batch(m: int, draw_bytes: int) -> int:
    """Samples per sub-batch of an ``m``-sample block whose draws take
    ``draw_bytes`` each: as many as fit ``SUB_BATCH_BYTES``, at least 1
    and at most ``m``."""
    return max(1, min(m, SUB_BATCH_BYTES // draw_bytes))


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
    draw_block, n_samples: int, row_shape, seed: int, phase: int, workers: int | None = None
) -> np.ndarray:
    """The ``(n_samples, *row_shape)`` stack of samples ``0 .. n_samples - 1``.

    Block ``b`` holds the ``m <= BLOCK`` samples from ``b * BLOCK`` on;
    ``draw_block(streams, out)`` writes them into ``out``, their own
    ``(m, *row_shape)`` rows of the stack, where ``streams(family)`` is a
    new generator for that family of the block.  It must draw sample-major
    (see the module docstring) and take each family's generator once.  One
    worker runs the blocks in the caller's thread; ``workers`` threads run
    every ``workers``-th block each.
    """
    n_samples = whole(n_samples, "n_samples")
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    workers = worker_count(workers)
    out = np.empty((n_samples, *row_shape))
    blocks = range(-(-n_samples // BLOCK))

    def run(own) -> None:
        for b in own:
            draw_block(lambda family: stream_for(seed, phase, b, family),
                       out[b * BLOCK:(b + 1) * BLOCK])

    threads = min(workers, len(blocks))
    if threads == 1:
        run(blocks)
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # One future per thread; reading them re-raises a block's error.
        list(pool.map(run, [blocks[t::threads] for t in range(threads)]))
    return out


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
    Fewer than two values give a NaN variance and an inf SE, as
    :func:`mean_and_se` gives an inf SE.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        return np.full(values.shape[1:], np.nan), np.full(values.shape[1:], np.inf)
    var = values.var(axis=0, ddof=1)
    centered = values - values.mean(axis=0)
    m4 = np.mean(centered**4, axis=0)
    se_sq = (m4 - (n - 3) / (n - 1) * var**2) / n
    return var, np.sqrt(np.maximum(se_sq, 0.0))
