"""Host speed, measured by a fixed reference kernel run between invocations.

On a few cores of a shared host, the speed a process gets drifts by up
to twofold over seconds to minutes, with CPU time drifting alongside
wall time, so no setting inside the process removes it.  A fixed kernel
doing the kinds of work the workloads do (interpreter loops, small numpy
and LAPACK operations, random draws, number formatting) slows down with
them.  The benchmark takes a host-speed sample (``SAMPLE_RUNS`` kernel
runs) after each invocation, divides the median time of a stretch of
invocations by the median sample of the same stretch and multiplies by
``REFERENCE_S``: the result is seconds at the host speed at which the
kernel takes ``REFERENCE_S``.  The kernel is the benchmark's own code
and calls nothing in proplimit, so a change to proplimit moves scaled
and raw times alike.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds on a 2-vCPU VM (Python 3.11, numpy 2.4, one OpenBLAS
# thread), a typical value; it sets the scale of the reported seconds.
REFERENCE_S = 0.025
# Kernel runs averaged into one sample; one run is too short to average
# over the host's sub-second swings.
SAMPLE_RUNS = 3

_SEED = 20241123
_MATRIX = np.random.default_rng(_SEED).standard_normal((6, 6)) / 3.0
_VALUES = np.random.default_rng(_SEED + 1).standard_normal(2000)


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    rng = np.random.default_rng(_SEED)
    for _ in range(100):
        rng.chisquare(64.0, 200)
        rng.standard_normal((64, 8))
    m = _MATRIX.copy()
    for _ in range(700):
        m = np.tril(m @ _MATRIX) * 0.1 + _MATRIX
    gram = _MATRIX @ _MATRIX.T + np.eye(6)
    for _ in range(100):
        np.linalg.cholesky(gram)
        np.linalg.pinv(gram)
    ",".join("%.17g" % v for v in _VALUES)
    return time.perf_counter() - start


def kernel_mean_seconds() -> float:
    """Mean seconds of ``SAMPLE_RUNS`` kernel runs in a row: one host-speed sample."""
    return sum(kernel_seconds() for _ in range(SAMPLE_RUNS)) / SAMPLE_RUNS


def scale(kernel_s: float) -> float:
    """Factor from seconds measured while the kernel took ``kernel_s`` to reference seconds."""
    return REFERENCE_S / kernel_s
