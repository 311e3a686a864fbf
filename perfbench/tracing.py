"""Outside-in span tracing of proplimit's layers.

Each traced entry point is replaced, for the duration of one traced
invocation, by a wrapper at the attribute where its caller looks it up
(``prior.bartlett_chain_draws`` rather than ``sampling.bartlett_chain_draws``,
because ``prior`` imports the name).  A span records its name, start, end,
parent span and invocation id into flat arrays kept in memory; they are
written out once, at the end of the run.  Nothing under ``src/`` knows it
is being traced.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module holding the attribute the caller resolves, attribute).
SITES = (
    ("cli._write_csv", "proplimit.cli", "_write_csv"),
    ("montecarlo.stream_for", "proplimit.montecarlo", "stream_for"),
    ("sampling.bartlett_chain_draws", "proplimit.prior", "bartlett_chain_draws"),
    ("backend.lt_chain_multiply", "proplimit.backend", "lt_chain_multiply"),
    ("limit.vbar_limit_samples", "proplimit.limit", "vbar_limit_samples"),
    ("limit.simulate_paths", "proplimit.limit", "simulate_paths"),
    ("limit.vbar_limit_from_grid", "proplimit.limit", "vbar_limit_from_grid"),
    ("backend.suffix_mac", "proplimit.backend", "suffix_mac"),
    ("posterior.posterior_mixture", "proplimit.posterior", "posterior_mixture"),
    ("posterior.predictive_moments", "proplimit.posterior", "predictive_moments"),
    ("linalg.cholesky", "proplimit.posterior", "cholesky"),
    ("linalg.pinv", "proplimit.posterior", "pinv"),
)
ROOT = "cli.main"
SPAN_NAMES = (ROOT,) + tuple(site[0] for site in SITES)


class Tracer:
    """Collects spans of traced invocations in flat in-memory arrays."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack_bytes = 0  # nbytes of the posterior mixture's stacked moments
        self._stack = [-1]
        self._current = -1
        self.absent = [name for name, module, attr in SITES if self._resolve(module, attr) is None]

    @staticmethod
    def _resolve(module: str, attr: str):
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ImportError:
            return None

    def wrap(self, span: str, fn):
        name_id = SPAN_NAMES.index(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.invocation.append(self._current)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            return result

        return traced

    def run(self, invocation: int, fn, *args):
        """Call ``fn(*args)`` as root span ``cli.main`` with every site wrapped."""
        self._current = invocation
        self.stack_bytes = 0
        patches = []
        for span, module, attr in SITES:
            if span in self.absent:
                continue
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            patches.append((mod, attr, original))
            wrapped = self.wrap(span, original)
            if span == "posterior.posterior_mixture":
                wrapped = self._measure_stack(wrapped)
            setattr(mod, attr, wrapped)
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def _measure_stack(self, fn):
        """Add the nbytes of the returned ``means`` and ``covariances`` to stack_bytes."""

        def measured(*args, **kwargs):
            mix = fn(*args, **kwargs)
            self.stack_bytes += sum(
                getattr(getattr(mix, key, None), "nbytes", 0) for key in ("means", "covariances")
            )
            return mix

        return measured

    def summary(self, invocation: int) -> dict:
        """Per span name: calls, total seconds and self seconds in one invocation.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the CLI runs single-threaded.
        """
        inv = np.frombuffer(self.invocation, dtype=np.int32)
        sel = np.flatnonzero(inv == invocation)
        lo, hi = int(sel[0]), int(sel[-1]) + 1
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            span: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, span in enumerate(SPAN_NAMES)
        }

    def save(self, path: Path) -> None:
        """Write every span recorded in this run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            invocation=np.frombuffer(self.invocation, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
