"""Env-gated hot-path profiling hooks (``REPRO_PROF=1``).

The broker stack's hot paths — match-index probes, flat-store merge-rebuild
and compaction, covering checks — are wrapped with
:func:`profiled`.  The wrapper checks the module-global
:data:`PROFILER`'s ``enabled`` flag *at call time*; when profiling is off
(the default) a wrapped call costs one attribute load and one branch over the
bare function, which the instrumentation-overhead guard test pins.  Set
``REPRO_PROF=1`` in the environment (read once at import) or flip
``PROFILER.enabled`` at runtime to start collecting.

Collected data is per-name aggregates (call count, total/min/max seconds),
snapshotted via :meth:`HotPathProfiler.summary` and renderable as a
:class:`~repro.analysis.reporting.ResultTable`-friendly row list.  Wall-clock
timings are inherently non-deterministic, so the profiler is never part of
the byte-identical exposition surface — it reports through its own summary.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, TypeVar

__all__ = ["PROFILER", "PROF_ENV", "HotPathProfiler", "profiled"]

#: Environment variable that turns the hot-path profiler on at import time.
PROF_ENV = "REPRO_PROF"

F = TypeVar("F", bound=Callable)


class _TimingAgg:
    __slots__ = ("calls", "total", "min", "max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total += elapsed
        if elapsed < self.min:
            self.min = elapsed
        if elapsed > self.max:
            self.max = elapsed


class HotPathProfiler:
    """Per-name timing aggregates behind a single ``enabled`` flag."""

    def __init__(self, enabled: bool = False, clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self._clock = clock
        self._timings: Dict[str, _TimingAgg] = {}

    def record(self, name: str, elapsed: float) -> None:
        agg = self._timings.get(name)
        if agg is None:
            agg = self._timings[name] = _TimingAgg()
        agg.add(elapsed)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, mean_s, min_s, max_s}}``, sorted by name."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._timings):
            agg = self._timings[name]
            out[name] = {
                "calls": agg.calls,
                "total_s": agg.total,
                "mean_s": agg.total / agg.calls if agg.calls else 0.0,
                "min_s": agg.min if agg.calls else 0.0,
                "max_s": agg.max,
            }
        return out

    def rows(self) -> List[Dict[str, object]]:
        """Summary as a row list (for ``ResultTable``-style reporting)."""
        return [
            {"hot_path": name, **stats} for name, stats in self.summary().items()
        ]

    def clear(self) -> None:
        self._timings.clear()

    def __len__(self) -> int:
        return len(self._timings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"HotPathProfiler({state}, hot_paths={len(self._timings)})"


#: Process-global profiler; ``REPRO_PROF=1`` in the environment enables it at
#: import time, ``PROFILER.enabled = True`` at any later point.
PROFILER = HotPathProfiler(enabled=os.environ.get(PROF_ENV, "") not in ("", "0"))


def profiled(name: str, profiler: Optional[HotPathProfiler] = None) -> Callable[[F], F]:
    """Wrap a hot-path function with call-time-gated timing.

    The gate is read on every call, so flipping ``PROFILER.enabled`` affects
    already-decorated functions.  ``functools.wraps`` keeps the original
    callable reachable as ``__wrapped__`` (the overhead guard test compares
    the two directly).
    """

    def decorate(fn: F) -> F:
        prof = profiler if profiler is not None else PROFILER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not prof.enabled:
                return fn(*args, **kwargs)
            start = prof._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.record(name, prof._clock() - start)

        return wrapper  # type: ignore[return-value]

    return decorate
