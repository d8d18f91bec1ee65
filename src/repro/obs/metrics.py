"""Process-local metrics registry: counters, gauges, timers.

One registry per process is the one store of process-wide counts:
every subsystem — pipeline stages, :func:`repro.perf.pmap` dispatch,
the coverage index, swap scans, the VF2 kernel, the canonical-code
memo — adds to it, and :func:`snapshot` folds in the match cache's
own hit/miss counters so a single call observes the whole library.

Metric names are dotted, lowercase, subsystem-first:
``perf.pmap.calls``, ``patterns.coverage.patterns_indexed``,
``matching.vf2_calls``.  Handler threads of :mod:`repro.service`
update the registry concurrently, so every operation takes its one
lock; hot loops (the matcher, greedy selection, MIDAS swapping) count
on their own and add their totals once.  A :func:`repro.perf.pmap`
pool item runs against a zeroed registry in its worker and ships the
counters it made home, where the coordinator adds them in input
order.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named counters (monotonic), gauges (last value), and timers
    (count/total/min/max of observed durations), behind one lock."""

    __slots__ = ("counters", "gauges", "timers", "lock")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.timers: Dict[str, Dict[str, Number]] = {}
        self.lock = threading.Lock()

    def inc(self, name: str, value: Number = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        with self.lock:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        with self.lock:
            timer = self.timers.get(name)
            if timer is None:
                self.timers[name] = {"count": 1, "total": seconds,
                                     "min": seconds, "max": seconds}
                return
            timer["count"] += 1
            timer["total"] += seconds
            timer["min"] = min(timer["min"], seconds)
            timer["max"] = max(timer["max"], seconds)

    def reset(self) -> None:
        with self.lock:
            self.counters.clear()
            self.gauges.clear()
            self.timers.clear()

    def snapshot(self) -> Dict[str, object]:
        """Deterministically-ordered copy of every registered metric."""
        with self.lock:
            return {
                "counters": {k: self.counters[k]
                             for k in sorted(self.counters)},
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
                "timers": {k: dict(self.timers[k])
                           for k in sorted(self.timers)},
            }

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self.counters)} "
                f"gauges={len(self.gauges)} timers={len(self.timers)}>")


_registry = MetricsRegistry()


def _fresh_lock_in_child() -> None:
    # fork copies the lock in whatever state another thread left it;
    # held, the child's only thread would wait on it forever
    _registry.lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def registry() -> MetricsRegistry:
    """The process-global registry most call sites share."""
    return _registry


def inc(name: str, value: Number = 1) -> None:
    """Increment a global counter."""
    _registry.inc(name, value)


def set_gauge(name: str, value: Number) -> None:
    """Set a global gauge to its latest value."""
    _registry.set_gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record one duration under a global timer."""
    _registry.observe(name, seconds)


#: The matching-stack work counts, kept in the registry as
#: ``matching.<name>`` and reported again under ``"matching"``.
_MATCHING_COUNTERS = ("vf2_calls", "feasibility_checks",
                      "recursive_calls", "candidates_pruned",
                      "canonical_memo_hits", "canonical_memo_misses")


def matching_snapshot() -> Dict[str, float]:
    """Live counters of the whole matching stack, in one flat dict:
    match-cache occupancy and hit/miss/eviction counts, real VF2
    invocations, kernel feasibility/recursion/pruning counters, the
    canonical-code memo's hits/misses, and — as ``pairs_pruned`` —
    the (pattern, graph) pairs coverage indexing skipped outright on
    the compact label tables (the VF2-call delta those prunes bought).
    """
    return snapshot()["matching"]


def snapshot() -> Dict[str, object]:
    """One view of every observable counter in the process: the
    metrics registry plus the matching stack under ``"matching"``.

    Imports lazily so ``repro.obs`` itself stays dependency-free.
    """
    from repro.perf.cache import get_match_cache

    data = _registry.snapshot()
    counters = data["counters"]
    stats = get_match_cache().stats()
    for name in _MATCHING_COUNTERS:
        stats[name] = counters.get(f"matching.{name}", 0)
    stats["pairs_pruned"] = counters.get(
        "patterns.coverage.pairs_pruned", 0)
    data["matching"] = stats
    return data


def reset(clear_cache_entries: bool = False) -> None:
    """Zero the registry and the match cache's stats.

    Cached match *entries* survive by default (they stay valid);
    ``clear_cache_entries=True`` evicts them too.
    """
    from repro.perf.cache import get_match_cache

    _registry.reset()
    cache = get_match_cache()
    if clear_cache_entries:
        cache.clear()
    cache.reset_stats()
