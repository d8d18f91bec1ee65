"""Process-local metrics registry: counters, gauges, timers.

One registry per process accumulates named metrics from every
subsystem — pipeline stages, :func:`repro.perf.pmap` dispatch, the
coverage index, swap scans — and :func:`snapshot` folds in the live
matching-stack counters (match cache, VF2 kernel, canonical-code
memo) so a single call observes the whole library.

Metric names are dotted, lowercase, subsystem-first:
``perf.pmap.calls``, ``patterns.coverage.patterns_indexed``,
``midas.swap.scans``.  All operations are dict updates — cheap enough
to stay always-on (the match cache has always counted hits this way);
the zero-overhead-when-disabled contract applies to *tracing*, which
is the per-span cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named counters (monotonic), gauges (last value), and timers
    (count/total/min/max of observed durations)."""

    __slots__ = ("counters", "gauges", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.timers: Dict[str, Dict[str, Number]] = {}

    def inc(self, name: str, value: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
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
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()

    def snapshot(self) -> Dict[str, object]:
        """Deterministically-ordered copy of every registered metric."""
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


def matching_snapshot() -> Dict[str, float]:
    """Live counters of the whole matching stack, in one flat dict:
    match-cache occupancy and hit/miss/eviction counts, real VF2
    invocations, kernel feasibility/recursion/pruning counters, the
    canonical-code memo's hits/misses, and — as ``pairs_pruned`` —
    the (pattern, graph) pairs coverage indexing skipped outright on
    the compact label tables (the VF2-call delta those prunes bought).

    Imports lazily so ``repro.obs`` itself stays dependency-free.
    """
    from repro.matching.canonical import _memo_snapshot
    from repro.matching.isomorphism import _kernel_snapshot
    from repro.perf.cache import get_match_cache, vf2_calls

    stats: Dict[str, float] = get_match_cache().stats()
    stats["vf2_calls"] = vf2_calls()
    stats.update(_kernel_snapshot())
    memo = _memo_snapshot()
    stats["canonical_memo_hits"] = memo["hits"]
    stats["canonical_memo_misses"] = memo["misses"]
    stats["pairs_pruned"] = _registry.counters.get(
        "patterns.coverage.pairs_pruned", 0)
    return stats


def snapshot() -> Dict[str, object]:
    """One view of every observable counter in the process: the
    metrics registry plus the matching stack under ``"matching"``."""
    data = _registry.snapshot()
    data["matching"] = matching_snapshot()
    return data


def reset(clear_cache_entries: bool = False) -> None:
    """Zero the registry and every matching-stack counter.

    Cached match *entries* survive by default (they stay valid);
    ``clear_cache_entries=True`` evicts them too, matching
    :func:`repro.perf.clear_match_cache`.
    """
    from repro.matching.canonical import reset_canonical_memo_stats
    from repro.matching.isomorphism import reset_kernel_stats
    from repro.perf.cache import get_match_cache, reset_vf2_calls

    _registry.reset()
    cache = get_match_cache()
    if clear_cache_entries:
        cache.clear()
    cache.reset_stats()
    reset_vf2_calls()
    reset_kernel_stats()
    reset_canonical_memo_stats()
