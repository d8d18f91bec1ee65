"""Wall-clock budgets and per-stage completion accounting.

A :class:`Deadline` turns every selection pipeline into an *anytime
algorithm*: stages poll it at loop boundaries and, once it expires,
stop early with whatever they have instead of raising.  The contract
every instrumented loop follows is **at least one unit, then check** —
a pipeline under an absurdly tight budget still returns a valid,
non-empty result, just a degraded one.

A :class:`CompletionReport` is the flip side: each stage records how
much of its work it finished, so a degraded run says exactly *what*
was cut, not merely that something was.  Reports flatten into the
``stats`` dict of every :class:`repro.core.pipeline.PipelineResult`
and degradation events are mirrored as ``resilience.*`` counters in
:mod:`repro.obs.metrics`.

Deadlines are plain picklable state (an absolute ``time.monotonic``
expiry, which on Linux is comparable across processes on the same
machine), so they survive the trip into :func:`repro.perf.pmap`
workers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.errors import BudgetExceeded
from repro.obs import metrics


class Deadline:
    """A wall-clock budget checked cooperatively at loop boundaries.

    ``Deadline.start(None)`` gives the unbounded deadline: every
    check is a single attribute comparison and never expires, so the
    instrumented pipelines cost nothing when no budget is set.
    """

    __slots__ = ("seconds", "_started", "_expires")

    def __init__(self, seconds: Optional[float] = None,
                 started: Optional[float] = None) -> None:
        if seconds is not None and seconds < 0:
            raise BudgetExceeded("deadline", 0.0, seconds)
        self.seconds = seconds
        self._started = time.monotonic() if started is None else started
        self._expires = (None if seconds is None
                         else self._started + seconds)

    @classmethod
    def start(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline running from now; ``None`` never expires."""
        return cls(seconds)

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded, never negative)."""
        if self._expires is None:
            return float("inf")
        return max(0.0, self._expires - time.monotonic())

    def expired(self) -> bool:
        if self._expires is None:
            return False
        return time.monotonic() >= self._expires

    def check(self, site: str) -> bool:
        """Loop-boundary poll: True when the budget is gone.

        Expiry observations are counted under
        ``resilience.deadline.expired`` (and per-site) so degraded
        runs are visible in a metrics snapshot.
        """
        if not self.expired():
            return False
        metrics.inc("resilience.deadline.expired")
        metrics.inc(f"resilience.deadline.expired.{site}")
        return True

    def require(self, site: str) -> None:
        """Strict variant: raise :class:`BudgetExceeded` on expiry."""
        if self.expired():
            assert self.seconds is not None
            raise BudgetExceeded(site, self.elapsed(), self.seconds)

    def __repr__(self) -> str:
        if self.seconds is None:
            return "<Deadline unbounded>"
        return (f"<Deadline {self.seconds:.3f}s "
                f"remaining={self.remaining():.3f}s>")


#: The shared unbounded deadline used when no budget is configured.
UNBOUNDED = Deadline(None)


class StageStatus:
    """How far one pipeline stage got before finishing or stopping."""

    __slots__ = ("stage", "done", "total", "complete", "note")

    def __init__(self, stage: str, done: int, total: int,
                 complete: bool, note: str = "") -> None:
        self.stage = stage
        self.done = done
        self.total = total
        self.complete = complete
        self.note = note

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"done": self.done,
                                   "total": self.total,
                                   "complete": self.complete}
        if self.note:
            data["note"] = self.note
        return data

    def __repr__(self) -> str:
        state = "ok" if self.complete else "partial"
        return (f"<StageStatus {self.stage} {self.done}/{self.total} "
                f"{state}>")


class CompletionReport:
    """Per-stage completion of one pipeline run, in stage order.

    A run is *degraded* when any stage stopped short of its work
    (deadline expiry, skipped work items, quarantined inputs).  Each
    incomplete stage bumps ``resilience.stage.incomplete`` so
    degradation is observable without holding the report.
    """

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: List[StageStatus] = []

    def record(self, stage: str, done: int, total: int,
               complete: Optional[bool] = None,
               note: str = "") -> StageStatus:
        """Record one stage; ``complete`` defaults to done == total."""
        if complete is None:
            complete = done >= total
        status = StageStatus(stage, done, total, complete, note)
        self.stages.append(status)
        if not complete:
            metrics.inc("resilience.stage.incomplete")
            metrics.inc(f"resilience.stage.incomplete.{stage}")
        return status

    @property
    def degraded(self) -> bool:
        return any(not status.complete for status in self.stages)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Stage name -> status dict (repeated stages keep the last)."""
        return {status.stage: status.as_dict()
                for status in self.stages}

    def __repr__(self) -> str:
        state = "degraded" if self.degraded else "complete"
        return f"<CompletionReport {len(self.stages)} stages {state}>"
