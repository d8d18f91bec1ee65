"""repro.resilience: deadlines, degradation accounting, fault injection.

The robustness layer the scaling story requires (stdlib-only, like
:mod:`repro.perf` and :mod:`repro.obs`): selection pipelines that run
unattended against arbitrary user-supplied graphs must degrade
gracefully — a crashed worker, a malformed input, or an overrun time
budget yields a *well-formed degraded result*, never a lost run.

* :class:`Deadline` — a wall-clock budget polled at loop boundaries;
  threaded through ``PipelineConfig.deadline_s`` it turns CATAPULT,
  TATTOO, and MIDAS into anytime algorithms ("at least one unit,
  then check").
* :class:`CompletionReport` / :class:`StageStatus` — per-stage
  completion accounting behind every ``PipelineResult.degraded``
  flag.
* :class:`FaultPlan` / :class:`FaultSpec` / :func:`chaos` — the
  deterministic fault-injection harness the chaos test suite drives
  (raise / hang / corrupt at named sites, keyed or call-counted).

Fault-tolerant execution itself lives in :func:`repro.perf.pmap`
(per-item retry, in-process re-run, skip-with-record); this package
supplies the budget, the bookkeeping, and the failure script.
"""

from repro.resilience.chaos import (
    CORRUPTED,
    DISK_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    active_plan,
    chaos,
    disk_site,
    install,
    is_corrupt,
    site,
)
from repro.resilience.deadline import (
    UNBOUNDED,
    CompletionReport,
    Deadline,
    StageStatus,
)

__all__ = [
    "CORRUPTED",
    "CompletionReport",
    "DISK_FAULT_KINDS",
    "Deadline",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "StageStatus",
    "UNBOUNDED",
    "active_plan",
    "chaos",
    "disk_site",
    "install",
    "is_corrupt",
    "site",
]
