"""The pattern service: one long-lived engine, many concurrent users.

:class:`PatternService` is the HTTP-agnostic application object — it
owns a repository (or network), the selected pattern set, the
session store, and the snapshot history, and exposes exactly one
entry point, :meth:`PatternService.dispatch`, which the
:mod:`repro.service.server` glue, the request-log replay, and the
tests all drive.  The concurrency contract:

* **Reads never block.**  Queries, suggestions, pattern listings and
  session reads serve from an immutable :class:`repro.service.
  snapshot.EngineSnapshot` pinned by ``Graph.version()``; picking a
  snapshot is a lock-free pointer load.
* **Writes publish, never mutate.**  Builds and MIDAS maintenance
  construct their state off to the side and publish it with one
  atomic snapshot swap; concurrent reads keep the snapshot they
  started with.
* **Load sheds, work degrades.**  Admission control (middleware)
  sheds heavy requests with 503 + a zero-work
  :class:`~repro.resilience.CompletionReport` when slots are full or
  the client deadline already expired; *accepted* builds run under
  ``PipelineConfig.deadline_s`` and return 200 with
  ``degraded: true`` plus a per-stage report when the anytime
  pipelines stop early.
* **Maintenance is incremental, durable or not.**  One MIDAS engine
  applies batch after batch until a build replaces the repository.
  On a durable backend every commit carries the engine's checkpoint
  (:meth:`repro.midas.Midas.state`), and recovery restores the
  engine from it and replays only the WAL batches past the
  watermark, so a restart neither re-selects nor replays history.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.core.pipeline import PipelineConfig, run_selection
from repro.datasets.evolving import UpdateBatch
from repro.errors import MaintenanceError
from repro.graph.graph import Graph
from repro.midas.maintenance import MaintenanceReport, Midas
from repro.obs import metrics
from repro.patterns.base import PatternBudget
from repro.service.handlers import (
    handle_build,
    handle_health,
    handle_maintain,
    handle_metrics,
    handle_patterns,
    handle_query,
    handle_session_actions,
    handle_session_create,
    handle_session_delete,
    handle_session_get,
    handle_suggest,
)
from repro.service.middleware import (
    Request,
    Response,
    build_chain,
)
from repro.service.ratelimit import TokenBucket
from repro.service.requestlog import RequestLog
from repro.service.router import Router
from repro.service.snapshot import (
    DEFAULT_RETAIN,
    EngineSnapshot,
    SnapshotManager,
)
from repro.service.sessions import SessionStore
from repro.store.backends import (
    MemoryBackend,
    RecoveryReport,
    RepositoryBackend,
)

#: The budget a service built without one selects under.
DEFAULT_BUDGET = PatternBudget(8, min_size=4, max_size=8)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level (not pipeline-level) tunables.

    ``rate``/``burst`` parameterize the shared token bucket
    (``rate=None`` disables limiting); ``max_inflight`` caps
    concurrently admitted heavy requests (builds, maintenance) —
    excess load sheds with 503 instead of queueing; ``request_log``
    is the JSONL replay log path (``None`` logs nothing);
    ``retain_snapshots`` bounds the pinnable snapshot history.
    """

    rate: Optional[float] = None
    burst: int = 64
    max_inflight: int = 1
    request_log: Optional[str] = None
    retain_snapshots: int = DEFAULT_RETAIN


def build_router() -> Router:
    """The ``/v1`` route table, one router entry per concern."""
    router = Router()
    router.add("GET", "/v1/health", handle_health, "health",
               replayable=False)
    router.add("GET", "/v1/metrics", handle_metrics, "metrics",
               replayable=False)
    router.add("GET", "/v1/patterns", handle_patterns, "patterns")
    router.add("POST", "/v1/patterns/maintain", handle_maintain,
               "maintain", heavy=True)
    router.add("POST", "/v1/build", handle_build, "build", heavy=True)
    router.add("POST", "/v1/query", handle_query, "query")
    router.add("POST", "/v1/suggest", handle_suggest, "suggest")
    router.add("POST", "/v1/sessions", handle_session_create,
               "session_create")
    router.add("GET", "/v1/sessions/{session_id}", handle_session_get,
               "session_get")
    router.add("POST", "/v1/sessions/{session_id}/actions",
               handle_session_actions, "session_actions")
    router.add("DELETE", "/v1/sessions/{session_id}",
               handle_session_delete, "session_delete")
    return router


class PatternService:
    """The application object behind every ``repro.service`` server."""

    def __init__(self, data: Union[Graph, Sequence[Graph]],
                 pipeline: Optional[PipelineConfig] = None,
                 config: Optional[ServiceConfig] = None,
                 backend: Optional[RepositoryBackend] = None) -> None:
        self.pipeline = pipeline or PipelineConfig(
            budget=DEFAULT_BUDGET)
        if self.pipeline.budget is None:
            raise MaintenanceError(
                "the service pipeline config needs a budget")
        self.config = config or ServiceConfig()
        self.backend = backend if backend is not None \
            else MemoryBackend()
        self.recovery: Optional[RecoveryReport] = None
        self.router = build_router()
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self.heavy_slots = threading.BoundedSemaphore(
            max(1, self.config.max_inflight))
        self.sessions = SessionStore()
        self.snapshots = SnapshotManager(self.config.retain_snapshots)
        self.request_log = RequestLog(self.config.request_log) \
            if self.config.request_log else None
        self.engine_lock = threading.Lock()
        self._midas: Optional[Midas] = None
        self._midas_snapshot: Optional[str] = None
        self._id_lock = threading.Lock()
        self._request_counter = 0
        self._inflight = 0
        self._idle = threading.Event()
        self._idle.set()
        self._started = time.monotonic()
        self._chain = build_chain(self, self._terminal)
        self._boot(data)

    # ------------------------------------------------------- dispatch

    def dispatch(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 headers: Optional[Mapping[str, str]] = None,
                 policed: bool = True) -> Response:
        """Run one request through the full middleware chain.

        ``policed=False`` (the replay path) skips rate limiting and
        admission control but keeps everything else — ids, logging,
        error mapping, metrics — so a replayed request exercises the
        same handler code as the live one it reproduces.
        """
        request = Request(method, path, body=body, headers=headers,
                          policed=policed)
        with self._id_lock:
            self._inflight += 1
            self._idle.clear()
        try:
            return self._chain(request)
        finally:
            with self._id_lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def _terminal(self, request: Request) -> Response:
        assert request.route is not None  # set by route_resolve
        return Response(200, request.route.handler(self, request))

    def next_request_id(self) -> str:
        with self._id_lock:
            self._request_counter += 1
            return f"r-{self._request_counter}"

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    # ---------------------------------------------------- state swaps

    def _boot(self, data: Union[Graph, Sequence[Graph]]) -> None:
        """Recover from the backend when it has state, else run the
        initial build and persist it.

        Recovery publishes the stored snapshot exactly as committed
        and restores the MIDAS engine committed with it, if any.
        Then it replays the WAL batches past the watermark through
        the same apply path live maintenance uses, so a batch that
        was half-committed lands in its post-batch state and one
        that never reached the WAL stays pre-batch.
        """
        recovered = self.backend.load()
        if recovered is None:
            self._initial_build(data)
            return
        self.recovery = recovered.report
        snapshot = self.snapshots.swap(recovered.data,
                                       recovered.patterns,
                                       recovered.generator)
        with self.engine_lock:
            if recovered.engine is not None:
                self._restore_midas(snapshot, recovered.engine)
            for seq, batch in recovered.pending:
                self._apply_batch_locked(batch, wal_seq=seq)
                recovered.report.replayed_batches += 1

    def _restore_midas(self, snapshot: EngineSnapshot,
                       state: Dict[str, object]) -> None:
        """Restore the engine checkpointed with ``snapshot``.  Callers
        hold ``engine_lock``.

        A checkpoint that does not fit (other engine settings, or
        another repository) warns and counts
        ``store.recovery.engine_mismatch``; the committed snapshot
        keeps serving and the next batch builds a new engine.
        """
        try:
            engine = Midas.restore(snapshot.repository, self.pipeline,
                                   snapshot.patterns, state)
        except MaintenanceError as exc:
            metrics.inc("store.recovery.engine_mismatch")
            warnings.warn(
                f"the committed MIDAS engine does not fit this "
                f"service ({exc}); serving the committed snapshot, "
                "and the next batch builds a new engine", stacklevel=3)
            return
        self._midas = engine
        self._midas_snapshot = snapshot.snapshot_id

    def _initial_build(self, data: Union[Graph, Sequence[Graph]]
                       ) -> None:
        result = run_selection(data, self.pipeline)
        generator = "tattoo" if isinstance(data, Graph) else "catapult"
        self.publish_build(data, result.patterns, generator)

    def publish_build(self, data: Union[Graph, Sequence[Graph]],
                      patterns, generator: str) -> EngineSnapshot:
        """Publish a freshly built pattern set as the new snapshot
        (and persist it on a durable backend).

        The swap and the commit run under ``engine_lock``, as
        maintenance's do, so a build can never land between a
        batch's swap and its commit (the store would then recover a
        state the service no longer serves) and no two commits
        overlap.  A build drops the engine, which describes graphs
        the service no longer serves, so its commit carries none.
        """
        with self.engine_lock:
            snapshot = self.snapshots.swap(data, patterns, generator)
            self._midas = None
            self._commit_snapshot(snapshot)
        return snapshot

    def apply_maintenance(self, batch: UpdateBatch
                          ) -> "tuple[EngineSnapshot, MaintenanceReport]":
        """Write-ahead-log one MIDAS batch, apply it, publish, and
        persist — the one durable maintenance entry point.

        Ordering is the recovery contract: the batch is fsync'd to
        the WAL *before* any in-memory state changes, and the
        snapshot is published *before* the commit, so whether a
        crash (or commit failure) lands before or after any given
        step, the live state and the recovered state agree — both
        pre-batch, or both post-batch.  The engine is built before
        the WAL write, so a batch the service cannot maintain is
        refused without leaving a record every recovery would
        replay and fail on.
        """
        with self.engine_lock:
            self.ensure_midas()
            wal_seq = self.backend.log_batch(batch)
            return self._apply_batch_locked(batch, wal_seq=wal_seq)

    def _apply_batch_locked(self, batch: UpdateBatch,
                            wal_seq: Optional[int] = None
                            ) -> "tuple[EngineSnapshot, MaintenanceReport]":
        """Apply an already-logged batch; callers hold
        ``engine_lock``.

        A batch the engine fails on is rolled back before the error
        propagates: the engine, which may hold part of the batch, is
        dropped, and the unchanged snapshot is committed at the
        batch's ``wal_seq`` with no engine, so recovery never replays
        a batch the client saw fail.
        """
        engine = self.ensure_midas()
        try:
            report = engine.apply_batch(batch)
        except Exception:
            self._midas = None
            self._commit_snapshot(self.snapshots.current(),
                                  wal_seq=wal_seq)
            raise
        snapshot = self.publish_midas()
        self._commit_snapshot(snapshot, wal_seq=wal_seq)
        return snapshot, report

    def _commit_snapshot(self, snapshot: EngineSnapshot,
                         wal_seq: Optional[int] = None) -> None:
        """Persist ``snapshot`` with the live engine's checkpoint
        (none when no engine is live)."""
        self.backend.commit(snapshot.repository, snapshot.network,
                            snapshot.patterns, snapshot.generator,
                            wal_seq=wal_seq,
                            engine=self._midas.state()
                            if self._midas is not None else None)

    def ensure_midas(self) -> Midas:
        """The maintenance engine over the *current* repository.

        Created lazily on first use (unless recovery restored one)
        and recreated whenever a build has republished the repository
        since: the engine's state describes graphs the service no
        longer serves.  Callers hold ``engine_lock``.
        """
        current = self.snapshots.current()
        if current.is_network:
            raise MaintenanceError(
                "maintenance needs a repository service; this "
                "service serves a single network")
        if self._midas is None \
                or self._midas_snapshot != current.snapshot_id:
            self._midas = Midas(list(current.repository), self.pipeline)
            self._midas_snapshot = current.snapshot_id
        return self._midas

    def publish_midas(self) -> EngineSnapshot:
        """Publish the maintenance engine's state as the new
        snapshot.  Callers hold ``engine_lock``."""
        assert self._midas is not None
        snapshot = self.snapshots.swap(self._midas.graphs(),
                                       self._midas.patterns, "midas")
        self._midas_snapshot = snapshot.snapshot_id
        return snapshot

    def drain(self, timeout_s: float = 5.0) -> bool:
        """Wait until no request is mid-dispatch (bounded).

        The graceful-shutdown half of the deadline machinery: every
        in-flight request is already bounded by its own admission
        deadline, so a finite wait here suffices.  Returns False if
        requests were still running when the timeout expired.
        """
        return self._idle.wait(timeout_s)

    def close(self) -> None:
        if self.request_log is not None:
            self.request_log.close()
        self.backend.close()

    def __repr__(self) -> str:
        current = self.snapshots._current
        return (f"<PatternService snapshot="
                f"{current.snapshot_id if current else None} "
                f"sessions={self.sessions.count()}>")
