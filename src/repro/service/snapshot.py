"""Immutable engine snapshots: the service's read path.

The concurrency contract of :mod:`repro.service` is built here.  A
:class:`EngineSnapshot` freezes everything a read request needs — the
repository (or network), the selected pattern set, a
:class:`repro.query.engine.QueryEngine`, and a
:class:`repro.query.suggest.QuerySuggester` — and pins each data
graph's :meth:`repro.graph.graph.Graph.version` at freeze time.
Queries and suggestions serve from whichever snapshot they pinned;
builds and MIDAS maintenance construct a *new* snapshot and swap the
current pointer, so maintenance never blocks a read and an in-flight
read never observes a half-applied batch.

The :class:`SnapshotManager` keeps a bounded history of recent
snapshots addressable by id (``snap-3``), so a client — or the
request-log replay — can explicitly pin a query to the state it saw:
the snapshot-isolation test asserts a query pinned to ``snap-1`` is
byte-identical before and after a maintenance batch lands.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import MaintenanceError, UnknownNameError
from repro.graph.graph import Graph
from repro.patterns.base import Pattern, PatternSet
from repro.query.engine import QueryEngine
from repro.query.suggest import QuerySuggester

#: Snapshots retained for explicit pinning, beyond the current one.
DEFAULT_RETAIN = 4


class EngineSnapshot:
    """One frozen, read-only view of the service's engine state."""

    __slots__ = ("snapshot_id", "repository", "network", "patterns",
                 "engine", "suggester", "versions", "generator")

    def __init__(self, snapshot_id: str,
                 data: Union[Graph, Sequence[Graph]],
                 patterns: PatternSet, generator: str) -> None:
        self.snapshot_id = snapshot_id
        self.generator = generator
        if isinstance(data, Graph):
            self.network: Optional[Graph] = data
            self.repository: Tuple[Graph, ...] = (data,)
        else:
            self.network = None
            self.repository = tuple(data)
        self.patterns = patterns
        self.engine = QueryEngine(self.repository)
        self.suggester = QuerySuggester(self.repository)
        self.versions: Tuple[int, ...] = tuple(
            graph.version() for graph in self.repository)

    @property
    def is_network(self) -> bool:
        return self.network is not None

    def pattern_at(self, index: int) -> Pattern:
        panel = list(self.patterns)
        if not 0 <= index < len(panel):
            raise UnknownNameError(
                f"pattern index {index} out of range "
                f"(snapshot {self.snapshot_id} holds {len(panel)})")
        return panel[index]

    def verify_pinned(self) -> bool:
        """True while no pinned graph has been mutated since freeze.

        The data graphs a snapshot shares with its successors are
        never mutated in place (maintenance adds and removes whole
        graphs), so this stays True for the snapshot's lifetime; a
        False return means a caller broke the immutability contract
        and the snapshot's cached engine state may be stale.
        """
        return all(graph.version() == version
                   for graph, version
                   in zip(self.repository, self.versions))

    def __repr__(self) -> str:
        kind = "network" if self.is_network else \
            f"repository[{len(self.repository)}]"
        return (f"<EngineSnapshot {self.snapshot_id} {kind} "
                f"patterns={len(self.patterns)}>")


class SnapshotManager:
    """The current snapshot plus a bounded pinnable history.

    ``swap`` is the only mutation and takes the manager lock; reads
    (``current`` / ``resolve``) are lock-free attribute loads, which
    is exactly why reads never wait on maintenance.  Snapshot ids are
    a deterministic counter (``snap-0``, ``snap-1``, ...) so a
    request-log replay regenerates the same ids in the same order.
    """

    def __init__(self, retain: int = DEFAULT_RETAIN) -> None:
        self._retain = max(1, retain)
        self._lock = threading.Lock()
        self._counter = 0
        self._current: Optional[EngineSnapshot] = None
        self._history: Dict[str, EngineSnapshot] = {}
        self._order: List[str] = []

    def swap(self, data: Union[Graph, Sequence[Graph]],
             patterns: PatternSet, generator: str) -> EngineSnapshot:
        """Freeze a new snapshot and make it current."""
        with self._lock:
            snapshot = EngineSnapshot(f"snap-{self._counter}", data,
                                      patterns, generator)
            self._counter += 1
            self._current = snapshot
            self._history[snapshot.snapshot_id] = snapshot
            self._order.append(snapshot.snapshot_id)
            while len(self._order) > self._retain:
                self._history.pop(self._order.pop(0))
            return snapshot

    def current(self) -> EngineSnapshot:
        snapshot = self._current
        if snapshot is None:
            raise MaintenanceError("the service has no snapshot yet")
        return snapshot

    def resolve(self, snapshot_id: Optional[str]) -> EngineSnapshot:
        """The pinned snapshot for an explicit id, else the current."""
        if snapshot_id is None:
            return self.current()
        snapshot = self._history.get(snapshot_id)
        if snapshot is None:
            raise UnknownNameError(
                f"snapshot {snapshot_id!r} is unknown or no longer "
                f"retained (the service keeps the last "
                f"{self._retain})")
        return snapshot

    def ids(self) -> List[str]:
        return list(self._order)

    def __repr__(self) -> str:
        return (f"<SnapshotManager retained={len(self._order)} "
                f"current={self._current and self._current.snapshot_id}>")
