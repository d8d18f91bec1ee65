"""Per-session query-builder state.

Each interactive client session owns a :class:`repro.query.builder.
QueryBuilder` (the Query Panel model) pinned to the engine snapshot
that was current when the session opened — mid-session maintenance
never changes what a user's suggestions or pattern drops mean.
Actions arrive over the wire as JSON objects mirroring
:mod:`repro.query.actions` and are applied under the session's lock,
so concurrent requests against one session serialize while distinct
sessions proceed in parallel.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import OptionError, UnknownNameError
from repro.graph.io import graph_to_dict
from repro.query.actions import (
    Action,
    AddEdge,
    AddNode,
    AddPattern,
    DeleteEdge,
    DeleteNode,
    MergeNodes,
    SetEdgeLabel,
    SetNodeLabel,
)
from repro.query.builder import QueryBuilder
from repro.service.snapshot import EngineSnapshot


def _int_field(action: Dict[str, object], op: object, field: str) -> int:
    """``action[field]`` as an int; a missing or non-integer value is
    the client's mistake (:class:`OptionError`, HTTP 400)."""
    value = action.get(field)
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise OptionError(
            f"action {op!r} needs an integer {field!r}, got {value!r}"
        ) from None


#: wire op -> its action class and argument fields, in constructor
#: order; ``label`` is a string (default empty), the rest integers
_WIRE_ACTIONS = {
    "add_node": (AddNode, ("label",)),
    "add_edge": (AddEdge, ("u", "v", "label")),
    "set_node_label": (SetNodeLabel, ("node", "label")),
    "set_edge_label": (SetEdgeLabel, ("u", "v", "label")),
    "merge_nodes": (MergeNodes, ("keep", "remove")),
    "delete_node": (DeleteNode, ("node",)),
    "delete_edge": (DeleteEdge, ("u", "v")),
}


class Session:
    """One client's query-building state."""

    __slots__ = ("session_id", "builder", "snapshot", "lock")

    def __init__(self, session_id: str,
                 snapshot: EngineSnapshot) -> None:
        self.session_id = session_id
        self.builder = QueryBuilder()
        self.snapshot = snapshot
        self.lock = threading.Lock()

    def apply_actions(self, actions: List[object]) -> List[object]:
        """Apply a batch of wire actions, all or none, under the lock.

        Returns each action's result.  A malformed or rejected action
        leaves the session as it was before the batch
        (:meth:`QueryBuilder.apply_all`), so a retry does not apply
        the batch's first actions twice.
        """
        with self.lock:
            results = self.builder.apply_all(
                self._action(action) for action in actions)
        # add_pattern's pattern-node -> query-node mapping; JSON
        # objects cannot key on ints, so ship the same pair-list
        # shape embeddings use
        return [[[u, v] for u, v in sorted(result.items())]
                if isinstance(result, dict) else result
                for result in results]

    def _action(self, action: object) -> Action:
        """One wire action as its :mod:`repro.query.actions` object.

        The ``op`` field selects the class and the remaining fields
        are its arguments.  ``add_pattern`` takes ``index`` into the
        session snapshot's canned panel — the wire never ships
        pattern graphs it already published.
        """
        if not isinstance(action, dict):
            raise OptionError("each action must be a JSON object")
        op = action.get("op")
        if op == "add_pattern":
            return AddPattern(self.snapshot.pattern_at(
                _int_field(action, op, "index")))
        if not isinstance(op, str) or op not in _WIRE_ACTIONS:
            raise OptionError(f"unknown action op {op!r}")
        cls, fields = _WIRE_ACTIONS[op]
        return cls(*(
            str(action.get(field, "")) if field == "label"
            else _int_field(action, op, field) for field in fields))

    def state(self) -> Dict[str, object]:
        """The session's wire-visible state."""
        return {
            "session": self.session_id,
            "snapshot": self.snapshot.snapshot_id,
            "query": graph_to_dict(self.builder.query),
            "steps": self.builder.step_count(),
            "actions": self.builder.action_counts(),
        }

    def __repr__(self) -> str:
        return (f"<Session {self.session_id} "
                f"snapshot={self.snapshot.snapshot_id} "
                f"steps={self.builder.step_count()}>")


class SessionStore:
    """Sessions keyed by deterministic ids (``s-1``, ``s-2``, ...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counter = 0
        self._sessions: Dict[str, Session] = {}

    def create(self, snapshot: EngineSnapshot) -> Session:
        with self._lock:
            self._counter += 1
            session = Session(f"s-{self._counter}", snapshot)
            self._sessions[session.session_id] = session
            return session

    def get(self, session_id: object) -> Session:
        session = self._sessions.get(str(session_id))
        if session is None:
            raise UnknownNameError(
                f"session {session_id!r} does not exist")
        return session

    def remove(self, session_id: object) -> None:
        with self._lock:
            if self._sessions.pop(str(session_id), None) is None:
                raise UnknownNameError(
                    f"session {session_id!r} does not exist")

    def count(self) -> int:
        return len(self._sessions)

    def ids(self) -> List[str]:
        return sorted(self._sessions,
                      key=lambda sid: int(sid.split("-", 1)[1]))

    def __repr__(self) -> str:
        return f"<SessionStore sessions={self.count()}>"
