"""Query assembly from visual actions.

The :class:`QueryBuilder` is the model behind the Query Panel: it
applies :mod:`repro.query.actions` one at a time, maintains the query
graph, and keeps the action history the usability metrics count.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.patterns.base import Pattern
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


class QueryBuilder:
    """Mutable visual query with an action log."""

    def __init__(self) -> None:
        self.query = Graph(name="query")
        self.history: List[Action] = []
        self._next_id = 0

    # -- single-action interface ---------------------------------------
    def apply(self, action: Action) -> Optional[object]:
        """Apply one action; returns action-specific results
        (the new node id for AddNode, the id mapping for AddPattern)."""
        result: Optional[object] = None
        if isinstance(action, AddNode):
            result = self._add_node(action.label)
        elif isinstance(action, AddEdge):
            self.query.add_edge(action.u, action.v, label=action.label)
        elif isinstance(action, SetNodeLabel):
            self.query.set_node_label(action.node, action.label)
        elif isinstance(action, SetEdgeLabel):
            self.query.set_edge_label(action.u, action.v, action.label)
        elif isinstance(action, AddPattern):
            result = self._add_pattern(action.pattern)
        elif isinstance(action, MergeNodes):
            self._merge_nodes(action.keep, action.remove)
        elif isinstance(action, DeleteNode):
            self.query.remove_node(action.node)
        elif isinstance(action, DeleteEdge):
            self.query.remove_edge(action.u, action.v)
        else:
            raise GraphError(f"unknown action {action!r}")
        self.history.append(action)
        return result

    def apply_all(self, actions: Iterable[Action]
                  ) -> List[Optional[object]]:
        """Apply actions in order, all or none; returns each result.

        When taking or applying an action raises, the query, the
        history and the next node id are restored to what they were
        before the first, and the error propagates.
        """
        query, steps, next_id = (self.query.copy(), len(self.history),
                                 self._next_id)
        try:
            return [self.apply(action) for action in actions]
        except BaseException:
            self.query, self._next_id = query, next_id
            del self.history[steps:]
            raise

    # -- convenience wrappers -------------------------------------------
    def add_node(self, label: str = "") -> int:
        return self.apply(AddNode(label))  # type: ignore[return-value]

    def add_edge(self, u: int, v: int, label: str = "") -> None:
        self.apply(AddEdge(u, v, label))

    def add_pattern(self, pattern: Pattern) -> Dict[int, int]:
        """Drop a pattern; returns pattern-node -> query-node mapping."""
        return self.apply(AddPattern(pattern))  # type: ignore[return-value]

    def merge_nodes(self, keep: int, remove: int) -> None:
        self.apply(MergeNodes(keep, remove))

    # -- internals --------------------------------------------------------
    def _add_node(self, label: str) -> int:
        node = self._next_id
        self._next_id += 1
        self.query.add_node(node, label=label)
        return node

    def _add_pattern(self, pattern: Pattern) -> Dict[int, int]:
        mapping: Dict[int, int] = {}
        for u in sorted(pattern.graph.nodes()):
            mapping[u] = self._add_node(pattern.graph.node_label(u))
        for u, v in pattern.graph.edges():
            self.query.add_edge(mapping[u], mapping[v],
                                label=pattern.graph.edge_label(u, v))
        return mapping

    def _merge_nodes(self, keep: int, remove: int) -> None:
        if keep == remove:
            raise GraphError("cannot merge a node with itself")
        if not self.query.has_node(keep):
            raise GraphError(f"merge target {keep} not in query")
        if not self.query.has_node(remove):
            raise GraphError(f"merge source {remove} not in query")
        for nbr in list(self.query.neighbors(remove)):
            if nbr != keep and not self.query.has_edge(keep, nbr):
                self.query.add_edge(keep, nbr,
                                    label=self.query.edge_label(remove,
                                                                nbr))
        self.query.remove_node(remove)

    # -- metrics ------------------------------------------------------------
    def step_count(self) -> int:
        """Number of atomic actions performed so far."""
        return len(self.history)

    def action_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for action in self.history:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (f"<QueryBuilder n={self.query.order()} "
                f"m={self.query.size()} steps={self.step_count()}>")
