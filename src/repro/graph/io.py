"""Serialization for graphs and graph repositories.

Two formats are supported:

* **JSON** — full fidelity (labels + attributes), used by the VQI spec.
* **``.lg`` text** — the line-based format common in subgraph-mining
  datasets (``t # <name>`` / ``v <id> <label>`` / ``e <u> <v> <label>``),
  used for repositories of small graphs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.errors import GraphInputError
from repro.graph.graph import Graph

PathLike = Union[str, Path]


def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    """JSON-serializable dict representation of a graph."""
    return {
        "name": graph.name,
        "nodes": [
            {"id": u, "label": graph.node_label(u),
             **({"attrs": graph.node_attrs(u)} if graph.node_attrs(u) else {})}
            for u in sorted(graph.nodes())
        ],
        "edges": [
            {"u": u, "v": v, "label": graph.edge_label(u, v),
             **({"attrs": graph.edge_attrs(u, v)}
                if graph.edge_attrs(u, v) else {})}
            for u, v in sorted(graph.edges())
        ],
    }


def graph_from_dict(data: Dict[str, Any],
                    path: PathLike | None = None) -> Graph:
    """Inverse of :func:`graph_to_dict`.

    Raises :class:`~repro.errors.GraphInputError` on malformed input,
    including a name or label that is not a string; ``path`` (when
    given) is carried on the error for context.
    """
    def text(item: Dict[str, Any], key: str) -> str:
        value = item.get(key, "")
        if isinstance(value, str):
            return value
        raise GraphInputError(f"malformed graph dict: {key} must be a "
                              f"string, not {type(value).__name__}",
                              path=path)

    try:
        g = Graph(name=text(data, "name"))
        for node in data["nodes"]:
            g.add_node(int(node["id"]), label=text(node, "label"),
                       **node.get("attrs", {}))
        for edge in data["edges"]:
            g.add_edge(int(edge["u"]), int(edge["v"]),
                       label=text(edge, "label"),
                       **edge.get("attrs", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"malformed graph dict: {exc}",
                              path=path) from exc
    return g


def graph_to_json(graph: Graph, indent: int = 0) -> str:
    """Serialize one graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent or None)


def graph_from_json(text: str) -> Graph:
    """Parse one graph from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"invalid JSON: {exc}",
                              line=exc.lineno) from exc
    return graph_from_dict(data)


def write_lg(graphs: Iterable[Graph], path: PathLike) -> int:
    """Write a repository to ``.lg`` format; returns the graph count.

    Attributes are not preserved (the format has no room for them).
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for graph in graphs:
            handle.write(f"t # {graph.name or count}\n")
            mapping = {u: i for i, u in enumerate(sorted(graph.nodes()))}
            for u in sorted(graph.nodes()):
                handle.write(f"v {mapping[u]} {graph.node_label(u)}\n")
            for u, v in sorted(graph.edges()):
                label = graph.edge_label(u, v)
                handle.write(f"e {mapping[u]} {mapping[v]} {label}\n")
            count += 1
    return count


def read_lg(path: PathLike) -> List[Graph]:
    """Read a repository from ``.lg`` format.

    Malformed lines raise :class:`~repro.errors.GraphInputError`
    carrying the offending file and 1-based line number, so callers
    (and their users) see *where* the input went wrong.  A file whose
    final record lacks its terminating newline, or that carries
    binary garbage (NUL bytes), is rejected the same way rather than
    silently parsing a truncated prefix — every complete ``.lg``
    writer (including :func:`write_lg`) newline-terminates each
    record, so a missing terminator is the signature of a torn write.
    """
    graphs: List[Graph] = []
    current: Graph | None = None
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text and not text.endswith("\n"):
        raise GraphInputError(
            "file ends mid-record (no terminating newline); the "
            "final record was likely truncated by an interrupted "
            "write", path=path, line=text.count("\n") + 1)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\x00" in raw:
            raise GraphInputError(
                "binary garbage (NUL byte) in record",
                path=path, line=lineno)
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "t":
                name = parts[2] if len(parts) > 2 else ""
                current = Graph(name=name)
                graphs.append(current)
            elif kind == "v":
                if current is None:
                    raise GraphInputError(
                        "vertex before first 't' line",
                        path=path, line=lineno)
                label = parts[2] if len(parts) > 2 else ""
                current.add_node(int(parts[1]), label=label)
            elif kind == "e":
                if current is None:
                    raise GraphInputError(
                        "edge before first 't' line",
                        path=path, line=lineno)
                label = parts[3] if len(parts) > 3 else ""
                current.add_edge(int(parts[1]), int(parts[2]),
                                 label=label)
            else:
                raise GraphInputError(
                    f"unknown record type {kind!r}",
                    path=path, line=lineno)
        except (IndexError, ValueError) as exc:
            raise GraphInputError(
                f"malformed line {line!r}",
                path=path, line=lineno) from exc
    return graphs


def write_repository_json(graphs: Iterable[Graph], path: PathLike) -> int:
    """Write a repository (list of graphs) as one JSON document."""
    payload = [graph_to_dict(g) for g in graphs]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return len(payload)


def read_repository_json(path: PathLike) -> List[Graph]:
    """Read a repository written by :func:`write_repository_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise GraphInputError(f"invalid JSON: {exc}", path=path,
                                  line=exc.lineno) from exc
    if not isinstance(payload, list):
        raise GraphInputError("expected a JSON array of graphs",
                              path=path)
    return [graph_from_dict(item, path=path) for item in payload]
