"""Append-only, content-addressed graph segments.

Graphs live in numbered segment files (``seg-000001.seg`` …), each a
magic header plus framed :func:`repro.store.format.
encode_graph_record` payloads.  Addressing is content-based at two
levels: the manifest references repository members by the **content
fingerprint** the match cache already computes
(:func:`repro.perf.cache.graph_fingerprint`), while the store's
internal dedup key is the SHA-256 of the exact serialized record
(like the fingerprint, a view of the graph) — the fingerprint hashes
*sorted* labeled content, so two graphs that differ only in name or
insertion order (state the lossless round trip must preserve) still
get distinct records.  A graph that re-enters the repository after a
remove/add cycle is stored once.

Segments are immutable once the manifest has sealed them at a byte
length; recovery compares each file against its sealed extent:

* bytes **beyond** the sealed length are an append that never reached
  a manifest commit — truncated back (the graphs they held are
  unreferenced by definition);
* an intact prefix **shorter** than the sealed length, or a
  checksum-failed frame inside it, means the sealed region itself is
  damaged — the file is renamed to ``*.quarantined`` and its graphs
  are reported dropped rather than crashing the load.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.store.format import (
    SCAN_CLEAN,
    SEGMENT_MAGIC,
    decode_graph_record,
    durable_append,
    encode_graph_record,
    fsync_dir,
    read_framed_file,
    truncate_file,
)

#: Roll to a fresh segment file once the active one exceeds this.
SEGMENT_ROLL_BYTES = 4 * 1024 * 1024

#: Chaos sites threaded through the segment store's durable paths.
SITE_APPEND = "store.segment.append"
SITE_READ = "store.segment.read"


def _segment_name(index: int) -> str:
    return f"seg-{index:06d}.seg"


def record_digest(record: bytes) -> str:
    """The store's exact-content address for one serialized graph."""
    return hashlib.sha256(record).hexdigest()


def graph_record_digest(graph: Graph) -> str:
    """:func:`record_digest` of ``graph``'s record, memoized as the
    graph's ``"record_digest"`` view: one encode per version."""
    return graph.view("record_digest",
                      lambda g: record_digest(encode_graph_record(g)))


class SegmentStore:
    """The graph payload tier under one store directory."""

    def __init__(self, root: str,
                 roll_bytes: int = SEGMENT_ROLL_BYTES) -> None:
        self.root = str(root)
        self.roll_bytes = roll_bytes
        #: sealed + active extents, in manifest order:
        #: ``[{"name", "bytes", "records"}, ...]``
        self.entries: List[Dict[str, object]] = []
        #: fingerprints already durable in some listed segment
        self._stored: set = set()
        self._handle = None
        self._active: Optional[str] = None

    # ------------------------------------------------------- writing

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _open_active(self):
        """The active (last, under-roll-size) segment's handle."""
        if self.entries and int(self.entries[-1]["bytes"]) \
                < self.roll_bytes:
            name = str(self.entries[-1]["name"])
        else:
            index = len(self.entries) + 1
            while os.path.exists(self._path(_segment_name(index))):
                index += 1
            name = _segment_name(index)
            self.entries.append(
                {"name": name, "bytes": len(SEGMENT_MAGIC),
                 "records": 0})
        if self._handle is None or self._handle.closed \
                or self._active != name:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            fresh = not os.path.exists(self._path(name)) \
                or os.path.getsize(self._path(name)) == 0
            self._handle = open(self._path(name), "ab")
            if fresh:
                self._handle.write(SEGMENT_MAGIC)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                fsync_dir(self.root)
            self._active = name
        return self._handle, self.entries[-1]

    def append(self, graphs: Iterable[Graph]) -> int:
        """Durably append every graph not already stored; returns the
        number of new records written."""
        written = 0
        for graph in graphs:
            digest = graph_record_digest(graph)
            if digest in self._stored:
                continue
            handle, entry = self._open_active()
            frame_len = durable_append(
                handle, encode_graph_record(graph), SITE_APPEND,
                key=graph.name,
                path=self._path(str(entry["name"])))
            entry["bytes"] = int(entry["bytes"]) + frame_len
            entry["records"] = int(entry["records"]) + 1
            self._stored.add(digest)
            written += 1
        return written

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
        self._active = None

    # ------------------------------------------------------- reading

    def load(self, sealed: List[Dict[str, object]]
             ) -> Tuple[Dict[str, Graph], List[str], List[str]]:
        """Recover graphs from the manifest's sealed segment list.

        Returns ``(graphs_by_record_digest, quarantined, repaired)``
        where ``quarantined`` names segments whose sealed region
        failed validation (renamed aside, graphs dropped) and
        ``repaired`` names segments whose unsealed tail was truncated.
        The store's in-memory extent/digest tables are rebuilt from
        what actually survived.
        """
        self.close()
        graphs: Dict[str, Graph] = {}
        quarantined: List[str] = []
        repaired: List[str] = []
        self.entries = []
        self._stored = set()
        for item in sealed:
            name = str(item["name"])
            sealed_bytes = int(item["bytes"])
            path = self._path(name)
            if not os.path.exists(path):
                quarantined.append(name)
                continue
            payloads, valid_end, verdict = read_framed_file(
                path, SEGMENT_MAGIC, site_name=SITE_READ)
            if valid_end < sealed_bytes:
                # damage inside the sealed region: set the whole
                # file aside for forensics, drop its graphs
                os.replace(path, path + ".quarantined")
                fsync_dir(self.root)
                quarantined.append(name)
                continue
            if os.path.getsize(path) > sealed_bytes \
                    or verdict is not SCAN_CLEAN:
                # an append past the seal never reached a manifest
                # commit; roll it back to the sealed extent
                truncate_file(path, sealed_bytes)
                payloads = payloads[:int(item["records"])]
                repaired.append(name)
            entry = {"name": name, "bytes": sealed_bytes,
                     "records": int(item["records"])}
            self.entries.append(entry)
            for payload in payloads:
                graph = decode_graph_record(payload, path=path)
                digest = record_digest(payload)
                graphs[digest] = graph
                self._stored.add(digest)
        return graphs, quarantined, repaired


__all__ = ["SEGMENT_ROLL_BYTES", "SITE_APPEND", "SITE_READ",
           "SegmentStore", "record_digest"]
