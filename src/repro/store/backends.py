"""Pluggable repository backends: in-memory (default) or on-disk.

The :class:`RepositoryBackend` contract is deliberately small — the
service calls exactly four things around its existing repository-list
code paths, so CATAPULT/TATTOO/MIDAS and every handler run unchanged
on either backend:

* :meth:`~RepositoryBackend.load` at boot → ``None`` (cold start,
  run the initial build) or a :class:`StoreState` (recovered
  repository + pattern set, the MIDAS engine checkpoint committed
  with them, and the pending WAL batches to replay);
* :meth:`~RepositoryBackend.log_batch` *before* ``Midas.apply_batch``
  (write-ahead: the batch is durable before any state changes);
* :meth:`~RepositoryBackend.commit` after every snapshot publish
  (segments → pattern blob → manifest rename, which carries the
  engine checkpoint → a WAL cut once every :data:`WAL_CUT_EVERY`
  batches, each step atomic or append-only);
* :meth:`~RepositoryBackend.close` on shutdown.

:class:`MemoryBackend` no-ops all four — the pre-store behavior.
:class:`DiskBackend` owns one store directory::

    DIR/manifest.json          atomic snapshot pointer (+ checksum)
    DIR/wal.log                fsync-per-record change-log
    DIR/segments/seg-*.seg     append-only framed graph records
    DIR/patterns/patterns-*.bin  content-addressed pattern blobs

Crash recovery = ``load()``: validate the manifest, scan segments
against their sealed extents (truncate unsealed tails, quarantine
damaged sealed regions), verify the pattern blob's SHA-256, truncate
a torn WAL tail, and hand back the committed engine checkpoint (none
when quarantine lost a graph it describes) and every WAL batch past
the manifest's watermark.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.evolving import UpdateBatch
from repro.errors import StoreCorruptionError
from repro.graph.graph import Graph
from repro.patterns.base import PatternSet
from repro.perf.cache import graph_fingerprint
from repro.store.format import (
    WAL_MAGIC,
    atomic_write,
    decode_pattern_blob,
    encode_pattern_blob,
)
from repro.store.manifest import (
    MANIFEST_NAME,
    load_manifest,
    write_manifest,
)
from repro.store.segments import SegmentStore, graph_record_digest
from repro.store.wal import WriteAheadLog

#: Chaos site covering the pattern blob's atomic write.
SITE_PATTERNS = "store.patterns.write"

#: A commit cuts the WAL back to its watermark only when that is a
#: multiple of this.  Records at or below the watermark are never
#: replayed (``scan`` filters them by sequence), but a cut rewrites
#: the log (two fsyncs), so most commits leave them in place.
WAL_CUT_EVERY = 16


def _manifest_entries(graphs: Sequence[Graph]) -> List[Dict[str, str]]:
    """The manifest's ordered ``{name, fingerprint, record}`` list."""
    return [{"name": graph.name,
             "fingerprint": graph_fingerprint(graph),
             "record": graph_record_digest(graph)}
            for graph in graphs]


class RecoveryReport:
    """What a :meth:`DiskBackend.load` had to repair or set aside."""

    __slots__ = ("quarantined_segments", "repaired_segments",
                 "dropped_graphs", "truncated_wal_bytes",
                 "pending_batches", "replayed_batches")

    def __init__(self) -> None:
        self.quarantined_segments: List[str] = []
        self.repaired_segments: List[str] = []
        self.dropped_graphs: List[str] = []
        self.truncated_wal_bytes = 0
        self.pending_batches = 0
        #: filled in by the service: pending batches replayed
        self.replayed_batches = 0

    @property
    def degraded(self) -> bool:
        """True when recovery lost data (quarantine/drop) rather
        than merely rolling back unfinished writes."""
        return bool(self.quarantined_segments or self.dropped_graphs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "quarantined_segments": list(self.quarantined_segments),
            "repaired_segments": list(self.repaired_segments),
            "dropped_graphs": list(self.dropped_graphs),
            "truncated_wal_bytes": self.truncated_wal_bytes,
            "pending_batches": self.pending_batches,
            "replayed_batches": self.replayed_batches,
            "degraded": self.degraded,
        }

    def __repr__(self) -> str:
        return (f"<RecoveryReport pending={self.pending_batches} "
                f"degraded={self.degraded}>")


class StoreState:
    """Everything :meth:`DiskBackend.load` recovered.

    ``engine`` is the MIDAS engine checkpoint
    (:meth:`repro.midas.Midas.state`) committed with the snapshot, or
    ``None`` when no engine was live; ``pending`` holds the batches
    logged past the watermark.
    """

    __slots__ = ("repository", "network", "patterns", "generator",
                 "engine", "pending", "report")

    def __init__(self, repository: List[Graph],
                 network: Optional[Graph], patterns: PatternSet,
                 generator: str, engine: Optional[Dict[str, object]],
                 pending: List[Tuple[int, UpdateBatch]],
                 report: RecoveryReport) -> None:
        self.repository = repository
        self.network = network
        self.patterns = patterns
        self.generator = generator
        self.engine = engine
        self.pending = pending
        self.report = report

    @property
    def data(self):
        """The publishable data argument: the network graph for a
        single-network service, else the ordered repository list."""
        return self.network if self.network is not None \
            else self.repository

    def __repr__(self) -> str:
        return (f"<StoreState graphs={len(self.repository)} "
                f"patterns={len(self.patterns)} "
                f"engine={self.engine is not None} "
                f"pending={len(self.pending)}>")


class RepositoryBackend:
    """The protocol both backends implement (also usable as a base)."""

    def load(self) -> Optional[StoreState]:
        """Recover persisted state, or ``None`` for a cold start."""
        return None

    def log_batch(self, batch: UpdateBatch) -> int:
        """Write-ahead-log one batch; returns its sequence number."""
        return 0

    def commit(self, repository: Sequence[Graph],
               network: Optional[Graph], patterns: PatternSet,
               generator: str,
               wal_seq: Optional[int] = None,
               engine: Optional[Dict[str, object]] = None) -> None:
        """Persist one published snapshot.

        ``engine`` is the checkpoint of the MIDAS engine that
        produced it (:meth:`repro.midas.Midas.state`), ``None`` when
        no engine is live.
        """

    def close(self) -> None:
        """Release file handles."""


class MemoryBackend(RepositoryBackend):
    """The pre-store behavior: nothing survives the process."""

    def __repr__(self) -> str:
        return "<MemoryBackend>"


class DiskBackend(RepositoryBackend):
    """WAL + segments + manifest under one store directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.segments_dir = os.path.join(self.root, "segments")
        self.patterns_dir = os.path.join(self.root, "patterns")
        os.makedirs(self.segments_dir, exist_ok=True)
        os.makedirs(self.patterns_dir, exist_ok=True)
        self._sweep_temps()
        self.manifest_path = os.path.join(self.root, MANIFEST_NAME)
        self.wal = WriteAheadLog(os.path.join(self.root, "wal.log"))
        self.segments = SegmentStore(self.segments_dir)
        self._wal_seq = 0

    def _sweep_temps(self) -> None:
        """Drop ``*.tmp`` leftovers from writes that never renamed."""
        for directory in (self.root, self.segments_dir,
                          self.patterns_dir):
            for name in sorted(os.listdir(directory)):
                if name.endswith(".tmp"):
                    os.unlink(os.path.join(directory, name))

    # ------------------------------------------------------- recovery

    def load(self) -> Optional[StoreState]:
        document = load_manifest(self.manifest_path)
        if document is None:
            # cold start — or a crash before the very first commit.
            # Any WAL content predates a manifest and can never be
            # replayed against a base state, so reset the log.
            if os.path.exists(self.wal.path):
                with open(self.wal.path, "wb") as handle:
                    handle.write(WAL_MAGIC)
                    handle.flush()
                    os.fsync(handle.fileno())
            return None
        report = RecoveryReport()
        graphs, quarantined, repaired = self.segments.load(
            list(document.get("segments", [])))
        report.quarantined_segments = quarantined
        report.repaired_segments = repaired
        repository, report.dropped_graphs = self._resolve(
            document.get("repository", []), graphs)
        if document.get("repository") and not repository:
            # partial quarantine degrades; total loss cannot even
            # boot a snapshot — surface it as typed corruption
            raise StoreCorruptionError(
                "every repository graph was lost to segment "
                "quarantine", path=self.manifest_path)
        patterns_info = document.get("patterns", {})
        blob_path = os.path.join(self.patterns_dir,
                                 str(patterns_info.get("file")))
        if not os.path.exists(blob_path):
            raise StoreCorruptionError(
                "manifest references a missing pattern blob",
                path=blob_path)
        with open(blob_path, "rb") as handle:
            blob = handle.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != patterns_info.get("sha256"):
            raise StoreCorruptionError(
                f"pattern blob checksum mismatch (recorded "
                f"{patterns_info.get('sha256')!r}, computed "
                f"{digest!r})", path=blob_path)
        patterns = decode_pattern_blob(blob, path=blob_path)
        watermark = int(document.get("wal_seq", 0))
        engine = document.get("engine")
        if engine is not None and report.dropped_graphs:
            warnings.warn(
                f"{self.manifest_path}: graphs of the committed "
                "engine were lost to segment quarantine; the next "
                "batch builds a new engine", stacklevel=2)
            engine = None
        pending, truncated = self.wal.scan(watermark)
        report.truncated_wal_bytes = truncated
        report.pending_batches = len(pending)
        # pending batches replay through the live path, whose commits
        # advance the sequence; until then the watermark is the
        # sequence of the state being served
        self._wal_seq = watermark
        network: Optional[Graph] = None
        if document.get("network"):
            if not repository:
                raise StoreCorruptionError(
                    "network store recovered with no graph",
                    path=self.manifest_path)
            network = repository[0]
        return StoreState(repository, network, patterns,
                          str(document.get("generator", "catapult")),
                          engine, pending, report)

    def _resolve(self, items, graphs: Dict[str, Graph]
                 ) -> Tuple[List[Graph], List[str]]:
        """A manifest's ``{name, fingerprint, record}`` list as loaded
        graphs, plus the names whose record was lost."""
        resolved: List[Graph] = []
        lost: List[str] = []
        for item in items:
            graph = graphs.get(str(item.get("record")))
            if graph is None:
                lost.append(str(item.get("name")))
                continue
            if graph_fingerprint(graph) != item.get("fingerprint"):
                raise StoreCorruptionError(
                    f"graph {item.get('name')!r} decoded with a "
                    "different content fingerprint than the "
                    "manifest pinned", path=self.manifest_path)
            resolved.append(graph)
        return resolved, lost

    # ------------------------------------------------------- writing

    def log_batch(self, batch: UpdateBatch) -> int:
        seq = self._wal_seq + 1
        self.wal.append(seq, batch)
        # only claim the sequence once the record is durable, so a
        # failed append (fsync_fail) leaves the numbering contiguous
        self._wal_seq = seq
        return seq

    def commit(self, repository: Sequence[Graph],
               network: Optional[Graph], patterns: PatternSet,
               generator: str,
               wal_seq: Optional[int] = None,
               engine: Optional[Dict[str, object]] = None) -> None:
        wal_seq = self._wal_seq if wal_seq is None else int(wal_seq)
        members = list(repository)
        self.segments.append(members)
        blob = encode_pattern_blob(patterns)
        blob_sha = hashlib.sha256(blob).hexdigest()
        blob_name = f"patterns-{blob_sha[:16]}.bin"
        atomic_write(os.path.join(self.patterns_dir, blob_name),
                     blob, SITE_PATTERNS, key=blob_name)
        document = {
            "wal_seq": wal_seq,
            "generator": generator,
            "network": network is not None,
            "segments": [dict(entry)
                         for entry in self.segments.entries],
            "repository": _manifest_entries(members),
            "patterns": {"file": blob_name, "sha256": blob_sha,
                         "count": len(patterns)},
        }
        if engine is not None:
            document["engine"] = engine
        write_manifest(self.manifest_path, document)
        if wal_seq % WAL_CUT_EVERY == 0:
            self.wal.checkpoint(wal_seq)
        self._wal_seq = max(self._wal_seq, wal_seq)
        self._gc_pattern_blobs(keep=blob_name)

    def _gc_pattern_blobs(self, keep: str) -> None:
        for name in sorted(os.listdir(self.patterns_dir)):
            if name != keep and name.startswith("patterns-"):
                os.unlink(os.path.join(self.patterns_dir, name))

    def close(self) -> None:
        self.wal.close()
        self.segments.close()

    def __repr__(self) -> str:
        return (f"<DiskBackend {self.root!r} "
                f"wal_seq={self._wal_seq}>")


__all__ = [
    "DiskBackend",
    "MemoryBackend",
    "RecoveryReport",
    "RepositoryBackend",
    "SITE_PATTERNS",
    "StoreState",
    "WAL_CUT_EVERY",
]
