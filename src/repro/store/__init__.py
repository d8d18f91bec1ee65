"""repro.store: the durable repository tier.

An on-disk, append-only graph store plus a write-ahead change-log
that make MIDAS maintenance and :mod:`repro.service` crash-
recoverable (stdlib-only, like every repro subsystem):

* :class:`DiskBackend` / :class:`MemoryBackend` — the pluggable
  :class:`RepositoryBackend` protocol behind the service's
  repository-list call sites (``repro-vqi serve --store DIR``);
* :class:`WriteAheadLog` — fsync-per-record batch log, appended
  *before* ``Midas.apply_batch`` so every crash point recovers to
  the pre-batch or post-batch pattern set, bitwise;
* :class:`SegmentStore` — framed, CRC-checksummed
  ``CompactGraph.encode()`` records, content-addressed, with torn
  tails truncated and damaged sealed regions quarantined;
* the manifest (:func:`write_manifest` / :func:`load_manifest`) —
  one atomic write-temp→fsync→rename pointer pinning a consistent
  ``(segments, pattern blob, repository order, WAL watermark, MIDAS
  engine checkpoint)`` snapshot, so a restart restores the engine
  instead of re-selecting.

DESIGN.md ("Durability & recovery") specifies the file formats, the
crash matrix, and the recovery invariants; reprolint R019 enforces
the flush+fsync discipline over this package.
"""

from repro.store.backends import (
    WAL_CUT_EVERY,
    DiskBackend,
    MemoryBackend,
    RecoveryReport,
    RepositoryBackend,
    StoreState,
)
from repro.store.format import (
    decode_graph_record,
    decode_pattern_blob,
    encode_graph_record,
    encode_pattern_blob,
    frame_record,
    scan_records,
)
from repro.store.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    load_manifest,
    write_manifest,
)
from repro.store.segments import SegmentStore, record_digest
from repro.store.wal import WriteAheadLog

__all__ = [
    "DiskBackend",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MemoryBackend",
    "RecoveryReport",
    "RepositoryBackend",
    "SegmentStore",
    "StoreState",
    "WAL_CUT_EVERY",
    "WriteAheadLog",
    "decode_graph_record",
    "decode_pattern_blob",
    "encode_graph_record",
    "encode_pattern_blob",
    "frame_record",
    "load_manifest",
    "record_digest",
    "scan_records",
    "write_manifest",
]
