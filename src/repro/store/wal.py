"""The write-ahead change-log: log the batch, then apply it.

Every MIDAS maintenance batch is appended here — one framed,
CRC-checksummed, fsync'd record — *before* ``Midas.apply_batch``
runs, so the store's recovery invariant holds at every crash point:

* crash **before** the append is durable → the batch never happened
  (pre-batch state);
* crash **after** the append but before the manifest commit → the
  batch is replayed from the WAL on the next boot (post-batch
  state);
* a **torn tail** (the crash landed mid-append) → the scanner
  truncates the half-record and the batch never happened.

Recovery replays only the records past the manifest's watermark,
through the MIDAS engine the manifest checkpointed.  Records at or
below the watermark are never read again: :meth:`WriteAheadLog.scan`
filters them out by sequence number, so they are harmless wherever
they survive, and a commit cuts them from the log
(:meth:`WriteAheadLog.checkpoint`) only once every
:data:`repro.store.backends.WAL_CUT_EVERY` batches, because a cut
rewrites the file.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional, Tuple

from repro.datasets.evolving import UpdateBatch
from repro.store.format import (
    SCAN_CLEAN,
    WAL_MAGIC,
    decode_batch_record,
    durable_append,
    encode_batch_record,
    frame_record,
    fsync_dir,
    read_framed_file,
    truncate_file,
)

#: Chaos sites threaded through the WAL's durable paths.
SITE_APPEND = "store.wal.append"
SITE_READ = "store.wal.read"


class WriteAheadLog:
    """Append-only, fsync-per-record change-log of update batches."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = None

    # ------------------------------------------------------- writing

    def _open(self):
        if self._handle is None or self._handle.closed:
            fresh = not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0
            self._handle = open(self.path, "ab")
            if fresh:
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                fsync_dir(os.path.dirname(self.path) or ".")
        return self._handle

    def append(self, seq: int, batch: UpdateBatch) -> None:
        """Durably log one batch under sequence number ``seq``.

        Returns only once the record is fsync'd; a scripted
        ``fsync_fail`` raises with nothing written and a
        ``torn_write`` crashes mid-frame — both leave the log
        recoverable.
        """
        handle = self._open()
        durable_append(handle, encode_batch_record(seq, batch),
                       SITE_APPEND, key=seq, path=self.path)

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    # ------------------------------------------------------- reading

    def scan(self, watermark: int, repair: bool = True
             ) -> Tuple[List[Tuple[int, UpdateBatch]], int]:
        """Batches logged past ``watermark``, oldest first.

        Returns ``(pending, truncated_bytes)``.  A torn or
        checksum-failed tail is truncated in place (``repair=True``)
        with a warning — those bytes never finished becoming durable,
        so dropping them restores the pre-append state the writer's
        contract promises.
        """
        if not os.path.exists(self.path):
            return [], 0
        self.close()
        payloads, valid_end, verdict = read_framed_file(
            self.path, WAL_MAGIC, site_name=SITE_READ)
        truncated = 0
        if verdict is not SCAN_CLEAN:
            truncated = os.path.getsize(self.path) \
                - max(valid_end, len(WAL_MAGIC))
            warnings.warn(
                f"{self.path}: {verdict} WAL tail; truncating "
                f"{truncated} byte(s) back to the last intact "
                "record", stacklevel=2)
            if repair:
                if valid_end <= len(WAL_MAGIC):
                    # the magic itself is damaged: rewrite a bare log
                    with open(self.path, "wb") as handle:
                        handle.write(WAL_MAGIC)
                        handle.flush()
                        os.fsync(handle.fileno())
                else:
                    truncate_file(self.path, valid_end)
        pending = []
        for payload in payloads:
            seq, batch = decode_batch_record(payload, path=self.path)
            if seq > watermark:
                pending.append((seq, batch))
        pending.sort(key=lambda item: item[0])
        return pending, truncated

    def checkpoint(self, watermark: int) -> None:
        """Drop every record at or below ``watermark`` (the sequence
        a manifest has just committed).

        Rewritten atomically (temp + fsync + rename + directory
        fsync) so a crash mid-checkpoint leaves the previous log
        intact; surviving stale records are harmless because replay
        filters on the watermark's sequence number.
        """
        pending, _ = self.scan(watermark, repair=False)
        temp = self.path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(WAL_MAGIC)
            for seq, batch in pending:
                handle.write(frame_record(
                    encode_batch_record(seq, batch)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        fsync_dir(os.path.dirname(self.path) or ".")


__all__ = ["SITE_APPEND", "SITE_READ", "WriteAheadLog"]
