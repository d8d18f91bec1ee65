"""The manifest: one atomic pointer to a consistent store snapshot.

``manifest.json`` pins everything a boot needs to reconstruct the
served state bitwise: the sealed segment extents, the repository as
an *ordered* list of content fingerprints (order matters — MIDAS
iteration and snapshot identity both follow it), the pattern blob's
name and SHA-256, the WAL watermark (highest batch sequence already
folded in), the generator tag, and the checkpoint of the MIDAS
engine that produced the snapshot (``"engine"``, plain JSON from
:meth:`repro.midas.Midas.state`, absent when no engine was live), so
the engine restores under the same checksum and rename as the rest
of the snapshot.  It is replaced only via
write-temp → fsync → ``os.replace`` → directory fsync, so a crash at
any instant leaves either the old manifest or the new one — never a
torn hybrid — and the embedded whole-document checksum turns the
residual risk (bit rot in place) into a typed
:class:`~repro.errors.StoreCorruptionError` instead of a misload.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from repro.errors import StoreCorruptionError
from repro.store.format import atomic_write

#: Bump when the manifest document layout changes.
MANIFEST_SCHEMA = "repro-store/v1"

#: The manifest file name under a store directory.
MANIFEST_NAME = "manifest.json"

#: Chaos site covering the manifest's atomic-rename commit.
SITE_COMMIT = "store.manifest.commit"


def _checksum(document: Dict[str, object]) -> str:
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: str, document: Dict[str, object]) -> None:
    """Atomically replace the manifest with ``document``.

    The schema tag and self-checksum are stamped here; callers pass
    only the payload fields (``wal_seq``, ``generator``,
    ``network``, ``segments``, ``repository``, ``patterns`` and,
    when an engine is live, ``engine``).
    """
    stamped = dict(document)
    stamped["schema"] = MANIFEST_SCHEMA
    stamped.pop("checksum", None)
    stamped["checksum"] = _checksum(
        {key: value for key, value in stamped.items()
         if key != "checksum"})
    data = json.dumps(stamped, sort_keys=True,
                      indent=1).encode("utf-8")
    atomic_write(path, data, SITE_COMMIT,
                 key=os.path.basename(path))


def load_manifest(path: str) -> Optional[Dict[str, object]]:
    """Read and validate the manifest; ``None`` when absent.

    An unparsable document, a schema mismatch, or a checksum
    mismatch raises :class:`~repro.errors.StoreCorruptionError` —
    the manifest is the store's root of trust, so damage here cannot
    be quarantined away.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreCorruptionError(
            f"manifest is not valid JSON: {exc}", path=path,
            detail=exc) from exc
    if not isinstance(document, dict):
        raise StoreCorruptionError(
            "manifest is not a JSON object", path=path)
    if document.get("schema") != MANIFEST_SCHEMA:
        raise StoreCorruptionError(
            f"manifest schema {document.get('schema')!r} is not "
            f"{MANIFEST_SCHEMA!r}", path=path)
    recorded = document.get("checksum")
    expected = _checksum({key: value for key, value
                          in document.items() if key != "checksum"})
    if recorded != expected:
        raise StoreCorruptionError(
            f"manifest checksum mismatch (recorded {recorded!r}, "
            f"computed {expected!r})", path=path)
    return document


__all__ = ["MANIFEST_NAME", "MANIFEST_SCHEMA", "SITE_COMMIT",
           "load_manifest", "write_manifest"]
