"""Durability suite: the on-disk store's crash-recovery contract.

Layered like the store itself:

* **framing / codecs** — frame scans classify damage as torn vs
  corrupt; graph, batch, and pattern payloads round-trip losslessly
  (names, insertion order, attributes, id gaps) and re-encode
  byte-identically;
* **WAL / segments / manifest** — torn tails truncate with a
  warning, sealed-region damage quarantines, the manifest's
  checksum turns bit rot into a typed error;
* **service recovery** — a durable service reopened after a clean
  shutdown serves a byte-identical pattern panel, also when a build
  publishes while a maintenance batch is mid-commit;
* **the crash matrix** — every scripted disk fault (``torn_write``,
  ``fsync_fail``, ``crash_after_n_records``, ``short_read``) at
  every durable site (WAL append/read, segment append/read, pattern
  blob write, manifest commit) recovers to the *pre-batch or the
  post-batch* pattern set, bitwise — never a hybrid, never a crash.

The same seed must yield the same outcome at every worker count —
``make store-smoke`` runs this file under ``REPRO_WORKERS=1``
and ``=4``.
"""

import os
import tempfile
import threading
import time
import unittest
import warnings
from unittest import mock

from repro.core.pipeline import PipelineConfig
from repro.datasets import UpdateBatch, generate_chemical_repository
from repro.errors import (
    SimulatedCrash,
    StoreCorruptionError,
    StoreError,
    StoreWriteError,
)
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.perf.cache import graph_fingerprint
from repro.resilience import FaultPlan, FaultSpec, chaos
from repro.service import (
    PatternService,
    ServiceConfig,
    handlers,
    strip_volatile,
    wire,
)
from repro.store import (
    DiskBackend,
    MemoryBackend,
    WriteAheadLog,
    decode_graph_record,
    decode_pattern_blob,
    encode_graph_record,
    encode_pattern_blob,
    frame_record,
    load_manifest,
    scan_records,
    write_manifest,
)
from repro.store.format import (
    SCAN_CLEAN,
    SCAN_CORRUPT,
    SCAN_TORN,
    SEGMENT_MAGIC,
    WAL_MAGIC,
    decode_batch_record,
    encode_batch_record,
)
from repro.store.manifest import SITE_COMMIT
from repro.store.segments import SegmentStore
from repro.store import backends as backends_mod
from repro.store import segments as segments_mod
from repro.store import wal as wal_mod

BUDGET = PatternBudget(4, min_size=4, max_size=7)


def make_repo(size=10, seed=7):
    return generate_chemical_repository(size, seed=seed)


def make_batch():
    """A batch that changes the selected pattern set: four new
    molecules in, two founding members out."""
    extra = generate_chemical_repository(14, seed=11)[10:]
    return UpdateBatch(added=extra, removed=["mol0", "mol1"])


def disk_service(root):
    return PatternService(make_repo(),
                          PipelineConfig(budget=BUDGET, seed=3),
                          backend=DiskBackend(str(root)))


def pattern_bytes(service):
    response = service.dispatch("GET", "/v1/patterns")
    assert response.status == 200
    return wire.dumps(strip_volatile(response.body))


def sample_graphs():
    """Codec fixtures spanning the round-trip edge cases."""
    empty = Graph(name="empty")

    singleton = Graph(name="one")
    singleton.add_node(3, label="C")

    attrs = Graph(name="attrs")
    attrs.add_node(1, label="C", charge=-1, tag="alpha")
    attrs.add_node(2, label="N")
    attrs.add_edge(1, 2, label="double", order=2)

    gaps = Graph(name="id gaps / unicode π")
    for node in (100, 5, 9000, 7):  # deliberately unsorted
        gaps.add_node(node, label=f"L{node}")
    gaps.add_edge(100, 5, label="a")
    gaps.add_edge(9000, 7, label="b")

    return [empty, singleton, attrs, gaps] + list(make_repo(6, seed=5))


# ------------------------------------------------------------- framing


class TestFraming(unittest.TestCase):
    def test_scan_clean_round_trip(self):
        payloads = [b"alpha", b"", b"gamma" * 100]
        data = b"".join(frame_record(p) for p in payloads)
        scanned, end, verdict = scan_records(data)
        self.assertEqual(payloads, scanned)
        self.assertEqual(len(data), end)
        self.assertIs(SCAN_CLEAN, verdict)

    def test_torn_tail_stops_at_last_intact_frame(self):
        good = frame_record(b"kept")
        data = good + frame_record(b"torn-away")[:-3]
        scanned, end, verdict = scan_records(data)
        self.assertEqual([b"kept"], scanned)
        self.assertEqual(len(good), end)
        self.assertIs(SCAN_TORN, verdict)

    def test_checksum_failure_is_corrupt_not_torn(self):
        good = frame_record(b"kept")
        bad = bytearray(frame_record(b"bit-rotted"))
        bad[-1] ^= 0xFF
        scanned, end, verdict = scan_records(good + bytes(bad))
        self.assertEqual([b"kept"], scanned)
        self.assertEqual(len(good), end)
        self.assertIs(SCAN_CORRUPT, verdict)


# -------------------------------------------------------------- codecs


class TestGraphCodec(unittest.TestCase):
    def test_round_trip_is_lossless(self):
        for graph in sample_graphs():
            with self.subTest(graph=graph.name):
                decoded = decode_graph_record(
                    encode_graph_record(graph))
                self.assertEqual(graph.name, decoded.name)
                self.assertEqual(list(graph.nodes()),
                                 list(decoded.nodes()))
                self.assertEqual(list(graph.edges()),
                                 list(decoded.edges()))
                for node in graph.nodes():
                    self.assertEqual(graph.node_label(node),
                                     decoded.node_label(node))
                    self.assertEqual(graph.node_attrs(node),
                                     decoded.node_attrs(node))
                for u, v in graph.edges():
                    self.assertEqual(graph.edge_label(u, v),
                                     decoded.edge_label(u, v))
                    self.assertEqual(graph.edge_attrs(u, v),
                                     decoded.edge_attrs(u, v))

    def test_re_encoding_is_byte_identical(self):
        for graph in sample_graphs():
            record = encode_graph_record(graph)
            self.assertEqual(
                record,
                encode_graph_record(decode_graph_record(record)))

    def test_fingerprint_survives_the_round_trip(self):
        for graph in sample_graphs():
            decoded = decode_graph_record(encode_graph_record(graph))
            self.assertEqual(graph_fingerprint(graph),
                             graph_fingerprint(decoded))

    def test_same_content_different_name_gets_distinct_records(self):
        # graph_fingerprint collides here by design; the store's
        # exact-record address must not
        a = Graph(name="a")
        a.add_node(1, label="C")
        b = Graph(name="b")
        b.add_node(1, label="C")
        self.assertEqual(graph_fingerprint(a), graph_fingerprint(b))
        self.assertNotEqual(encode_graph_record(a),
                            encode_graph_record(b))

    def test_garbage_payload_raises_typed_corruption(self):
        with self.assertRaises(StoreCorruptionError):
            decode_graph_record(b"\x00\x01\x02not a record")
        with self.assertRaises(StoreCorruptionError):
            decode_graph_record(b"")


class TestBatchAndPatternCodecs(unittest.TestCase):
    def test_batch_round_trip(self):
        batch = make_batch()
        seq, decoded = decode_batch_record(
            encode_batch_record(42, batch))
        self.assertEqual(42, seq)
        self.assertEqual(batch.removed, decoded.removed)
        self.assertEqual([g.name for g in batch.added],
                         [g.name for g in decoded.added])
        self.assertEqual(
            [encode_graph_record(g) for g in batch.added],
            [encode_graph_record(g) for g in decoded.added])

    def test_pattern_blob_round_trip_keeps_display_order(self):
        patterns = PatternSet(
            Pattern(graph, source=f"test:{graph.name}")
            for graph in make_repo(5, seed=9))
        blob = encode_pattern_blob(patterns)
        decoded = decode_pattern_blob(blob)
        self.assertEqual([p.code for p in patterns],
                         [p.code for p in decoded])
        self.assertEqual([p.source for p in patterns],
                         [p.source for p in decoded])
        self.assertEqual(blob, encode_pattern_blob(decoded))

    def test_damaged_pattern_blob_is_fatal(self):
        patterns = PatternSet(
            Pattern(graph, source="t") for graph in make_repo(3))
        blob = encode_pattern_blob(patterns)
        with self.assertRaises(StoreCorruptionError):
            decode_pattern_blob(blob[:-4])  # torn
        with self.assertRaises(StoreCorruptionError):
            decode_pattern_blob(b"XXXXXXXX" + blob[8:])  # bad magic


# ----------------------------------------------------------------- WAL


class TestWriteAheadLog(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.path = os.path.join(self._tmp.name, "wal.log")

    def test_append_scan_respects_the_watermark(self):
        wal = WriteAheadLog(self.path)
        for seq in (1, 2, 3):
            wal.append(seq, make_batch())
        pending, truncated = wal.scan(watermark=1)
        self.assertEqual([2, 3], [seq for seq, _ in pending])
        self.assertEqual(0, truncated)
        wal.close()

    def test_torn_tail_truncates_with_a_warning(self):
        wal = WriteAheadLog(self.path)
        wal.append(1, make_batch())
        wal.close()
        intact = os.path.getsize(self.path)
        with open(self.path, "ab") as handle:
            handle.write(b"\x99" * 11)  # a crash mid-append
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pending, truncated = wal.scan(watermark=0)
        self.assertEqual([1], [seq for seq, _ in pending])
        self.assertEqual(11, truncated)
        self.assertEqual(intact, os.path.getsize(self.path))
        self.assertTrue(any("truncating" in str(w.message)
                            for w in caught))

    def test_checkpoint_drops_folded_records(self):
        wal = WriteAheadLog(self.path)
        for seq in (1, 2, 3):
            wal.append(seq, make_batch())
        wal.checkpoint(2)
        pending, _ = wal.scan(watermark=0)
        self.assertEqual([3], [seq for seq, _ in pending])
        wal.close()


# ------------------------------------------------------------ segments


class TestSegments(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = self._tmp.name

    def seal(self, store):
        return [dict(entry) for entry in store.entries]

    def test_clean_reopen_loads_byte_identical_records(self):
        graphs = sample_graphs()
        store = SegmentStore(self.root)
        self.assertEqual(len(graphs), store.append(graphs))
        sealed = self.seal(store)
        store.close()
        loaded, quarantined, repaired = SegmentStore(self.root).load(
            sealed)
        self.assertEqual([], quarantined)
        self.assertEqual([], repaired)
        self.assertEqual(
            sorted(encode_graph_record(g) for g in graphs),
            sorted(encode_graph_record(g) for g in loaded.values()))

    def test_append_dedupes_identical_records(self):
        store = SegmentStore(self.root)
        graphs = list(make_repo(4))
        self.assertEqual(4, store.append(graphs))
        self.assertEqual(0, store.append(graphs))  # all stored
        store.close()

    def test_unsealed_tail_is_truncated_back(self):
        store = SegmentStore(self.root)
        store.append(make_repo(3))
        sealed = self.seal(store)  # manifest commits here
        store.append(generate_chemical_repository(5, seed=11)[3:])
        store.close()
        fresh = SegmentStore(self.root)
        graphs, quarantined, repaired = fresh.load(sealed)
        self.assertEqual(3, len(graphs))
        self.assertEqual([], quarantined)
        self.assertEqual([sealed[0]["name"]], repaired)
        self.assertEqual(int(sealed[0]["bytes"]), os.path.getsize(
            os.path.join(self.root, str(sealed[0]["name"]))))

    def test_sealed_region_damage_quarantines_the_segment(self):
        store = SegmentStore(self.root)
        store.append(make_repo(3))
        sealed = self.seal(store)
        store.close()
        path = os.path.join(self.root, str(sealed[0]["name"]))
        with open(path, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC) + 20)
            handle.write(b"\xff\xfe")  # bit rot inside the seal
        fresh = SegmentStore(self.root)
        graphs, quarantined, repaired = fresh.load(sealed)
        self.assertEqual({}, graphs)
        self.assertEqual([sealed[0]["name"]], quarantined)
        self.assertFalse(os.path.exists(path))
        self.assertTrue(os.path.exists(path + ".quarantined"))

    def test_missing_segment_file_quarantines(self):
        fresh = SegmentStore(self.root)
        graphs, quarantined, _ = fresh.load(
            [{"name": "seg-000001.seg", "bytes": 99, "records": 1}])
        self.assertEqual({}, graphs)
        self.assertEqual(["seg-000001.seg"], quarantined)


# ------------------------------------------------------------ manifest


class TestManifest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.path = os.path.join(self._tmp.name, "manifest.json")

    def document(self):
        return {"wal_seq": 7, "generator": "catapult",
                "network": False, "segments": [],
                "repository": [], "patterns": {"file": "p.bin"}}

    def test_absent_manifest_loads_as_none(self):
        self.assertIsNone(load_manifest(self.path))

    def test_round_trip(self):
        write_manifest(self.path, self.document())
        loaded = load_manifest(self.path)
        self.assertEqual(7, loaded["wal_seq"])
        self.assertIn("checksum", loaded)

    def test_tampered_manifest_fails_its_checksum(self):
        write_manifest(self.path, self.document())
        with open(self.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"wal_seq": 7', '"wal_seq": 8'))
        with self.assertRaises(StoreCorruptionError):
            load_manifest(self.path)

    def test_non_json_manifest_is_typed_corruption(self):
        with open(self.path, "wb") as handle:
            handle.write(b"\x00garbage")
        with self.assertRaises(StoreCorruptionError):
            load_manifest(self.path)


# -------------------------------------------------------- disk backend


class TestDiskBackend(unittest.TestCase):
    def test_commit_then_load_is_bitwise(self):
        graphs = list(make_repo(12))
        patterns = PatternSet(Pattern(g, source="store-test")
                              for g in graphs[:4])
        with tempfile.TemporaryDirectory() as root:
            backend = DiskBackend(root)
            backend.commit(graphs, None, patterns, "catapult",
                           wal_seq=0)
            backend.close()
            reopened = DiskBackend(root)
            state = reopened.load()
            reopened.close()
        self.assertEqual([encode_graph_record(g) for g in graphs],
                         [encode_graph_record(g)
                          for g in state.repository])
        self.assertEqual(encode_pattern_blob(patterns),
                         encode_pattern_blob(state.patterns))
        report = state.report
        self.assertFalse(report.degraded)
        self.assertEqual([], report.repaired_segments)
        self.assertEqual(0, report.pending_batches)
        self.assertEqual(0, report.truncated_wal_bytes)


# ---------------------------------------------------- service recovery


class TestServiceRecovery(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = self._tmp.name

    def test_memory_backend_never_recovers(self):
        service = PatternService(make_repo(),
                                 PipelineConfig(budget=BUDGET, seed=3),
                                 backend=MemoryBackend())
        self.assertIsNone(service.recovery)
        service.close()

    def test_clean_restart_serves_identical_patterns(self):
        service = disk_service(self.root)
        self.assertIsNone(service.recovery)  # cold start built
        service.apply_maintenance(make_batch())
        expected = pattern_bytes(service)
        service.close()

        recovered = disk_service(self.root)
        self.assertIsNotNone(recovered.recovery)
        report = recovered.recovery.to_dict()
        self.assertFalse(report["degraded"])
        self.assertEqual(0, report["pending_batches"])
        self.assertEqual(expected, pattern_bytes(recovered))
        recovered.close()

    def test_maintain_via_http_survives_a_restart(self):
        service = disk_service(self.root)
        extra = generate_chemical_repository(14, seed=11)[10:]
        from repro.graph.io import graph_to_dict
        response = service.dispatch(
            "POST", "/v1/patterns/maintain",
            {"add": [graph_to_dict(g) for g in extra],
             "remove": ["mol0"]})
        self.assertEqual(200, response.status)
        expected = pattern_bytes(service)
        service.close()
        recovered = disk_service(self.root)
        self.assertEqual(expected, pattern_bytes(recovered))
        recovered.close()

    def test_build_during_a_maintenance_commit_survives_a_restart(self):
        # a build whose pipeline returns while a maintenance batch sits
        # between its snapshot swap and its commit must publish after
        # that commit, or the store recovers a state nobody served
        service = PatternService(make_repo(),
                                 PipelineConfig(budget=BUDGET, seed=3),
                                 ServiceConfig(max_inflight=2),
                                 backend=DiskBackend(self.root))
        held, release, built = (threading.Event() for _ in range(3))
        commit = service.backend.commit

        def held_commit(*args, **kwargs):
            if threading.current_thread().name == "maintain":
                held.set()
                self.assertTrue(release.wait(60))
            return commit(*args, **kwargs)

        run_catapult = handlers.run_catapult

        def signalled_catapult(*args, **kwargs):
            result = run_catapult(*args, **kwargs)
            built.set()
            return result

        service.backend.commit = held_commit
        batch = make_batch()
        replies = {}

        def post(path, body):
            name = threading.current_thread().name
            replies[name] = service.dispatch("POST", path, body)

        maintain = threading.Thread(
            name="maintain", target=post,
            args=("/v1/patterns/maintain",
                  {"add": [graph_to_dict(g) for g in batch.added],
                   "remove": list(batch.removed)}))
        build = threading.Thread(
            name="build", target=post,
            args=("/v1/build",
                  {"repository": [graph_to_dict(g)
                                  for g in make_repo(12, seed=5)],
                   "config": {"seed": 3}}))
        with mock.patch.object(handlers, "run_catapult",
                               signalled_catapult):
            maintain.start()
            try:
                self.assertTrue(held.wait(60))
                build.start()
                self.assertTrue(built.wait(60))
                time.sleep(0.2)  # room for a build that skips the lock
            finally:
                release.set()
            for thread in (maintain, build):
                thread.join(60)
                self.assertFalse(thread.is_alive())
        self.assertEqual({"maintain": 200, "build": 200},
                         {name: reply.status
                          for name, reply in replies.items()})

        def served(svc):
            current = svc.snapshots.current()
            return ([pattern.code for pattern in current.patterns],
                    [graph.name for graph in current.repository])

        live = served(service)
        service.close()
        recovered = disk_service(self.root)
        self.assertEqual(live, served(recovered))
        recovered.close()


# -------------------------------------------------------- crash matrix


#: (site, kind, expected recovery state).  WAL-append faults land
#: before anything applied — recovery must serve the pre-batch set;
#: once the WAL record is durable, every later fault recovers to the
#: post-batch set by replay.
CRASH_MATRIX = [
    (wal_mod.SITE_APPEND, "torn_write", "pre"),
    (wal_mod.SITE_APPEND, "fsync_fail", "pre"),
    (wal_mod.SITE_APPEND, "crash_after_n_records", "post"),
    (segments_mod.SITE_APPEND, "torn_write", "post"),
    (segments_mod.SITE_APPEND, "fsync_fail", "post"),
    (backends_mod.SITE_PATTERNS, "torn_write", "post"),
    (backends_mod.SITE_PATTERNS, "fsync_fail", "post"),
    (SITE_COMMIT, "torn_write", "post"),
    (SITE_COMMIT, "crash_after_n_records", "post"),
]


class TestCrashMatrix(unittest.TestCase):
    """Every scripted crash point recovers to pre or post, bitwise."""

    @classmethod
    def setUpClass(cls):
        # control stores pin the two legal recovery states once
        with tempfile.TemporaryDirectory() as tmp:
            control = disk_service(tmp)
            cls.pre = pattern_bytes(control)
            control.apply_maintenance(make_batch())
            cls.post = pattern_bytes(control)
            control.close()

    def test_the_two_legal_states_differ(self):
        self.assertNotEqual(self.pre, self.post)

    def faulted_store(self, site, kind):
        """A store directory whose maintain died at (site, kind);
        returns its root for recovery."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        service = disk_service(tmp.name)
        plan = FaultPlan([FaultSpec(site, kind, at_calls=[1])],
                         seed=13)
        with chaos(plan):
            with self.assertRaises((SimulatedCrash, StoreWriteError)):
                service.apply_maintenance(make_batch())
        self.assertEqual(1, len(plan.fired))
        service.close()
        return tmp.name

    def test_every_crash_point_recovers_bitwise(self):
        for site, kind, expected in CRASH_MATRIX:
            with self.subTest(site=site, kind=kind):
                root = self.faulted_store(site, kind)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    recovered = disk_service(root)
                want = self.pre if expected == "pre" else self.post
                self.assertEqual(want, pattern_bytes(recovered))
                self.assertFalse(recovered.recovery.degraded)
                recovered.close()

    def test_http_maintain_maps_the_crash_to_a_500(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        service = disk_service(tmp.name)
        from repro.graph.io import graph_to_dict
        extra = generate_chemical_repository(14, seed=11)[10:]
        plan = FaultPlan([FaultSpec(wal_mod.SITE_APPEND, "torn_write",
                                    at_calls=[1])], seed=13)
        with chaos(plan):
            response = service.dispatch(
                "POST", "/v1/patterns/maintain",
                {"add": [graph_to_dict(g) for g in extra],
                 "remove": ["mol0", "mol1"]})
        self.assertEqual(500, response.status)
        self.assertIn("error", response.body)
        service.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovered = disk_service(tmp.name)
        self.assertEqual(self.pre, pattern_bytes(recovered))
        recovered.close()

    def test_short_read_on_the_wal_rolls_back_to_pre(self):
        # the batch is durable in the WAL, but the recovery boot's
        # read comes back short: the tail scans as torn, truncates,
        # and the store serves the pre-batch state
        root = self.faulted_store(wal_mod.SITE_APPEND,
                                  "crash_after_n_records")
        plan = FaultPlan([FaultSpec(wal_mod.SITE_READ, "short_read")],
                         seed=13)
        with chaos(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recovered = disk_service(root)
        self.assertGreater(
            recovered.recovery.truncated_wal_bytes, 0)
        self.assertEqual(self.pre, pattern_bytes(recovered))
        recovered.close()

    def small_roll_store(self):
        """A committed store spread over several small segments."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        backend = DiskBackend(tmp.name)
        backend.segments.roll_bytes = 256  # force per-graph rolls
        service = PatternService(make_repo(),
                                 PipelineConfig(budget=BUDGET,
                                                seed=3),
                                 backend=backend)
        service.apply_maintenance(make_batch())
        names = [str(entry["name"])
                 for entry in backend.segments.entries]
        service.close()
        self.assertGreater(len(names), 1)
        return tmp.name, names

    def test_short_read_on_a_segment_quarantines_it(self):
        # sealed-region damage can't be rolled back: the hit segment
        # is set aside and reported, the rest of the repository and
        # the pattern panel (its own checksummed blob) survive
        root, names = self.small_roll_store()
        # the last segment holds a batch-added graph the manifest
        # still references (the first holds only removed members)
        plan = FaultPlan(
            [FaultSpec(segments_mod.SITE_READ, "short_read",
                       keys=[names[-1]])], seed=13)
        with chaos(plan):
            recovered = PatternService(
                make_repo(), PipelineConfig(budget=BUDGET, seed=3),
                backend=DiskBackend(root))
        report = recovered.recovery
        self.assertTrue(report.degraded)
        self.assertEqual([names[-1]], report.quarantined_segments)
        self.assertTrue(report.dropped_graphs)
        self.assertEqual(self.post, pattern_bytes(recovered))
        recovered.close()

    def test_total_segment_loss_is_typed_corruption(self):
        root, names = self.small_roll_store()
        plan = FaultPlan(
            [FaultSpec(segments_mod.SITE_READ, "short_read")],
            seed=13)  # every segment read comes back short
        with chaos(plan):
            with self.assertRaises(StoreCorruptionError):
                PatternService(
                    make_repo(),
                    PipelineConfig(budget=BUDGET, seed=3),
                    backend=DiskBackend(root))


# ------------------------------------------------- error taxonomy


class TestErrorTaxonomy(unittest.TestCase):
    def test_store_errors_are_repro_errors(self):
        from repro.errors import ReproError
        for cls in (StoreError, StoreCorruptionError,
                    StoreWriteError, SimulatedCrash):
            self.assertTrue(issubclass(cls, ReproError))

    def test_corruption_error_carries_its_path(self):
        error = StoreCorruptionError("bad frame", path="/x/y.seg")
        self.assertIn("/x/y.seg", str(error))


if __name__ == "__main__":
    unittest.main()
