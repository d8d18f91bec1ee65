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
  post-batch* pattern set, bitwise — never a hybrid, never a crash;
* **engine checkpoints** — a durable service keeps one MIDAS engine
  and serves what a memory-backed one does after every batch; each
  commit carries the engine's checkpoint, so the same faults, fired
  anywhere in a long stream and around a WAL cut, recover bitwise
  with the engine restored (never re-selected), and the next batch
  lands where a run that never crashed does.

The same seed must yield the same outcome at every worker count —
``make store-smoke`` runs this file under ``REPRO_WORKERS=1``
and ``=4``.
"""

import json
import os
import tempfile
import threading
import time
import unittest
import warnings
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from repro.core.pipeline import PipelineConfig
from repro.datasets import (
    EvolvingRepository,
    NetworkConfig,
    UpdateBatch,
    generate_chemical_repository,
    generate_network,
    generate_update_stream,
)
from repro.errors import (
    SimulatedCrash,
    StoreCorruptionError,
    StoreError,
    StoreWriteError,
)
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict
from repro.midas import Midas
from repro.obs import metrics
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
    WAL_CUT_EVERY,
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
from repro.store import format as format_mod
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


def checkpoint_stream(count=3 * WAL_CUT_EVERY):
    """A 3-in/3-out batch stream over :func:`make_repo` whose
    additions drift from batch 6 on: minor and major batches, across
    three cuts of the WAL."""
    repository = EvolvingRepository(make_repo())
    batches = []
    for batch in generate_update_stream(repository, count, 3, seed=5,
                                        removal_fraction=1.0,
                                        drift_after=6):
        repository.apply(batch)
        batches.append(batch)
    return batches


def engine_mismatches():
    return metrics.registry().counters.get(
        "store.recovery.engine_mismatch", 0)


def initializations():
    """Patch ``Midas._initialize`` to count its calls into the
    returned list."""
    calls = []
    initialize = Midas._initialize

    def counted(engine):
        calls.append(engine)
        return initialize(engine)

    return mock.patch.object(Midas, "_initialize", counted), calls


def manifest_of(root):
    return load_manifest(os.path.join(root, "manifest.json"))


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

    def test_insertion_order_gets_its_own_record(self):
        # same name, same sorted content, different insertion order:
        # one fingerprint, two records, each decoding in its own
        # order (a restored engine's repository is in the order the
        # live engine saw it)
        forward = Graph(name="mol")
        backward = Graph(name="mol")
        for graph, nodes in ((forward, (1, 2, 3)), (backward, (3, 2, 1))):
            for node in nodes:
                graph.add_node(node, label="C" if node != 2 else "N")
        forward.add_edge(1, 2, label="1")
        forward.add_edge(2, 3, label="2")
        backward.add_edge(2, 3, label="2")
        backward.add_edge(1, 2, label="1")
        self.assertEqual(graph_fingerprint(forward),
                         graph_fingerprint(backward))
        store = SegmentStore(self.root)
        self.assertEqual(2, store.append([forward, backward]))
        sealed = self.seal(store)
        store.close()
        loaded, _, _ = SegmentStore(self.root).load(sealed)
        self.assertEqual(2, len(loaded))
        self.assertEqual(
            sorted((list(g.nodes()), list(g.edges()))
                   for g in (forward, backward)),
            sorted((list(g.nodes()), list(g.edges()))
                   for g in loaded.values()))


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

    def test_commit_encodes_a_record_once_per_content(self):
        # the commit of a 5-in/1-out batch on 30 graphs: records of
        # graphs already committed are never encoded again, and an
        # added graph's at most twice (its digest, then its append)
        members = list(make_repo(30))
        added = generate_chemical_repository(35, seed=11)[30:]
        patterns = PatternSet(Pattern(g, source="store-test")
                              for g in make_repo(4, seed=5))
        encodes = Counter()

        def counting(graph):
            encodes[id(graph)] += 1
            return encode_graph_record(graph)

        with tempfile.TemporaryDirectory() as root:
            backend = DiskBackend(root)
            backend.commit(members, None, patterns, "catapult",
                           wal_seq=0)
            with ExitStack() as stack:
                for module in (format_mod, segments_mod, backends_mod):
                    if hasattr(module, "encode_graph_record"):
                        stack.enter_context(mock.patch.object(
                            module, "encode_graph_record", counting))
                backend.commit(members[1:] + added, None, patterns,
                               "catapult", wal_seq=1)
            backend.close()
        self.assertEqual([], [g.name for g in members[1:]
                              if encodes[id(g)]])
        self.assertEqual({g.name: 2 for g in added},
                         {g.name: encodes[id(g)] for g in added})


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


class TestRefusedBatchStaysOutOfTheWal(unittest.TestCase):
    """A batch the engine cannot take is refused (409) before it
    reaches the WAL: no record lands past the watermark, so the next
    boot has nothing to replay and serves the pre-batch panel."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = self._tmp.name

    def boot(self, data):
        return PatternService(data, PipelineConfig(budget=BUDGET, seed=3),
                              backend=DiskBackend(self.root))

    def assert_refused_then_reboots(self, service, data):
        extra = generate_chemical_repository(14, seed=11)[10:]
        response = service.dispatch(
            "POST", "/v1/patterns/maintain",
            {"add": [graph_to_dict(g) for g in extra]})
        self.assertEqual(409, response.status)
        backend = service.backend
        watermark = int(load_manifest(backend.manifest_path)["wal_seq"])
        pending, _ = backend.wal.scan(watermark, repair=False)
        self.assertEqual([], pending)
        expected = pattern_bytes(service)
        service.close()
        rebooted = self.boot(data)
        self.assertEqual(0, rebooted.recovery.pending_batches)
        self.assertEqual(expected, pattern_bytes(rebooted))
        rebooted.close()

    def test_network_service(self):
        network = generate_network(NetworkConfig(nodes=60), seed=5)
        self.assert_refused_then_reboots(self.boot(network), network)

    def build_with_names(self, names):
        service = self.boot(make_repo())
        repository = []
        for graph, name in zip(make_repo(), names):
            item = graph_to_dict(graph)
            item["name"] = name
            repository.append(item)
        response = service.dispatch("POST", "/v1/build",
                                    {"repository": repository})
        self.assertEqual(200, response.status)
        return service

    def test_duplicate_graph_names(self):
        names = ["mol0"] + [f"mol{i}" for i in range(9)]
        self.assert_refused_then_reboots(self.build_with_names(names),
                                         make_repo())

    def test_unnamed_graphs(self):
        self.assert_refused_then_reboots(
            self.build_with_names([""] * 10), make_repo())


class TestFailedBatchRollsBack(unittest.TestCase):
    """A batch the engine fails on reaches the client as an error and
    is rolled back: no later batch publishes its changes, and no
    reboot replays it."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = self._tmp.name

    def failing_once(self, method):
        """Patch ``Midas.<method>`` to raise on its next call only."""
        original = getattr(Midas, method)
        calls = []

        def faulty(engine, *args, **kwargs):
            calls.append(method)
            if len(calls) == 1:
                raise RuntimeError("injected engine fault")
            return original(engine, *args, **kwargs)

        return mock.patch.object(Midas, method, faulty)

    def test_memory_backend_drops_the_engine_that_saw_it(self):
        service = PatternService(make_repo(),
                                 PipelineConfig(budget=BUDGET, seed=3),
                                 backend=MemoryBackend())
        with service.engine_lock:
            service.ensure_midas()
        failed = make_batch()
        with self.failing_once("_rebuild_summaries"):
            with self.assertRaises(RuntimeError):
                service.apply_maintenance(failed)
        self.assertEqual("snap-0",
                         service.snapshots.current().snapshot_id)
        later = generate_chemical_repository(16, seed=11)[14:]
        service.apply_maintenance(UpdateBatch(added=later))
        names = {g.name for g in service.snapshots.current().repository}
        self.assertEqual(set(), names & {g.name for g in failed.added})
        self.assertTrue(set(failed.removed) <= names)
        service.close()

    def test_reboot_under_a_persistent_fault_serves_the_pre_batch(self):
        service = disk_service(self.root)
        expected = pattern_bytes(service)
        with mock.patch.object(Midas, "apply_batch",
                               side_effect=RuntimeError("injected")):
            with self.assertRaises(RuntimeError):
                service.apply_maintenance(make_batch())
            service.close()
            rebooted = disk_service(self.root)
        self.assertEqual(0, rebooted.recovery.pending_batches)
        self.assertEqual(expected, pattern_bytes(rebooted))
        rebooted.close()

    def test_reboot_after_a_one_shot_fault_does_not_replay_it(self):
        service = disk_service(self.root)
        expected = pattern_bytes(service)
        with self.failing_once("apply_batch"):
            with self.assertRaises(RuntimeError):
                service.apply_maintenance(make_batch())
        service.close()
        rebooted = disk_service(self.root)
        self.assertEqual(0, rebooted.recovery.pending_batches)
        self.assertEqual(expected, pattern_bytes(rebooted))
        rebooted.close()


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
        # still references (the first holds only removed members);
        # the committed engine describes a repository that lost a
        # graph, so the store drops it, and says so
        plan = FaultPlan(
            [FaultSpec(segments_mod.SITE_READ, "short_read",
                       keys=[names[-1]])], seed=13)
        with chaos(plan):
            with self.assertWarnsRegex(UserWarning,
                                       "builds a new engine"):
                recovered = PatternService(
                    make_repo(), PipelineConfig(budget=BUDGET, seed=3),
                    backend=DiskBackend(root))
        report = recovered.recovery
        self.assertTrue(report.degraded)
        self.assertEqual([names[-1]], report.quarantined_segments)
        self.assertTrue(report.dropped_graphs)
        self.assertEqual(self.post, pattern_bytes(recovered))
        self.assertIsNone(recovered._midas)
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


# --------------------------------------------------- engine checkpoints


class TestEngineCheckpoints(unittest.TestCase):
    """A durable service keeps one engine and recovers it from the
    checkpoint each commit carries."""

    @classmethod
    def setUpClass(cls):
        cls.batches = checkpoint_stream()
        real_fsync = os.fsync
        counted = []

        def counting(fd):
            counted[-1] += 1
            return real_fsync(fd)

        with tempfile.TemporaryDirectory() as tmp:
            disk = disk_service(tmp)
            cls.panels = [pattern_bytes(disk)]
            cls.states = [None]
            with mock.patch.object(os, "fsync", counting):
                for batch in cls.batches:
                    counted.append(0)
                    disk.apply_maintenance(batch)
                    cls.panels.append(pattern_bytes(disk))
                    cls.states.append(disk._midas.state())
            cls.fsyncs = counted
            disk.close()
        memory = PatternService(make_repo(),
                                PipelineConfig(budget=BUDGET, seed=3),
                                backend=MemoryBackend())
        cls.memory_panels = [pattern_bytes(memory)]
        for batch in cls.batches:
            memory.apply_maintenance(batch)
            cls.memory_panels.append(pattern_bytes(memory))
        memory.close()

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = self._tmp.name

    def apply(self, service, batches):
        for batch in batches:
            service.apply_maintenance(batch)

    def test_the_stream_changes_the_panel(self):
        self.assertGreaterEqual(len(self.batches), 48)
        self.assertGreater(len(set(self.panels)), len(self.batches) // 4)

    def test_disk_serves_the_memory_panels_after_every_batch(self):
        for index, expected in enumerate(self.memory_panels):
            with self.subTest(batches=index):
                self.assertEqual(expected, self.panels[index])

    def test_a_mid_stream_batch_makes_two_fewer_fsyncs(self):
        # every batch adds three new records; only a batch whose
        # sequence is a multiple of WAL_CUT_EVERY cuts the log (file +
        # directory), and the checkpoint rides in the manifest
        cuts = [index for index in range(len(self.fsyncs))
                if (index + 1) % WAL_CUT_EVERY == 0]
        self.assertEqual(3, len(cuts))
        cut = self.fsyncs[cuts[0]]
        for index, count in enumerate(self.fsyncs):
            with self.subTest(batch=index + 1):
                self.assertEqual(cut if index in cuts else cut - 2,
                                 count)

    def test_every_crash_point_recovers_mid_stream(self):
        for after in (1, 5, 15, 16, 17):
            for site, kind, expected in CRASH_MATRIX:
                with self.subTest(after=after, site=site, kind=kind):
                    self.crash_cell(after, site, kind, expected)

    def crash_cell(self, after, site, kind, expected):
        """``after`` committed batches, then (site, kind) fires on the
        next: recovery restores the engine (no selection runs) and
        lands on the pre- or post-batch panel, and the batch after
        it on the never-crashed run's panel."""
        with tempfile.TemporaryDirectory() as root:
            service = disk_service(root)
            self.apply(service, self.batches[:after])
            plan = FaultPlan([FaultSpec(site, kind, at_calls=[1])],
                             seed=13)
            with chaos(plan):
                with self.assertRaises((SimulatedCrash,
                                        StoreWriteError)):
                    service.apply_maintenance(self.batches[after])
            self.assertEqual(1, len(plan.fired))
            service.close()
            mismatches = engine_mismatches()
            counting, calls = initializations()
            with counting, warnings.catch_warnings():
                warnings.simplefilter("ignore")  # torn WAL tails
                recovered = disk_service(root)
            self.assertEqual([], calls)
            landed = after + (expected == "post")
            self.assertEqual(self.panels[landed],
                             pattern_bytes(recovered))
            self.assertEqual(mismatches, engine_mismatches())
            self.apply(recovered, self.batches[landed:landed + 1])
            self.assertEqual(self.panels[landed + 1],
                             pattern_bytes(recovered))
            recovered.close()

    def test_reboot_restores_the_engine_without_initializing(self):
        service = disk_service(self.root)
        count = WAL_CUT_EVERY + 2
        self.apply(service, self.batches[:count])
        service.close()
        document = manifest_of(self.root)
        self.assertNotIn("epoch", document)
        self.assertEqual(count, document["engine"]["batch_index"])
        # the log was cut at the last multiple of WAL_CUT_EVERY
        logged, _ = WriteAheadLog(
            os.path.join(self.root, "wal.log")).scan(0, repair=False)
        self.assertEqual([WAL_CUT_EVERY + 1, WAL_CUT_EVERY + 2],
                         [seq for seq, _ in logged])
        with mock.patch.object(Midas, "_initialize",
                               side_effect=AssertionError("selected")):
            recovered = disk_service(self.root)
        self.assertEqual(0, recovered.recovery.replayed_batches)
        self.assertEqual(self.panels[count], pattern_bytes(recovered))
        self.assertEqual(self.states[count], recovered._midas.state())
        for index in range(count, len(self.batches)):
            recovered.apply_maintenance(self.batches[index])
            with self.subTest(batches=index + 1):
                self.assertEqual(self.panels[index + 1],
                                 pattern_bytes(recovered))
                self.assertEqual(self.states[index + 1],
                                 recovered._midas.state())
        recovered.close()

    def test_a_commit_without_a_live_engine_carries_none(self):
        service = disk_service(self.root)
        self.assertNotIn("engine", manifest_of(self.root))  # a build
        self.apply(service, self.batches[:1])
        self.assertIn("engine", manifest_of(self.root))
        with mock.patch.object(Midas, "apply_batch",
                               side_effect=RuntimeError("injected")):
            with self.assertRaises(RuntimeError):
                service.apply_maintenance(self.batches[1])
        self.assertNotIn("engine", manifest_of(self.root))
        self.apply(service, self.batches[1:2])
        self.assertIn("engine", manifest_of(self.root))
        service.publish_build(make_repo(), service.snapshots.current()
                              .patterns, "catapult")
        self.assertNotIn("engine", manifest_of(self.root))
        service.close()

    def test_a_settings_mismatch_serves_the_committed_blob(self):
        service = disk_service(self.root)
        self.apply(service, self.batches[:3])
        service.close()
        others = {
            "seed": PipelineConfig(budget=BUDGET, seed=4),
            "budget": PipelineConfig(
                budget=PatternBudget(5, min_size=4, max_size=7),
                seed=3),
            "drift_threshold": PipelineConfig(
                budget=BUDGET, seed=3,
                options={"drift_threshold": 0.5}),
        }
        for name, config in others.items():
            with self.subTest(setting=name):
                mismatches = engine_mismatches()
                with self.assertWarnsRegex(UserWarning,
                                           "builds a new engine"):
                    recovered = PatternService(
                        make_repo(), config,
                        backend=DiskBackend(self.root))
                self.assertEqual(mismatches + 1, engine_mismatches())
                self.assertIsNone(recovered._midas)
                # the panel lists the service's own budget
                self.assertEqual(
                    json.loads(self.panels[3])["patterns"],
                    json.loads(pattern_bytes(recovered))["patterns"])
                recovered.close()
        # workers and tracing change no result: the engine restores
        recovered = PatternService(
            make_repo(), PipelineConfig(budget=BUDGET, seed=3,
                                        workers=1, trace=True),
            backend=DiskBackend(self.root))
        self.assertIsNotNone(recovered._midas)
        recovered.close()
        # the next batch builds a new engine at the committed state
        with self.assertWarns(UserWarning):
            recovered = PatternService(
                make_repo(), others["seed"],
                backend=DiskBackend(self.root))
        counting, calls = initializations()
        with counting:
            recovered.apply_maintenance(self.batches[3])
        self.assertEqual(1, len(calls))
        recovered.close()
        document = manifest_of(self.root)
        self.assertEqual(4, document["wal_seq"])
        self.assertEqual(4, document["engine"]["settings"]["seed"])
        self.assertEqual(1, document["engine"]["batch_index"])

    def test_an_epoch_only_manifest_serves_the_committed_blob(self):
        # stores written before engine checkpoints pin an epoch base
        # instead; they load with no engine, and the next batch
        # builds one
        service = disk_service(self.root)
        self.apply(service, self.batches[:2])
        service.close()
        path = os.path.join(self.root, "manifest.json")
        document = load_manifest(path)
        del document["engine"]
        document["epoch"] = {"wal_seq": 0,
                             "repository": document["repository"]}
        write_manifest(path, document)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovered = disk_service(self.root)
        self.assertIsNone(recovered._midas)
        self.assertEqual(self.panels[2], pattern_bytes(recovered))
        counting, calls = initializations()
        with counting:
            recovered.apply_maintenance(self.batches[2])
        self.assertEqual(1, len(calls))
        recovered.close()
        document = load_manifest(path)
        self.assertEqual(3, document["wal_seq"])
        self.assertNotIn("epoch", document)
        self.assertEqual(1, document["engine"]["batch_index"])


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
