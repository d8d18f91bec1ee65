"""The three traffic mixes and the data each one is generated from.

Every workload runs the same way: set the server up a few times on
fresh copies of the generated data (timing each), keep the last one,
drive it for the measured window, then check its outputs.  The seed
given to the benchmark picks the data, the query pool and the batch
stream; nothing else varies between runs.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from checks import replay_memory_service, tattoo_panel
from harness import Connection, Op, Server, counter_delta, dir_bytes

from repro.datasets import (
    EvolvingRepository,
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
    generate_network_workload,
    generate_update_stream,
    generate_workload,
)
from repro.graph.io import graph_from_dict, graph_to_dict, read_lg, write_lg
from repro.store.format import encode_graph_record

#: Graphs each maintenance batch adds, and removes.
BATCH_SIZE = 5

#: Sampled queries each session script runs after its panel query.
SAMPLED_PER_SCRIPT = 3

#: Work counters that must repeat exactly when the same requests
#: reach a fresh server one at a time.
EXACT_PREFIXES = ("matching.feasibility", "matching.recursive",
                  "matching.candidates", "matching.hits",
                  "matching.misses", "matching.evictions",
                  "matching.vf2", "matching.canonical", "matching.pairs",
                  "perf.", "patterns.")

#: Sizes per scale; "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"network": NetworkConfig(), "mixed_graphs": 60,
             "durable_graphs": 30, "query_pool": 400, "kill_every": 8},
    "tiny": {"network": NetworkConfig(nodes=150, cliques=3, petals=2,
                                      flowers=2),
             "mixed_graphs": 14, "durable_graphs": 12, "query_pool": 20,
             "kill_every": 3},
}


class Phase:
    """What one set-up-and-measure pass produced."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.setup_counters: List[Dict[str, float]] = []
        self.ops: List[Op] = []
        self.start = 0.0
        self.end = 0.0
        self.rss_mb = 0.0
        self.counters: Dict[str, float] = {}
        self.recoveries: List[float] = []
        self.replayed = 0
        self.late: List[float] = []
        #: Store directory size when the window opens and closes.
        self.store_bytes: List[int] = []
        self.segments: List[Dict[str, float]] = []
        self.space_amp = 0.0
        self.spans: List[Path] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.properties: Dict[str, tuple] = {}
        self._lock = threading.Lock()

    def record(self, op: Op) -> Op:
        """Count one request and check its status."""
        with self._lock:
            self.attempted += 1
        if op.status != 200:
            self.failures.append(
                f"{op.route} returned {op.status}: "
                f"{json.dumps(op.body.get('error', op.body))[:200]}")
        return op

    def fail(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
        self.failures.append(message)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Workload:
    """Shared set-up, session script and checks."""

    name = ""
    #: Tail percentile.  At a default run's sample count at least
    #: ten samples lie beyond it; the highest such percentile moves
    #: too much between runs on a 2-CPU machine whose speed swings.
    tail_q = 0.9
    #: Number of server set-ups per phase; setup_s is their median.
    setups = 3
    writes = False
    durable = False
    #: The in-process control panel, computed once per invocation.
    expected = None

    def __init__(self, seed: int, workdir: Path, scale: str,
                 fault: Optional[str]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes = SIZES[scale]
        self.fault = fault
        self.data_path = workdir / "data.lg"
        self.generate()

    # -- data ------------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def stream_batches(self, initial, count: int,
                       drift_after: int) -> List[dict]:
        """A steady-size batch stream (5 in, 5 out) whose additions
        drift from ``drift_after`` on, as request bodies."""
        repository = EvolvingRepository(initial)
        bodies = []
        for batch in generate_update_stream(
                repository, count, BATCH_SIZE, seed=self.seed + 1,
                removal_fraction=1.0, drift_after=drift_after):
            # applied as generated, so later batches can remove
            # graphs earlier ones added and the size stays steady
            repository.apply(batch)
            bodies.append({"add": [graph_to_dict(graph)
                                   for graph in batch.added],
                           "remove": list(batch.removed)})
        return bodies

    # -- server set-up ---------------------------------------------------
    def boot(self, phase: Phase, index: int,
             spans: Optional[Path]) -> Server:
        """Start one server and, for write workloads, apply the first
        (warm-up) batch; both count towards setup_s."""
        directory = self.workdir / f"{'traced' if spans else 'plain'}-{index}"
        directory.mkdir()
        store = directory / "store" if self.writes and self.durable \
            else None
        server = Server(self.data_path, directory, store=store,
                        spans=spans)
        started = time.perf_counter()
        try:
            server.start()
            conn = Connection(server.port)
            if self.writes:
                op = phase.record(conn.call(
                    "maintain", "maintain", "POST",
                    "/v1/patterns/maintain", self.batches[0]))
                self.check_report(phase, op)
            phase.setups.append(time.perf_counter() - started)
            metrics = conn.call("metrics", "metrics", "GET",
                                "/v1/metrics")
            phase.setup_counters.append(counter_delta({}, metrics.body))
            conn.close()
        except BaseException:
            server.kill()
            raise
        return server

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        setups = 1 if traced else self.setups
        server = None
        for index in range(setups):
            if server is not None:
                server.stop()
            spans = self.workdir / f"spans-{index}.json" \
                if traced else None
            if spans is not None:
                phase.spans.append(spans)
            server = self.boot(phase, index, spans)
        assert server is not None
        try:
            self.drive(phase, server, seconds)
        finally:
            server.stop()
        phase.rss_mb = max(phase.rss_mb, server.peak_rss_mb)
        self.check_counters(phase)
        return phase

    def drive(self, phase: Phase, server: Server, seconds: float) -> None:
        raise NotImplementedError

    # -- session script --------------------------------------------------
    def session_script(self, phase: Phase, conn: Connection,
                       script: int, queries, deadline: float) -> bool:
        """One user's script; False once the deadline has passed."""
        def call(kind, route, method, path, body=None):
            if time.perf_counter() >= deadline:
                return None
            op = phase.record(conn.call(kind, route, method, path, body))
            phase.ops.append(op)
            return op

        op = call("interact", "session_create", "POST", "/v1/sessions",
                  {})
        if op is None:
            return False
        session = op.body["session"]
        steps = [
            ("interact", "session_actions", "POST",
             f"/v1/sessions/{session}/actions",
             {"actions": [{"op": "add_pattern",
                           "index": script % self.panel_size}]}),
            ("interact", "suggest", "POST", "/v1/suggest",
             {"session": session, "node": 0, "answerable_only": True}),
            ("query", "query_panel", "POST", "/v1/query",
             {"session": session}),
        ]
        for _ in range(SAMPLED_PER_SCRIPT):
            steps.append(("query", "query_sampled", "POST", "/v1/query",
                          {"query": next(queries)}))
        steps.append(("interact", "session_delete", "DELETE",
                      f"/v1/sessions/{session}", None))
        for step in steps:
            op = call(*step)
            if op is None:
                return False
            if op.route == "query_sampled" and op.status == 200 \
                    and op.body.get("match_count", 0) < 1:
                phase.fail(f"sampled query matched nothing on "
                           f"{op.body.get('snapshot')}")
        return True

    def reader(self, phase: Phase, port: int, first_script: int,
               stride: int, queries, deadline: float) -> None:
        """Run session scripts back to back until the deadline;
        readers share one cycle over the query pool."""
        conn = Connection(port)
        try:
            for script in itertools.count(first_script, stride):
                if not self.session_script(phase, conn, script, queries,
                                           deadline):
                    break
        except (OSError, http.client.HTTPException) as error:
            phase.fail(f"reader connection failed: {error!r}")
        finally:
            conn.close()

    # -- checks ----------------------------------------------------------
    def check_report(self, phase: Phase, op: Op) -> None:
        if op.status != 200:
            return
        report = op.body.get("report", {})
        if report.get("quarantined") or op.body.get("degraded"):
            phase.fail(f"maintenance batch {report.get('batch')} was "
                       f"quarantined or degraded")

    def check_panel(self, phase: Phase, served: Op, expected: list,
                    what: str) -> None:
        """Served panel must equal the expected one byte for byte."""
        if self.fault == "wrong-panel":
            expected = expected[:-1]
        if served.status != 200:
            return
        got = json.dumps(served.body.get("patterns"), sort_keys=True)
        want = json.dumps(expected, sort_keys=True)
        if got != want:
            phase.fail(f"served panel differs from {what}")

    def check_counters(self, phase: Phase) -> None:
        """Identical set-ups must do identical work."""
        first = phase.setup_counters[0]
        exact = [key for key in first if key.startswith(EXACT_PREFIXES)]
        varying = sorted(key for key in exact
                         if any(other.get(key) != first.get(key)
                                for other in phase.setup_counters[1:]))
        if varying:
            phase.fail("set-up work counts differ between identical "
                       "servers: " + ", ".join(varying))
        phase.properties["exact_setup_counters"] = (
            len(exact) - len(varying), "count")

    def check_repeat(self, first: Phase, second: Phase) -> None:
        """Two connections share the server's unlocked metrics
        registry, which can lose updates, so the measured window's
        counts are reported but not required to repeat."""
        first.properties["exact_stream_segments"] = (0, "count")

    def panel(self, conn: Connection, phase: Phase) -> Op:
        return phase.record(conn.call("interact", "patterns", "GET",
                                      "/v1/patterns"))


class NetExplore(Workload):
    """Read-only sessions over one TATTOO-built network.

    Transport, middleware and matching on one large target do nearly
    all the work; TATTOO runs only at set-up and MIDAS and the store
    stay idle, so maintenance and store changes must not move it.
    """

    name = "net-explore"
    tail_q = 0.9
    readers = 2

    def generate(self) -> None:
        network = generate_network(self.sizes["network"], seed=self.seed)
        write_lg([network], self.data_path)
        self.graph = read_lg(self.data_path)[0]
        self.queries = [graph_to_dict(query) for query in
                        generate_network_workload(
                            self.graph, self.sizes["query_pool"],
                            seed=self.seed)]

    def drive(self, phase: Phase, server: Server, seconds: float) -> None:
        conn = Connection(server.port)
        panel = self.panel(conn, phase)
        self.panel_size = len(panel.body["patterns"])
        before = conn.call("metrics", "metrics", "GET", "/v1/metrics")
        conn.close()
        queries = itertools.cycle(self.queries)
        phase.start = time.perf_counter()
        deadline = phase.start + seconds
        threads = [threading.Thread(
            target=self.reader,
            args=(phase, server.port, index, self.readers, queries,
                  deadline))
            for index in range(self.readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.end = time.perf_counter()
        conn = Connection(server.port)
        after = conn.call("metrics", "metrics", "GET", "/v1/metrics")
        phase.counters = counter_delta(before.body, after.body)
        conn.close()
        if self.expected is None:
            self.expected = tattoo_panel(self.graph)
        self.check_panel(phase, panel, self.expected,
                         "run_tattoo on the same network")
        phase.properties["network_nodes"] = (self.graph.order(), "count")
        phase.properties["network_edges"] = (self.graph.size(), "count")


class RepoMixed(Workload):
    """One reading user beside an open-loop batch stream, in memory.

    Reads and writes share the server's interpreter lock, the snapshot
    swap and the match cache, so a change that speeds one at the
    other's cost shows here.  The memory backend keeps the MIDAS
    engine across batches, so maintenance runs incrementally.
    """

    name = "repo-mixed"
    tail_q = 0.9
    writes = True
    #: Batches per second on the fixed open-loop schedule: below the
    #: rate the service sustains with the reader running, even while
    #: major batches (about 1 s each at this size) run.
    rate = 0.5
    batches = None

    def generate(self) -> None:
        repository = generate_chemical_repository(
            self.sizes["mixed_graphs"], seed=self.seed)
        write_lg(repository, self.data_path)
        self.initial = read_lg(self.data_path)

    def plan(self, seconds: float) -> None:
        """The warm-up batch plus one batch per scheduled slot."""
        count = 1 + int(seconds * self.rate)
        self.batches = self.stream_batches(self.initial, count,
                                           count // 2)
        removed = {name for batch in self.batches
                   for name in batch["remove"]}
        stable = [graph for graph in self.initial
                  if graph.name not in removed]
        self.queries = [graph_to_dict(query) for query in
                        generate_workload(stable,
                                          self.sizes["query_pool"],
                                          seed=self.seed)]

    def drive(self, phase: Phase, server: Server, seconds: float) -> None:
        conn = Connection(server.port)
        panel = self.panel(conn, phase)
        self.panel_size = len(panel.body["patterns"])
        before = conn.call("metrics", "metrics", "GET", "/v1/metrics")
        conn.close()
        phase.start = time.perf_counter()
        deadline = phase.start + seconds
        reader = threading.Thread(
            target=self.reader,
            args=(phase, server.port, 0, 1, itertools.cycle(self.queries),
                  deadline))
        reader.start()
        writer = Connection(server.port)
        for slot, batch in enumerate(self.batches[1:]):
            due = phase.start + slot / self.rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            phase.late.append(max(0.0, time.perf_counter() - due))
            op = phase.record(writer.call(
                "maintain", "maintain", "POST", "/v1/patterns/maintain",
                batch, due=due))
            phase.ops.append(op)
            self.check_report(phase, op)
        reader.join()
        phase.end = time.perf_counter()
        after = writer.call("metrics", "metrics", "GET", "/v1/metrics")
        phase.counters = counter_delta(before.body, after.body)
        final = self.panel(writer, phase)
        writer.close()
        if self.expected is None:
            self.expected = replay_memory_service(self.data_path,
                                                  self.batches)
        self.check_panel(phase, final, self.expected,
                         "a memory-backed PatternService fed the same "
                         "stream")
        phase.properties["repository_graphs"] = (len(self.initial),
                                                 "count")
        phase.properties["schedule_rate"] = (self.rate, "batches/s")

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        if self.batches is None:
            self.plan(seconds)
        return super().run_phase(seconds, traced)


class RepoDurable(Workload):
    """A closed-loop batch stream on a durable store, with crashes.

    WAL, segment and manifest fsyncs plus the MIDAS engine rebuild on
    every batch do nearly all the work, and no queries run.  Crashes
    sit inside the stream, so a change that trades batch latency for
    recovery cost, or for the first batch after a restart, shows on
    the same clock.
    """

    name = "repo-durable"
    tail_q = 0.5
    writes = True
    durable = True
    #: Batches planned; the measured window ends the stream earlier.
    planned = 400
    #: Additions drift from this batch on, about halfway through a
    #: default run.
    drift_after = 12

    def generate(self) -> None:
        repository = generate_chemical_repository(
            self.sizes["durable_graphs"], seed=self.seed)
        write_lg(repository, self.data_path)
        self.initial = read_lg(self.data_path)
        self.batches = self.stream_batches(self.initial, self.planned,
                                           self.drift_after)

    def drive(self, phase: Phase, server: Server, seconds: float) -> None:
        live = {graph.name: graph for graph in self.initial}
        self.apply_live(live, self.batches[0])
        store = server.store
        assert store is not None
        conn = Connection(server.port)
        counters_before = conn.call("metrics", "metrics", "GET",
                                    "/v1/metrics").body
        phase.store_bytes.append(dir_bytes(store))
        phase.start = time.perf_counter()
        deadline = phase.start + seconds
        incarnation = 0
        applied = 0
        for batch in self.batches[1:]:
            if time.perf_counter() >= deadline:
                break
            op = phase.record(conn.call(
                "maintain", "maintain", "POST", "/v1/patterns/maintain",
                batch))
            phase.ops.append(op)
            self.check_report(phase, op)
            self.apply_live(live, batch)
            applied += 1
            if applied % self.sizes["kill_every"] or \
                    time.perf_counter() >= deadline:
                continue
            before_kill = self.panel(conn, phase)
            self.add_counters(phase, counters_before, conn.call(
                "metrics", "metrics", "GET", "/v1/metrics").body,
                segment=True)
            conn.close()
            self.crash(server, phase, incarnation)
            incarnation += 1
            if server.spans is not None:
                server.spans = server.spans.with_name(
                    f"spans-0-{incarnation}.json")
                phase.spans.append(server.spans)
            if self.fault == "damage-store":
                damage(store)
            respawned = time.perf_counter()
            server.start()
            conn = Connection(server.port, incarnation)
            recovered = self.panel(conn, phase)
            phase.recoveries.append(time.perf_counter() - respawned)
            phase.replayed += server.replayed_batches()
            self.check_panel(phase, recovered,
                             before_kill.body.get("patterns"),
                             "the panel served before the kill")
            counters_before = conn.call("metrics", "metrics", "GET",
                                        "/v1/metrics").body
        phase.end = time.perf_counter()
        self.add_counters(phase, counters_before, conn.call(
            "metrics", "metrics", "GET", "/v1/metrics").body)
        conn.close()
        phase.store_bytes.append(dir_bytes(store))
        encoded = sum(len(encode_graph_record(graph))
                      for graph in live.values())
        phase.space_amp = phase.store_bytes[-1] / encoded
        phase.properties["repository_graphs"] = (len(live), "count")
        phase.properties["restarts"] = (len(phase.recoveries), "count")

    @staticmethod
    def apply_live(live: Dict[str, object], batch: dict) -> None:
        for name in batch["remove"]:
            del live[name]
        for item in batch["add"]:
            graph = graph_from_dict(item)
            live[graph.name] = graph

    @staticmethod
    def add_counters(phase: Phase, before: dict, after: dict,
                     segment: bool = False) -> None:
        """Sum one server process's counter deltas into the phase;
        a ``segment`` ran exactly ``kill_every`` batches."""
        delta = counter_delta(before, after)
        for key, value in delta.items():
            phase.counters[key] = phase.counters.get(key, 0) + value
        if segment:
            phase.segments.append({key: value
                                   for key, value in delta.items()
                                   if key.startswith(EXACT_PREFIXES)})

    def check_repeat(self, first: Phase, second: Phase) -> None:
        """Stream segments both passes completed did the same work:
        one connection, so no counter update can be lost."""
        for index, (one, two) in enumerate(zip(first.segments,
                                               second.segments)):
            varying = sorted(key for key in set(one) | set(two)
                             if one.get(key) != two.get(key))
            if varying:
                first.fail(f"stream segment {index} work counts "
                            f"differ between passes: "
                            + ", ".join(varying))
        first.properties["exact_stream_segments"] = (
            min(len(first.segments), len(second.segments)), "count")

    @staticmethod
    def crash(server: Server, phase: Phase, incarnation: int) -> None:
        """SIGKILL between requests (a traced server first writes
        out its spans)."""
        if server.spans is not None:
            server.signal(signal.SIGUSR1)
            give_up = time.perf_counter() + 30
            while not server.spans.exists() \
                    and time.perf_counter() < give_up:
                time.sleep(0.01)
        server.kill()
        phase.rss_mb = max(phase.rss_mb, server.peak_rss_mb)


def damage(store: Path) -> None:
    """Flip bytes in the committed pattern blob."""
    for blob in sorted((store / "patterns").glob("patterns-*.bin")):
        data = bytearray(blob.read_bytes())
        for index in range(0, len(data), 7):
            data[index] ^= 0xFF
        blob.write_bytes(bytes(data))


WORKLOADS = {cls.name: cls for cls in (NetExplore, RepoMixed,
                                      RepoDurable)}
