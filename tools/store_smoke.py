#!/usr/bin/env python
"""Store-smoke: ``kill -9`` a durable serve mid-maintenance, then
prove bitwise recovery.

``make store-smoke`` (and CI) run this script, which for each crash
scenario and each of ``REPRO_WORKERS=1`` and ``=4``:

1. writes a seeded ``.lg`` repository and starts a real
   ``repro-vqi serve DATA --store DIR`` child process with a scripted
   disk fault armed (via :mod:`repro.resilience.chaos`) and
   ``REPRO_STORE_CRASH_HARD=1``, so the fault's crash point is a
   genuine ``SIGKILL`` — no atexit hooks, no flushes, no unwinding;
2. posts the scenario's committed batches, checking the served
   ``/v1/patterns`` panel after each, then posts one more and watches
   the child die with signal 9 mid-request;
3. reboots a clean serve on the same store directory and asserts the
   recovered panel is **bitwise equal** to the scenario's expected
   state — the pre-batch panel when the crash landed before the WAL
   record was durable, the post-batch panel when it landed after —
   and identical across both worker counts;
4. posts the batch that follows the recovered state and asserts the
   panel and the batch report equal the ones a run that never
   crashed serves: after a commit, recovery restores the MIDAS
   engine checkpointed in the manifest (and replays any WAL batch
   past the watermark through it), so the batch continues that
   engine's numbering instead of starting a new one;
5. stops the recovered server with SIGTERM, asserts the graceful
   shutdown path exits 0, and reads its banner's replay count.

The expected panels come from an in-process control service driven
with the same data, seed, and batches.  Any divergence fails the run
with a nonzero exit code.

Usage::

    PYTHONPATH=src python tools/store_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from http.client import HTTPException
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)

WORKER_COUNTS = ("1", "4")

#: (name, chaos site, fault kind, 1-based site call, batches
#: committed before the fatal one, expected state, WAL batches the
#: recovery replays).  ``wal-torn`` dies half-way through the WAL
#: append — the batch never became durable, so recovery must serve
#: the pre-batch panel.  ``commit-crash`` dies after the maintain's
#: manifest rename (call 1 is the initial build's commit) — the batch
#: is fully durable, so recovery must serve the post-batch panel.
#: ``restart`` commits three batches on one engine and dies after the
#: fourth's manifest rename, so recovery restores the engine that
#: applied four.  ``wal-replay`` dies once the fourth batch's WAL
#: record is durable, so recovery restores the engine of three and
#: replays the fourth through it.
SCENARIOS = (
    ("wal-torn", "store.wal.append", "torn_write", 1, 0, "pre", 0),
    ("commit-crash", "store.manifest.commit",
     "crash_after_n_records", 2, 0, "post", 0),
    ("restart", "store.manifest.commit",
     "crash_after_n_records", 5, 3, "post", 0),
    ("wal-replay", "store.wal.append",
     "crash_after_n_records", 4, 3, "post", 1),
)

#: Batches in the stream: the longest scenario's committed and fatal
#: batches, plus the one posted after its recovery.
STREAM_BATCHES = 5

#: Seconds to wait for a child server to answer /v1/health.
READY_TIMEOUT_S = 120.0

#: The child process: arm the scripted fault (if any), then run the
#: real CLI serve loop.
CHILD_CODE = r"""
import os, sys
from repro.resilience.chaos import FaultPlan, FaultSpec, install
site = os.environ.get("SMOKE_SITE")
if site:
    install(FaultPlan([FaultSpec(site, os.environ["SMOKE_KIND"],
                                 at_calls=[int(os.environ["SMOKE_CALL"])])],
                      seed=13))
from repro.cli import main
sys.exit(main(["serve", os.environ["SMOKE_DATA"],
               "--store", os.environ["SMOKE_STORE"],
               "--port", os.environ["SMOKE_PORT"]]))
"""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def launch(data: str, store: str, workers: str,
           fault: Optional[Tuple[str, str, int]] = None
           ) -> Tuple[subprocess.Popen, int]:
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_WORKERS"] = workers
    env["REPRO_STORE_CRASH_HARD"] = "1"
    env["SMOKE_DATA"] = data
    env["SMOKE_STORE"] = store
    env["SMOKE_PORT"] = str(port)
    env.pop("SMOKE_SITE", None)
    if fault is not None:
        env["SMOKE_SITE"] = fault[0]
        env["SMOKE_KIND"] = fault[1]
        env["SMOKE_CALL"] = str(fault[2])
    proc = subprocess.Popen([sys.executable, "-c", CHILD_CODE],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    return proc, port


def http(method: str, port: int, path: str,
         body: Optional[dict] = None) -> Tuple[int, dict]:
    payload = json.dumps(body).encode("utf-8") \
        if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=payload,
        method=method, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def wait_ready(proc: subprocess.Popen, port: int) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise RuntimeError(
                f"serve child exited early ({proc.returncode}):\n"
                f"{err.decode(errors='replace')}")
        try:
            status, _ = http("GET", port, "/v1/health")
            if status == 200:
                return
        except (OSError, HTTPException, urllib.error.URLError):
            time.sleep(0.1)
    raise RuntimeError("serve child never became healthy")


def canonical_panel(port: int) -> bytes:
    from repro.service import strip_volatile, wire
    status, body = http("GET", port, "/v1/patterns")
    assert status == 200, f"/v1/patterns returned {status}"
    return wire.dumps(strip_volatile(body))


def batch_stream(data_path: str) -> List[dict]:
    """The maintenance stream as request bodies: four molecules in
    and two founding members out, then batches whose additions
    drift (the fourth and fifth change the panel)."""
    from repro.datasets import (
        EvolvingRepository,
        UpdateBatch,
        generate_chemical_repository,
        generate_update_stream,
    )
    from repro.graph.io import graph_to_dict, read_lg
    first = UpdateBatch(
        added=generate_chemical_repository(14, seed=11)[10:],
        removed=["mol0", "mol1"])
    repository = EvolvingRepository(read_lg(data_path))
    repository.apply(first)
    batches = [first]
    for batch in generate_update_stream(
            repository, STREAM_BATCHES - 1, 4, seed=4,
            removal_fraction=0.5, drift_after=2):
        repository.apply(batch)
        batches.append(batch)
    return [{"add": [graph_to_dict(g) for g in batch.added],
             "remove": list(batch.removed)} for batch in batches]


def report_bytes(report: dict) -> bytes:
    """A maintenance report without its wall time."""
    return json.dumps({key: value for key, value in report.items()
                       if key != "duration"}, sort_keys=True).encode()


def control_run(data_path: str, stream: List[dict]
                ) -> Tuple[List[bytes], List[bytes]]:
    """The panel after each prefix of ``stream`` and each batch's
    report, from an in-process control service constructed exactly
    like the CLI child's."""
    from repro.core.pipeline import PipelineConfig
    from repro.datasets import UpdateBatch
    from repro.graph.io import graph_from_dict, read_lg
    from repro.patterns.base import PatternBudget
    from repro.service import PatternService, strip_volatile, wire

    service = PatternService(
        read_lg(data_path),
        PipelineConfig(budget=PatternBudget(8, min_size=4,
                                            max_size=8), seed=0))

    def panel() -> bytes:
        reply = service.dispatch("GET", "/v1/patterns")
        assert reply.status == 200
        return wire.dumps(strip_volatile(reply.body))

    panels, reports = [panel()], []
    for payload in stream:
        _, report = service.apply_maintenance(UpdateBatch(
            added=[graph_from_dict(item) for item in payload["add"]],
            removed=list(payload["remove"])))
        panels.append(panel())
        reports.append(report_bytes(
            json.loads(wire.dumps(report.stats))))
    service.close()
    for _, _, _, _, committed, _, _ in SCENARIOS:
        assert panels[committed] != panels[committed + 1], \
            "each scenario's fatal batch must change the panel"
    return panels, reports


def run_scenario(name: str, site: str, kind: str, call: int,
                 committed: int, expected: str, replayed: int,
                 data: str, store_root: str, workers: str,
                 stream: List[dict], controls: List[bytes],
                 reports: List[bytes],
                 failures: List[str]) -> Optional[bytes]:
    store = os.path.join(store_root, f"{name}-w{workers}")
    proc, port = launch(data, store, workers,
                        fault=(site, kind, call))
    wait_ready(proc, port)
    for index in range(committed + 1):
        if canonical_panel(port) != controls[index]:
            failures.append(f"{name} w{workers}: served panel "
                            f"diverged from the control after "
                            f"{index} batch(es)")
        if index < committed:
            http("POST", port, "/v1/patterns/maintain", stream[index])
    try:
        http("POST", port, "/v1/patterns/maintain", stream[committed])
        failures.append(f"{name} w{workers}: maintain survived the "
                        "armed crash point")
    except (OSError, HTTPException, urllib.error.URLError):
        pass  # the child died mid-request, as scripted
    proc.wait(timeout=60)
    if proc.returncode != -signal.SIGKILL:
        failures.append(f"{name} w{workers}: child exited "
                        f"{proc.returncode}, expected SIGKILL")
        return None

    survivor, port = launch(data, store, workers)
    wait_ready(survivor, port)
    recovered = canonical_panel(port)
    landed = committed + (expected == "post")
    if recovered != controls[landed]:
        failures.append(f"{name} w{workers}: recovered panel is not "
                        f"the {expected}-batch control, bitwise")
    _, metrics = http("GET", port, "/v1/metrics")
    if metrics["metrics"]["counters"].get(
            "store.recovery.engine_mismatch"):
        failures.append(f"{name} w{workers}: the committed engine "
                        "did not fit the recovered service")
    _, reply = http("POST", port, "/v1/patterns/maintain",
                    stream[landed])
    if canonical_panel(port) != controls[landed + 1]:
        failures.append(f"{name} w{workers}: the batch after "
                        "recovery served a panel the never-crashed "
                        "control did not")
    if report_bytes(reply["report"]) != reports[landed]:
        failures.append(f"{name} w{workers}: the batch after "
                        "recovery reported what the never-crashed "
                        "control's engine did not")
    survivor.send_signal(signal.SIGTERM)
    try:
        out, _ = survivor.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        survivor.kill()
        failures.append(f"{name} w{workers}: SIGTERM did not stop "
                        "the recovered server")
        return recovered
    if survivor.returncode != 0:
        failures.append(f"{name} w{workers}: graceful shutdown "
                        f"exited {survivor.returncode}")
    banner = re.search(r"^recovered (?:\(\+(\d+) WAL batch\(es\)\) )?"
                       r"\d+ patterns", out.decode(errors="replace"),
                       re.MULTILINE)
    if banner is None or int(banner.group(1) or 0) != replayed:
        failures.append(f"{name} w{workers}: recovery did not replay "
                        f"{replayed} WAL batch(es)")
    return recovered


def main() -> int:
    failures: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.lg")
        from repro.datasets import generate_chemical_repository
        from repro.graph.io import write_lg
        write_lg(generate_chemical_repository(10, seed=7), data)
        stream = batch_stream(data)
        controls, reports = control_run(data, stream)
        for (name, site, kind, call, committed, expected,
             replayed) in SCENARIOS:
            per_worker: Dict[str, Optional[bytes]] = {}
            for workers in WORKER_COUNTS:
                per_worker[workers] = run_scenario(
                    name, site, kind, call, committed, expected,
                    replayed, data, tmp, workers, stream, controls,
                    reports, failures)
                print(f"{name} (workers={workers}): killed at "
                      f"{site}/{kind} after {committed} committed "
                      f"batch(es), recovered {expected}-batch")
            values = set(per_worker.values())
            if len(values) != 1 or None in values:
                failures.append(f"{name}: recovered panels differ "
                                f"between worker counts")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        print(f"store-smoke: {len(failures)} failure(s)")
        return 1
    print(f"store-smoke: {len(SCENARIOS)} kill -9 scenarios "
          f"recovered bitwise across REPRO_WORKERS="
          f"{{{','.join(WORKER_COUNTS)}}}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
