"""Server processes, persistent client connections and statistics.

The server always runs as a child process started from the checkout's
sources, with a fixed pipeline seed and a fixed environment
(:data:`SERVER_ENV`), so the only thing a workload seed changes is the
data files and the requests the server receives.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The server's pipeline seed; the workload seed never reaches it.
PIPELINE_SEED = 0

#: Environment every server process gets on top of the caller's.
#: Serial pipeline stages and a pinned hash seed make the server's
#: work counts repeat exactly from one process to the next.
SERVER_ENV = {"REPRO_WORKERS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}

#: Bound on one server start (build, or recovery) before it counts
#: as failed.
START_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An output check failed; the run must exit non-zero."""


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro-vqi serve`` process over a generated data file.

    ``spans`` switches to the tracing launcher, which records layer
    spans and writes them to that path when the server shuts down.
    """

    def __init__(self, data: Path, workdir: Path,
                 store: Optional[Path] = None,
                 spans: Optional[Path] = None) -> None:
        self.data = data
        self.workdir = workdir
        self.store = store
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.log_path = workdir / "server.log"
        self.peak_rss_mb = 0.0

    def argv(self) -> List[str]:
        serve = ["serve", str(self.data), "--port", str(self.port),
                 "--seed", str(PIPELINE_SEED)]
        if self.store is not None:
            serve += ["--store", str(self.store)]
        if self.spans is None:
            return [sys.executable, "-m", "repro.cli"] + serve
        return [sys.executable, str(HERE / "launcher.py"),
                str(self.spans)] + serve + ["--trace", str(self.spans)]

    def start(self) -> float:
        """Spawn and wait for the first 200 on ``/v1/health``;
        returns the seconds that took."""
        self.port = free_port()
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env.update(SERVER_ENV)
        env["PYTHONPATH"] = str(SRC)
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv(), cwd=ROOT, env=env, stdout=log,
                stderr=subprocess.STDOUT)
        while True:
            if self.proc.poll() is not None:
                raise CheckFailed(
                    f"server exited with {self.proc.returncode} "
                    f"before serving: {self.log_tail()}")
            if time.perf_counter() - started > START_TIMEOUT_S:
                self.kill()
                raise CheckFailed("server did not start in time")
            probe = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=10)
            try:
                probe.request("GET", "/v1/health")
                if probe.getresponse().status == 200:
                    return time.perf_counter() - started
            except OSError:
                time.sleep(0.01)
            finally:
                probe.close()

    def _read_rss(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kb = float(line.split()[1])
                self.peak_rss_mb = max(self.peak_rss_mb, kb / 1024.0)

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self) -> None:
        """Graceful shutdown (SIGTERM drains and flushes)."""
        if self.proc is None:
            return
        self._read_rss()
        self.signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def kill(self) -> None:
        """SIGKILL: a crash between requests."""
        if self.proc is None:
            return
        self._read_rss()
        self.proc.kill()
        self.proc.wait()

    def log_tail(self, lines: int = 5) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def replayed_batches(self) -> int:
        """WAL batches the last recovery replayed, per its banner."""
        for line in reversed(self.log_path.read_text().splitlines()):
            if line.startswith("recovered (+"):
                return int(line.split("(+", 1)[1].split()[0])
            if line.startswith(("recovered", "built")):
                return 0
        return 0


class Op:
    """One request as the client saw it.  ``start`` is when it was
    due (open-loop schedule) or else when it was sent."""

    __slots__ = ("kind", "route", "start", "sent", "done", "status",
                 "nbytes", "request_id", "server", "body")

    def __init__(self, kind: str, route: str, start: float, sent: float,
                 done: float, status: int, nbytes: int,
                 request_id: str, server: int, body: dict) -> None:
        self.kind = kind
        self.route = route
        self.start = start
        self.sent = sent
        self.done = done
        self.status = status
        self.nbytes = nbytes
        self.request_id = request_id
        self.server = server
        self.body = body

    @property
    def latency(self) -> float:
        return self.done - self.start


class Connection:
    """One persistent HTTP/1.1 connection (stdlib ``http.client``)."""

    def __init__(self, port: int, server_index: int = 0) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)
        self.server_index = server_index

    def call(self, kind: str, route: str, method: str, path: str,
             body: Optional[dict] = None,
             due: Optional[float] = None) -> Op:
        """Send one request; latency runs from ``due`` when given
        (an open-loop schedule), else from the send."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} \
            if payload is not None else {}
        sent = time.perf_counter()
        self.http.request(method, path, body=payload, headers=headers)
        response = self.http.getresponse()
        raw = response.read()
        done = time.perf_counter()
        return Op(kind, route, sent if due is None else due, sent, done,
                  response.status, len(raw),
                  response.getheader("X-Repro-Request", ""),
                  self.server_index, json.loads(raw))

    def close(self) -> None:
        self.http.close()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def counter_delta(before: Dict[str, object],
                  after: Dict[str, object]) -> Dict[str, float]:
    """Per-counter difference of two ``/v1/metrics`` bodies, over the
    registry counters and the matching-stack counters."""
    def flat(body: Dict[str, object]) -> Dict[str, float]:
        metrics = body.get("metrics", {})
        values = dict(metrics.get("counters", {}))
        for key, value in metrics.get("matching", {}).items():
            values[f"matching.{key}"] = value
        return values
    first, second = flat(before), flat(after)
    return {key: second.get(key, 0) - first.get(key, 0)
            for key in sorted(set(first) | set(second))}
