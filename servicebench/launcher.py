"""Start ``repro-vqi serve`` with spans around each layer's entry points.

Usage::

    python servicebench/launcher.py SPANS.json serve DATA [serve options]

The launcher wraps the public entry points of every layer on the
served path, then hands the remaining arguments to
``repro.cli.main``.  Each span records its name, start, end, parent
span and, for ``PatternService.dispatch``, the request id the
response carries.  Spans stay in memory; they are written to
``SPANS.json`` when SIGTERM shuts the server down, and also on
SIGUSR1, which the benchmark sends just before a SIGKILL so a crashed
process still reports its spans.  The initial build's stage times
come from the trace the pipelines emit themselves under ``--trace``.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Recorder:
    """Spans of one server process, kept in memory."""

    def __init__(self) -> None:
        self.spans = []
        self.builds = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function, request_id=None):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = {"name": name, "start": time.perf_counter(),
                    "end": None, "parent": stack[-1] if stack else None,
                    "request": None}
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
            if request_id is not None:
                span["request"] = request_id(result)
            return result
        return wrapper

    def patch(self, owner, attribute, name, request_id=None):
        setattr(owner, attribute,
                self.wrap(name, getattr(owner, attribute), request_id))

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [dict(span) for span in self.spans
                     if span["end"] is not None]
            builds = list(self.builds)
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "builds": builds}, handle)
        os.replace(temporary, path)


def stage_times(trace):
    """Top-level stage durations of a pipeline trace record."""
    if not trace:
        return {}
    return {child["name"]: child["duration"]
            for child in trace.get("children", [])}


def install(recorder: Recorder) -> None:
    from repro.midas import maintenance
    from repro.query import engine, suggest
    from repro.service import app, snapshot
    from repro.store import backends

    service = app.PatternService
    recorder.patch(service, "dispatch", "service.dispatch",
                   lambda response: response.body.get("request_id"))
    for attribute in sorted(vars(app)):
        if attribute.startswith("handle_"):
            recorder.patch(app, attribute, "service.handler")
    recorder.patch(snapshot.SnapshotManager, "swap",
                   "service.snapshot_swap")
    recorder.patch(engine.QueryEngine, "run", "query.engine")
    recorder.patch(engine, "subgraph_embeddings", "matching.embed")
    recorder.patch(suggest.QuerySuggester, "suggest_for_query",
                   "query.suggest")
    recorder.patch(suggest, "is_subgraph", "matching.embed")
    recorder.patch(service, "ensure_midas", "midas.engine_build")
    recorder.patch(maintenance.Midas, "apply_batch", "midas.apply")
    recorder.patch(backends.DiskBackend, "log_batch", "store.wal_append")
    recorder.patch(backends.DiskBackend, "commit", "store.commit")
    recorder.patch(backends.DiskBackend, "load", "store.load")
    recorder.patch(os, "fsync", "store.fsync")

    run_selection = app.run_selection

    def traced_selection(data, config=None):
        result = run_selection(data, config)
        recorder.builds.append(stage_times(result.trace))
        return result
    app.run_selection = recorder.wrap("build", traced_selection)


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1,
                  lambda signum, frame: recorder.dump(spans_path))
    from repro.cli import main as cli_main
    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
