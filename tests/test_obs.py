"""Tests for repro.obs: spans, capture, metrics, export.

The contracts under test are the observability layer's reasons to
exist: spans nest through ordinary ``with`` nesting, record only
inside a capture and cost one context-variable read outside one;
each thread's capture is private, so overlapping traced runs never
mix their trees; traces are identical at every ``pmap`` worker count
once wall-clock fields are stripped; the metrics registry resets
without touching cached match entries, counts exactly under threads,
survives a fork taken while another thread holds its lock, and
receives the counts ``pmap`` pool items make; and
``repro.obs.snapshot()`` subsumes the legacy stats endpoints.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    attach_record,
    capture,
    metrics,
    new_record,
    read_trace,
    span,
    strip_wall_clock,
    tracing_enabled,
    write_trace,
)
from repro.obs.export import format_trace, stage_breakdown, trace_envelope
from repro.perf import get_match_cache, pmap
from tests.trace_schema import validate_envelope, validate_record


@pytest.fixture(autouse=True)
def _no_open_capture():
    """Every test starts and ends outside any capture."""
    assert not tracing_enabled()
    yield
    assert not tracing_enabled()


def _square(x):
    return x * x


def _count_item(x):
    metrics.inc("test.pool_item")
    return x


def run_threads(*targets):
    """Run each target on its own thread; every one must finish
    within 10 s without raising."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestSpans:
    def test_disabled_span_is_the_shared_null_object(self):
        assert not tracing_enabled()
        assert span("anything") is NULL_SPAN
        assert span("other", items=3) is NULL_SPAN
        with span("noop") as s:
            s.add("ignored")
            s.annotate(also="ignored")
        assert s.record is None
        with capture("later", force=True) as run:
            pass
        assert run.record["children"] == []

    def test_nesting_and_counters(self):
        with capture("run", force=True) as run:
            with span("outer", items=2) as outer:
                with span("inner") as inner:
                    inner.add("steps")
                    inner.add("steps")
                outer.add("done", 1)
        (root,) = run.record["children"]
        assert root["name"] == "outer"
        assert root["counters"] == {"items": 2, "done": 1}
        assert root["duration"] >= 0.0
        (child,) = root["children"]
        assert child["name"] == "inner"
        assert child["counters"] == {"steps": 2}

    def test_string_counters_are_annotations_not_tallies(self):
        with capture("run", force=True) as run:
            with span("stage") as s:
                s.add("kind", "minor")
                s.add("kind", "major")  # last write wins
        (root,) = run.record["children"]
        assert root["counters"]["kind"] == "major"

    def test_module_level_add_targets_innermost_span(self):
        with capture("run", force=True) as run:
            with span("outer"):
                with span("inner"):
                    obs.add("hits", 3)
        (root,) = run.record["children"]
        assert root["children"][0]["counters"] == {"hits": 3}

    def test_attach_record_preserves_call_order(self):
        with capture("run", force=True) as run:
            with span("parent"):
                attach_record({"name": "w0", "duration": 0.0,
                               "counters": {}, "children": []})
                attach_record({"name": "w1", "duration": 0.0,
                               "counters": {}, "children": []})
        (root,) = run.record["children"]
        assert [c["name"] for c in root["children"]] == ["w0", "w1"]


class TestCapture:
    def test_idle_capture_records_nothing(self):
        with capture("run") as run:
            run.add("ignored")
        assert run.record is None
        assert not tracing_enabled()

    def test_force_traces_one_run_without_global_state(self):
        with capture("run", force=True, size=5) as run:
            assert tracing_enabled()
            with span("stage") as s:
                s.add("work")
        assert not tracing_enabled()
        assert run.record["name"] == "run"
        assert run.record["counters"] == {"size": 5}
        assert [c["name"] for c in run.record["children"]] == ["stage"]
        # the capture took its trace with it: nothing records after it
        assert span("after") is NULL_SPAN

    def test_a_run_that_raises_still_closes_its_trace(self):
        with pytest.raises(ValueError):
            with capture("run", force=True):
                with span("stage"):
                    raise ValueError("stage failed")
        assert span("after") is NULL_SPAN

    def test_nested_capture_degrades_to_child_span(self):
        with capture("outer", force=True) as outer:
            with capture("inner", force=True) as inner:
                with span("stage"):
                    pass
        assert [c["name"] for c in outer.record["children"]] == ["inner"]
        assert inner.record["name"] == "inner"
        assert [c["name"] for c in inner.record["children"]] == ["stage"]


class TestThreads:
    """Tracing belongs to the run: each thread's capture is private."""

    def test_overlapping_captures_keep_their_own_spans(self):
        # A opens a capture and a span, then B does, then A closes
        # first: one shared span stack would hand B an empty stack
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))
        records = {}

        def thread_a():
            with capture("a", force=True) as run:
                with span("a.stage"):
                    a_open.set()
                    assert b_open.wait(10)
            records["a"] = run.record
            a_closed.set()

        def thread_b():
            assert a_open.wait(10)
            with capture("b", force=True) as run:
                with span("b.stage"):
                    b_open.set()
                    assert a_closed.wait(10)
            records["b"] = run.record

        run_threads(thread_a, thread_b)
        for name in ("a", "b"):
            record = strip_wall_clock(records[name])
            assert record == {
                "name": name, "counters": {},
                "children": [{"name": f"{name}.stage", "counters": {},
                              "children": []}]}

    def test_threads_trace_privately_under_a_short_switch_interval(self):
        # more threads than cores, switching every microsecond: one
        # shared stack would mix the trees or pop an empty one
        def traced_runs(name):
            def runs():
                for index in range(2000):
                    with capture(name, force=True, run=index) as run:
                        with span("stage"):
                            obs.add("steps")
                            with span("inner"):
                                obs.add("steps", 2)
                    assert strip_wall_clock(run.record) == {
                        "name": name, "counters": {"run": index},
                        "children": [{
                            "name": "stage", "counters": {"steps": 1},
                            "children": [{"name": "inner",
                                          "counters": {"steps": 2},
                                          "children": []}]}]}
            return runs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads(*(traced_runs(f"t{n}") for n in range(8)))
        finally:
            sys.setswitchinterval(interval)

    def test_other_threads_do_not_see_an_open_capture(self):
        seen = []

        def elsewhere():
            seen.append(tracing_enabled())
            seen.append(span("elsewhere") is NULL_SPAN)
            with span("elsewhere"):
                obs.add("hits")
            attach_record(new_record("shipped"))

        with capture("run", force=True) as run:
            run_threads(elsewhere)
            assert tracing_enabled()
        assert seen == [False, True]
        assert run.record["children"] == []
        assert run.record["counters"] == {}


class TestPmapTraces:
    def test_trace_tree_is_worker_count_invariant(self):
        trees = {}
        for workers in (1, 4):
            with capture("run", force=True) as run:
                with span("fanout"):
                    results = pmap(_square, list(range(6)),
                                   workers=workers)
            assert results == [x * x for x in range(6)]
            trees[workers] = strip_wall_clock(run.record)
        assert trees[1] == trees[4]
        fanout = trees[1]["children"][0]
        assert [c["name"] for c in fanout["children"]] \
            == ["pmap.item"] * 6
        assert [c["counters"]["index"] for c in fanout["children"]] \
            == list(range(6))

    def test_untraced_pmap_attaches_nothing(self):
        # the pmap runs on a thread of its own, outside the capture
        # the main thread holds open
        results = []
        with capture("run", force=True) as run:
            worker = threading.Thread(target=lambda: results.append(
                pmap(_square, list(range(4)), workers=4)))
            worker.start()
            worker.join(60)
        assert results == [[0, 1, 4, 9]]
        assert run.record["children"] == []


class TestMetrics:
    def test_registry_reset_isolation(self):
        metrics.inc("test.metric", 2)
        metrics.set_gauge("test.gauge", 7)
        metrics.observe("test.timer", 0.5)
        snap = obs.snapshot()
        assert snap["counters"]["test.metric"] == 2
        assert snap["gauges"]["test.gauge"] == 7
        assert snap["timers"]["test.timer"]["count"] == 1
        obs.reset()
        snap = obs.snapshot()
        assert "test.metric" not in snap["counters"]
        assert "test.gauge" not in snap["gauges"]
        assert snap["matching"]["hits"] == 0
        assert snap["matching"]["vf2_calls"] == 0

    def test_consolidated_endpoint_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            obs.snapshot()
            obs.matching_snapshot()

    def test_pipeline_metrics_flow_into_the_registry(self):
        from repro.core import PipelineConfig, run_catapult
        from repro.datasets import generate_chemical_repository
        from repro.patterns import PatternBudget
        obs.reset()
        repo = generate_chemical_repository(8, seed=11)
        budget = PatternBudget(3, min_size=3, max_size=6)
        run_catapult(repo, PipelineConfig(budget=budget, seed=1))
        counters = obs.snapshot()["counters"]
        assert counters["perf.pmap.calls"] > 0
        assert counters["patterns.greedy.calls"] >= 1
        assert counters["patterns.coverage.patterns_indexed"] > 0


class TestOneCounterStore:
    """Handler threads and pool workers all count into the registry."""

    def test_concurrent_increments_are_exact(self):
        # more threads than cores, switching every microsecond: an
        # unlocked read-modify-write loses increments here
        obs.reset()

        def bump():
            for _ in range(50_000):
                obs.inc("test.concurrent")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads(*[bump] * 8)
        finally:
            sys.setswitchinterval(interval)
        assert metrics.registry().counters["test.concurrent"] == 400_000

    @pytest.mark.parametrize("lock_of", [
        lambda: metrics.registry().lock,
        lambda: get_match_cache()._lock,
    ], ids=["registry", "match-cache"])
    def test_fork_while_another_thread_holds_the_lock(self, lock_of):
        # pmap forks its pool while handler threads may hold either
        # lock; the child must not inherit it held
        lock = lock_of()
        held, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    obs.inc("test.forked")
                    get_match_cache().lookup(("test", "forked"))
                    code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 5
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung on a copied lock")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()

    def test_pool_items_ship_their_counts_home(self):
        obs.reset()
        assert pmap(_count_item, range(8), workers=2) == list(range(8))
        assert metrics.registry().counters["test.pool_item"] == 8


class TestExport:
    def _sample_record(self):
        with capture("run", force=True, size=2) as run:
            with span("stage.a") as s:
                s.add("items", 4)
            with span("stage.b"):
                pass
            with span("stage.b"):
                pass
        return run.record

    def test_round_trip_through_the_envelope(self, tmp_path):
        record = self._sample_record()
        path = str(tmp_path / "trace.json")
        write_trace([record], path)
        assert read_trace(path) == [record]

    def test_written_file_passes_the_schema_validator(self, tmp_path):
        record = self._sample_record()
        path = str(tmp_path / "trace.json")
        write_trace([record], path)
        import json
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_envelope(payload) == []
        assert validate_record(record) == []
        assert validate_envelope(trace_envelope([])) \
            == ["envelope holds no traces"]

    def test_format_trace_is_an_indented_tree(self):
        text = format_trace(self._sample_record())
        lines = text.splitlines()
        assert lines[0].startswith("run:")
        assert "[size=2]" in lines[0]
        assert lines[1].startswith("  stage.a:")
        assert "items=4" in lines[1]

    def test_stage_breakdown_merges_same_named_stages(self):
        record = self._sample_record()
        breakdown = stage_breakdown(record)
        assert set(breakdown) == {"stage.a", "stage.b"}
        total = sum(breakdown.values())
        assert total <= record["duration"]
