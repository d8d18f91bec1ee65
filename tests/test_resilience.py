"""Chaos suite: the resilience contract under injected faults.

Every scenario in the fault matrix — worker raise, hang (watchdog
timeout), Nth-call matcher fault, corrupted payload, distributed
worker/merge failure, and deadline expiry — must end in one of exactly
two states:

* **recovered** — the result is byte-identical (pattern codes, scores)
  to the fault-free run, because retry / serial re-run absorbed the
  fault; or
* **degraded** — a well-formed result with ``degraded=True`` and a
  per-stage completion report saying what was cut.

Never an uncaught exception, never a hang.  The same seed and fault
plan must yield the same outcome at every worker count (run this file
under ``REPRO_WORKERS=1`` and ``=4`` — ``make chaos-smoke``).
"""

import time
import unittest

from repro.core import pipeline
from repro.core.pipeline import PipelineConfig
from repro.datasets import (
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
)
from repro.errors import BudgetExceeded, OptionError, WorkerFailure
from repro.patterns import PatternBudget
from repro.perf import ItemFailure, clear_match_cache, get_match_cache, \
    pmap
from repro.perf.executor import backoff_s
from repro.resilience import (
    CORRUPTED,
    CompletionReport,
    Deadline,
    FaultPlan,
    FaultSpec,
    UNBOUNDED,
    chaos,
    is_corrupt,
)
from repro.tattoo.distributed import select_patterns_distributed
from repro.tattoo.pipeline import TattooConfig


def _double(x):
    return x * 2


def _stall_on_three(x):
    if x == 3:
        time.sleep(30.0)
    return x * 2


def _small_repo():
    return generate_chemical_repository(12, seed=7)


def _small_network():
    return generate_network(NetworkConfig(nodes=80, cliques=2,
                                          petals=2, flowers=2), seed=2)


def _budget():
    return PatternBudget(4, min_size=4, max_size=8)


def _codes(result):
    return sorted(result.patterns.codes())


class TestDeadline(unittest.TestCase):
    def test_unbounded_never_expires(self):
        self.assertFalse(UNBOUNDED.expired())
        self.assertFalse(Deadline.start(None).check("anywhere"))
        self.assertEqual(float("inf"), UNBOUNDED.remaining())

    def test_tiny_deadline_expires(self):
        deadline = Deadline.start(0.0)
        self.assertTrue(deadline.check("test.site"))

    def test_require_raises_budget_exceeded(self):
        deadline = Deadline.start(0.0)
        with self.assertRaises(BudgetExceeded):
            deadline.require("test.site")

    def test_completion_report_degraded(self):
        report = CompletionReport()
        report.record("a", 4, 4)
        self.assertFalse(report.degraded)
        report.record("b", 1, 4, note="deadline expired")
        self.assertTrue(report.degraded)
        self.assertFalse(report.as_dict()["b"]["complete"])


class TestFaultPlan(unittest.TestCase):
    def test_unknown_kind_rejected(self):
        with self.assertRaises(OptionError):
            FaultSpec("x", kind="explode")

    def test_keyed_spec_hits_only_its_keys(self):
        plan = FaultPlan([FaultSpec("s", keys=(2,), fail_attempts=1)])
        self.assertFalse(plan.fire("s", key=1, attempt=0))
        with self.assertRaises(WorkerFailure):
            plan.fire("s", key=2, attempt=0)
        # attempt >= fail_attempts: the retry succeeds
        self.assertFalse(plan.fire("s", key=2, attempt=1))

    def test_call_counted_spec(self):
        plan = FaultPlan([FaultSpec("s", at_calls=(2,))])
        self.assertFalse(plan.fire("s"))
        with self.assertRaises(WorkerFailure):
            plan.fire("s")
        self.assertFalse(plan.fire("s"))
        # fresh() zeroes the counter: call 2 fires again
        fresh = plan.fresh()
        self.assertFalse(fresh.fire("s"))
        with self.assertRaises(WorkerFailure):
            fresh.fire("s")

    def test_corrupt_sentinel_survives_pickle(self):
        import pickle
        clone = pickle.loads(pickle.dumps(CORRUPTED))
        self.assertTrue(is_corrupt(clone))

    def test_backoff_is_deterministic_and_exponential(self):
        a = backoff_s(0.001, 0, seed=1, index=5)
        b = backoff_s(0.001, 1, seed=1, index=5)
        self.assertEqual(a, backoff_s(0.001, 0, seed=1, index=5))
        self.assertGreater(b, a)
        self.assertNotEqual(a, backoff_s(0.001, 0, seed=2, index=5))


class TestPmapChaos(unittest.TestCase):
    """The fault matrix against the executor itself."""

    ITEMS = list(range(8))
    WANT = [x * 2 for x in range(8)]

    def run_both_worker_counts(self, plan, **kwargs):
        results = []
        for workers in (1, 4):
            with chaos(plan.fresh()):
                results.append(pmap(_double, self.ITEMS,
                                    workers=workers, **kwargs))
        return results

    def test_raise_then_recover_via_retry(self):
        plan = FaultPlan([FaultSpec("pmap.item", keys=(3,),
                                    fail_attempts=1)])
        serial, parallel = self.run_both_worker_counts(
            plan, max_retries=1)
        self.assertEqual(self.WANT, serial)
        self.assertEqual(self.WANT, parallel)

    def test_raise_then_recover_via_serial_rerun(self):
        # no in-worker retries: the coordinator's in-process re-run
        # (one attempt number later) absorbs the fault, under policy
        # "raise" too
        plan = FaultPlan([FaultSpec("pmap.item", keys=(3,),
                                    fail_attempts=1)])
        serial, parallel = self.run_both_worker_counts(
            plan, on_item_failure="raise")
        self.assertEqual(self.WANT, serial)
        self.assertEqual(self.WANT, parallel)

    def test_hang_recovers_like_raise(self):
        plan = FaultPlan([FaultSpec("pmap.item", keys=(2,),
                                    kind="hang", hang_s=0.01,
                                    fail_attempts=1)])
        serial, parallel = self.run_both_worker_counts(
            plan, max_retries=1)
        self.assertEqual(self.WANT, serial)
        self.assertEqual(self.WANT, parallel)

    def test_corrupt_payload_recovers(self):
        plan = FaultPlan([FaultSpec("pmap.item", keys=(5,),
                                    kind="corrupt", fail_attempts=1)])
        serial, parallel = self.run_both_worker_counts(
            plan, max_retries=1)
        self.assertEqual(self.WANT, serial)
        self.assertEqual(self.WANT, parallel)

    def test_unrecoverable_item_skipped_with_record(self):
        plan = FaultPlan([FaultSpec("pmap.item", keys=(4,),
                                    fail_attempts=99)])
        for workers in (1, 4):
            with chaos(plan.fresh()):
                out = pmap(_double, self.ITEMS, workers=workers,
                           max_retries=1, on_item_failure="skip")
            failures = [x for x in out if isinstance(x, ItemFailure)]
            self.assertEqual(1, len(failures))
            self.assertEqual(4, failures[0].index)
            self.assertEqual([x * 2 for x in self.ITEMS if x != 4],
                             [x for x in out
                              if not isinstance(x, ItemFailure)])

    def test_unrecoverable_item_raises_typed_failure(self):
        plan = FaultPlan([FaultSpec("pmap.item", keys=(1,),
                                    fail_attempts=99)])
        with chaos(plan.fresh()):
            with self.assertRaises(WorkerFailure) as caught:
                pmap(_double, self.ITEMS, workers=1, max_retries=1)
        self.assertEqual(1, caught.exception.key)

    def test_genuine_stall_hits_item_timeout(self):
        start = time.perf_counter()
        out = pmap(_stall_on_three, self.ITEMS, workers=4,
                   item_timeout_s=1.0, on_item_failure="skip")
        elapsed = time.perf_counter() - start
        self.assertLess(elapsed, 20.0)
        failures = [x for x in out if isinstance(x, ItemFailure)]
        self.assertEqual([3], [f.index for f in failures])
        self.assertEqual([x * 2 for x in self.ITEMS if x != 3],
                         [x for x in out
                          if not isinstance(x, ItemFailure)])


class TestPipelineChaos(unittest.TestCase):
    """The matrix against CATAPULT/TATTOO end to end."""

    def catapult(self, plan=None, **cfg):
        clear_match_cache()
        config = PipelineConfig(budget=_budget(), seed=3, **cfg)
        if plan is None:
            return pipeline.run_catapult(self.repo, config)
        with chaos(plan.fresh()):
            return pipeline.run_catapult(self.repo, config)

    @classmethod
    def setUpClass(cls):
        cls.repo = _small_repo()

    def test_worker_raise_recovers_byte_identical(self):
        baseline = self.catapult()
        self.assertFalse(baseline.degraded)
        plan = FaultPlan([FaultSpec("catapult.candidates", keys=(0,),
                                    fail_attempts=1)])
        for workers in (1, 4):
            recovered = self.catapult(plan, workers=workers,
                                      max_retries=1)
            self.assertEqual(_codes(baseline), _codes(recovered))
            self.assertFalse(recovered.degraded)

    def test_worker_hang_recovers_byte_identical(self):
        baseline = self.catapult()
        plan = FaultPlan([FaultSpec("catapult.candidates", keys=(0,),
                                    kind="hang", hang_s=0.01,
                                    fail_attempts=1)])
        recovered = self.catapult(plan, max_retries=1)
        self.assertEqual(_codes(baseline), _codes(recovered))
        self.assertFalse(recovered.degraded)

    def test_persistent_worker_fault_degrades_with_report(self):
        plan = FaultPlan([FaultSpec("catapult.candidates", keys=(0,),
                                    fail_attempts=99)])
        result = self.catapult(plan, max_retries=1)
        self.assertTrue(result.degraded)
        candidates = result.stats["completion"]["candidates"]
        self.assertFalse(candidates["complete"])
        self.assertLess(candidates["done"], candidates["total"])
        self.assertGreater(len(result.patterns), 0)

    def test_nth_call_matcher_fault_never_crashes(self):
        # fire the matcher's 3rd call within each work item of
        # cluster 0's candidate task; retry recovers it
        baseline = self.catapult()
        plan = FaultPlan([FaultSpec("matching.is_subgraph",
                                    at_calls=(3,))])
        result = self.catapult(plan, max_retries=1)
        self.assertEqual(_codes(baseline), _codes(result))

    def test_same_plan_same_result_across_worker_counts(self):
        # match-cache counters too: every attempt's accesses count,
        # whether the item ran in a pool worker or in-process
        for kind in ("raise", "corrupt"):
            plan = FaultPlan([FaultSpec("catapult.candidates", keys=(1,),
                                        kind=kind, fail_attempts=99)])
            outcomes = []
            for workers in (1, 4):
                result = self.catapult(plan, workers=workers,
                                       max_retries=1)
                cache = get_match_cache()
                outcomes.append((_codes(result), result.degraded,
                                 result.stats["completion"],
                                 cache.hits, cache.misses))
            self.assertEqual(outcomes[0], outcomes[1], kind)


class TestDeadlinePipelines(unittest.TestCase):
    """Anytime behavior: 25% / 50% budgets still yield patterns."""

    def fastest_wall(self, run):
        """Fastest of three cold unbounded runs, the reference the
        budgets are fractions of: one sample inflated by a busy
        machine would set a deadline the bounded run meets
        undegraded."""
        walls = []
        for _ in range(3):
            clear_match_cache()
            start = time.perf_counter()
            full = run()
            walls.append(time.perf_counter() - start)
            self.assertFalse(full.degraded)
        return min(walls)

    def test_catapult_under_deadline_is_anytime(self):
        repo = _small_repo()
        budget = _budget()
        config = PipelineConfig(budget=budget, seed=3)
        wall = self.fastest_wall(
            lambda: pipeline.run_catapult(repo, config))
        for fraction in (0.5, 0.25):
            clear_match_cache()
            bounded = PipelineConfig(
                budget=budget, seed=3,
                deadline_s=max(wall * fraction, 1e-4))
            result = pipeline.run_catapult(repo, bounded)
            self.assertGreater(len(result.patterns), 0)
            self.assertTrue(result.degraded)
            report = result.stats["completion"]
            self.assertTrue(any(not s["complete"]
                                for s in report.values()))

    def test_tattoo_under_deadline_is_anytime(self):
        network = _small_network()
        budget = _budget()
        config = PipelineConfig(budget=budget, seed=3)
        wall = self.fastest_wall(
            lambda: pipeline.run_tattoo(network, config))
        for fraction in (0.5, 0.25):
            clear_match_cache()
            bounded = PipelineConfig(
                budget=budget, seed=3,
                deadline_s=max(wall * fraction, 1e-4))
            result = pipeline.run_tattoo(network, bounded)
            self.assertGreater(len(result.patterns), 0)
            self.assertTrue(result.degraded)

    def test_zero_deadline_still_returns_patterns(self):
        # the pathological floor: "at least one unit, then check"
        repo = _small_repo()
        clear_match_cache()
        config = PipelineConfig(budget=_budget(), seed=3,
                                deadline_s=1e-6)
        result = pipeline.run_catapult(repo, config)
        self.assertGreater(len(result.patterns), 0)
        self.assertTrue(result.degraded)


class TestDistributedChaos(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.network = _small_network()
        cls.budget = _budget()

    def run_distributed(self, plan=None, **kwargs):
        clear_match_cache()
        config = TattooConfig(seed=3, **kwargs)
        if plan is None:
            return select_patterns_distributed(
                self.network, self.budget, parts=3, config=config)
        with chaos(plan.fresh()):
            return select_patterns_distributed(
                self.network, self.budget, parts=3, config=config)

    def test_worker_failure_degrades_not_crashes(self):
        plan = FaultPlan([FaultSpec("distributed.worker", keys=(1,),
                                    fail_attempts=99)])
        result = self.run_distributed(plan)
        self.assertTrue(result.degraded)
        self.assertEqual(1, result.stats["failed_workers"])
        self.assertTrue(result.workers[1].failed)
        self.assertGreater(len(result.patterns), 0)
        self.assertFalse(
            result.stats["completion"]["workers"]["complete"])

    def test_corrupt_worker_payload_dropped_at_merge(self):
        plan = FaultPlan([FaultSpec("distributed.worker", keys=(1,),
                                    kind="corrupt",
                                    fail_attempts=99)])
        result = self.run_distributed(plan)
        self.assertTrue(result.degraded)
        self.assertTrue(result.workers[1].failed)
        self.assertFalse(
            result.stats["completion"]["merge"]["complete"])
        self.assertGreater(len(result.patterns), 0)

    def test_merge_fault_drops_one_pool(self):
        plan = FaultPlan([FaultSpec("distributed.merge", keys=(0,),
                                    fail_attempts=99)])
        result = self.run_distributed(plan)
        self.assertTrue(result.degraded)
        merge = result.stats["completion"]["merge"]
        self.assertEqual(merge["total"] - 1, merge["done"])
        self.assertGreater(len(result.patterns), 0)

    def test_fault_free_run_is_not_degraded(self):
        result = self.run_distributed()
        self.assertFalse(result.degraded)
        self.assertEqual(0, result.stats["failed_workers"])


if __name__ == "__main__":
    unittest.main()
