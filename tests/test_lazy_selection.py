"""Golden equivalence tests for the lazy-greedy (CELF) sweep.

The shipped lazy sweep and the quadratic oracle
(:func:`tests.oracles.naive_sweep`, swapped in through
:func:`tests.oracles.naive_selection`) must produce **byte-identical**
selections — same pattern codes, bitwise-equal scores and
trajectories, same ``complete`` flag — on seeded random instances
crossed with every sweep variation: ``improve_only``, seed patterns,
persistent injected faults, and a pre-expired deadline.  A counter
test then pins the point of the whole exercise: the lazy sweep
performs strictly fewer candidate evaluations.  :class:`PipelineOracles`
repeats both oracle checks — kernel and sweep — end to end on the
E2/E4-shaped CATAPULT and TATTOO workloads.

The deadline instances keep the candidate count below
``DEADLINE_POLL_EVERY / 2`` so both sweeps finish their first round
before the in-round poll can fire; divergence inside a partially
polled round is a wall-clock race, not a correctness property.  The
chaos instances use *persistent* faults (``fail_attempts`` larger
than any sweep) — a transient fault can legitimately diverge, because
the lazy sweep retries the recovered candidate within the same round
while the naive sweep has already finished it.
"""

import itertools
import random
import unittest
from contextlib import nullcontext

from repro.core import pipeline
from repro.core.pipeline import PipelineConfig
from repro.datasets import NetworkConfig, generate_chemical_repository, \
    generate_network, sample_connected_subgraph
from repro import obs
from repro.obs import metrics
from repro.patterns import (
    CoverageIndex,
    Pattern,
    PatternBudget,
    SetScorer,
    exhaustive_select,
    greedy_select,
)
from repro.patterns.selection import DEADLINE_POLL_EVERY, SELECT_SITE
from repro.resilience import Deadline
from repro.resilience.chaos import FaultPlan, FaultSpec, chaos
from tests.oracles import legacy_kernel, naive_selection

SEEDS = (0, 1, 2)
BUDGET = PatternBudget(5, min_size=3, max_size=8)


def make_instance(seed, repo_size=18, n_candidates=10):
    """A seeded repository plus distinct sampled candidate patterns."""
    repo = generate_chemical_repository(repo_size, seed=seed)
    rng = random.Random(seed * 7919 + 13)
    candidates = []
    seen = set()
    while len(candidates) < n_candidates:
        graph = rng.choice(repo)
        sub = sample_connected_subgraph(graph, rng.randint(3, 6), rng)
        if sub is None:
            continue
        pattern = Pattern(sub)
        if pattern.code not in seen:
            seen.add(pattern.code)
            candidates.append(pattern)
    return repo, candidates


def run_sweep(mode, repo, candidates, plan=None, **kwargs):
    """One greedy sweep (``"lazy"``, or the ``"naive"`` oracle)
    against fresh index/scorer state."""
    scorer = SetScorer(CoverageIndex(repo))
    with naive_selection() if mode == "naive" else nullcontext():
        if plan is not None:
            with chaos(plan.fresh()):
                return greedy_select(candidates, BUDGET, scorer,
                                     **kwargs)
        return greedy_select(candidates, BUDGET, scorer, **kwargs)


class GoldenEquivalence(unittest.TestCase):
    """lazy == naive, bitwise, across the instance x variation grid."""

    def assert_equivalent(self, lazy, naive):
        self.assertEqual([p.code for p in naive.patterns],
                         [p.code for p in lazy.patterns])
        self.assertEqual(naive.score, lazy.score)  # bitwise, no approx
        self.assertEqual(naive.trajectory, lazy.trajectory)
        self.assertEqual(naive.complete, lazy.complete)
        if len(lazy.trajectory) > 1:
            # the bound-seeding pass amortises from round two on; a
            # single-round sweep may cost one extra evaluation
            self.assertLessEqual(lazy.evaluations, naive.evaluations)

    def test_plain_and_improve_only(self):
        for seed, improve_only in itertools.product(SEEDS,
                                                    (False, True)):
            with self.subTest(seed=seed, improve_only=improve_only):
                repo, candidates = make_instance(seed)
                lazy = run_sweep("lazy", repo, candidates,
                                 improve_only=improve_only)
                naive = run_sweep("naive", repo, candidates,
                                  improve_only=improve_only)
                self.assert_equivalent(lazy, naive)
                self.assertTrue(lazy.patterns)

    def test_seed_patterns(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                repo, candidates = make_instance(seed)
                seeds = candidates[:2]
                rest = candidates[2:]
                lazy = run_sweep("lazy", repo, rest,
                                 seed_patterns=seeds)
                naive = run_sweep("naive", repo, rest,
                                  seed_patterns=seeds)
                self.assert_equivalent(lazy, naive)
                self.assertEqual(
                    [p.code for p in seeds],
                    [p.code for p in lazy.patterns[:2]])

    def test_persistent_chaos_faults(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                repo, candidates = make_instance(seed)
                doomed = {candidates[0].code, candidates[3].code}
                plan = FaultPlan([FaultSpec(SELECT_SITE,
                                            keys=tuple(doomed),
                                            fail_attempts=10 ** 9)])
                lazy = run_sweep("lazy", repo, candidates, plan=plan)
                naive = run_sweep("naive", repo, candidates,
                                  plan=plan)
                self.assert_equivalent(lazy, naive)
                self.assertGreater(lazy.faults, 0)
                self.assertGreater(naive.faults, 0)
                chosen = {p.code for p in lazy.patterns}
                self.assertFalse(chosen & doomed)

    def test_pre_expired_deadline(self):
        for seed in SEEDS:
            with self.subTest(seed=seed):
                repo, candidates = make_instance(seed)
                self.assertLess(2 * len(candidates),
                                DEADLINE_POLL_EVERY)
                lazy = run_sweep("lazy", repo, candidates,
                                 deadline=Deadline(0.0))
                naive = run_sweep("naive", repo, candidates,
                                  deadline=Deadline(0.0))
                self.assert_equivalent(lazy, naive)
                self.assertFalse(lazy.complete)
                # the anytime contract: one round still lands
                self.assertEqual(1, len(lazy.patterns))

    def test_lazy_performs_strictly_fewer_evaluations(self):
        repo, candidates = make_instance(0, n_candidates=14)
        before = metrics.registry().counters.get(
            "patterns.greedy.lazy_hits", 0)
        lazy = run_sweep("lazy", repo, candidates)
        saved = metrics.registry().counters.get(
            "patterns.greedy.lazy_hits", 0) - before
        naive = run_sweep("naive", repo, candidates)
        self.assertLess(lazy.evaluations, naive.evaluations)
        self.assertGreater(saved, 0)
        self.assertEqual(lazy.evaluations + saved
                         - len(candidates),  # bound-seeding pass
                         naive.evaluations)


class PipelineOracles(unittest.TestCase):
    """Whole pipelines against both oracles, at the E2/E4 smoke sizes.

    Under :func:`legacy_kernel` every matcher the pipelines build is
    the legacy kernel: the selected pattern sets must be identical.
    Under :func:`naive_selection` every sweep is the quadratic one:
    the pattern sequences must be identical, in selection order.  The
    deterministic work counts are pinned (the indexed kernel's as a
    no-regression ceiling), the lazy sweep must save >= 3x, and every
    count reads the same at workers 1 and 4.
    """

    #: deterministic work counts per workload and implementation
    INDEXED_CHECKS = {"catapult": 22187, "tattoo": 14017}
    LEGACY_CHECKS = {"catapult": 55586, "tattoo": 237187}
    LAZY_EVALUATIONS = {"catapult": 98, "tattoo": 138}
    NAIVE_EVALUATIONS = {"catapult": 340, "tattoo": 625}
    MIN_REDUCTION = 3

    def run_workloads(self, workers=1):
        """workload -> (codes, feasibility checks, evaluations,
        ``obs.snapshot()`` after the run)."""
        repo = generate_chemical_repository(30, seed=7)
        network = generate_network(NetworkConfig(
            nodes=150, cliques=4, petals=3, flowers=3), seed=2)
        budget = PatternBudget(5, min_size=4, max_size=8)
        runs = {
            "catapult": lambda: pipeline.run_catapult(
                repo, PipelineConfig(
                    budget=budget, seed=1, workers=workers,
                    options={"walks_per_cluster": 10})),
            "tattoo": lambda: pipeline.run_tattoo(
                network, PipelineConfig(budget=budget, seed=1,
                                        workers=workers)),
        }
        results = {}
        for workload, run in sorted(runs.items()):
            obs.reset(clear_cache_entries=True)
            codes = run().patterns.codes()
            snapshot = obs.snapshot()
            results[workload] = (
                codes, snapshot["matching"]["feasibility_checks"],
                snapshot["counters"].get("patterns.greedy.evaluations",
                                         0),
                snapshot)
        obs.reset(clear_cache_entries=True)
        return results

    def test_pipelines_match_both_oracles(self):
        shipped = self.run_workloads()
        with legacy_kernel():
            legacy = self.run_workloads()
        with naive_selection():
            naive = self.run_workloads()
        for workload, (codes, checks, evaluations, _) in shipped.items():
            with self.subTest(workload=workload):
                self.assertEqual(sorted(legacy[workload][0]),
                                 sorted(codes))
                self.assertEqual(naive[workload][0], codes)
                self.assertLessEqual(checks,
                                     self.INDEXED_CHECKS[workload])
                self.assertEqual(self.LEGACY_CHECKS[workload],
                                 legacy[workload][1])
                self.assertEqual(self.LAZY_EVALUATIONS[workload],
                                 evaluations)
                self.assertEqual(self.NAIVE_EVALUATIONS[workload],
                                 naive[workload][2])
                self.assertGreaterEqual(
                    naive[workload][2],
                    self.MIN_REDUCTION * evaluations)

    def test_work_counts_are_worker_count_invariant(self):
        """Counts made in pool workers come home: the matching stack
        and every registry counter but pmap's own dispatch counts
        read the same at workers 1 and 4."""
        def work_counts(snapshot):
            return snapshot["matching"], {
                name: value
                for name, value in snapshot["counters"].items()
                if not name.startswith("perf.pmap.")}

        serial = self.run_workloads(workers=1)
        pooled = self.run_workloads(workers=4)
        for workload, (codes, _, _, snapshot) in serial.items():
            with self.subTest(workload=workload):
                self.assertEqual(codes, pooled[workload][0])
                self.assertEqual(work_counts(snapshot),
                                 work_counts(pooled[workload][3]))


class IncrementalScorer(unittest.TestCase):
    """The commit/marginal layer is bitwise-faithful to the oracle."""

    def setUp(self):
        self.repo, self.candidates = make_instance(1)
        self.scorer = SetScorer(CoverageIndex(self.repo))

    def test_marginal_score_bitwise_equals_oracle(self):
        committed = []
        oracle = SetScorer(CoverageIndex(self.repo))
        for pattern in self.candidates[:4]:
            for candidate in self.candidates:
                self.assertEqual(
                    oracle.score(committed + [candidate]),
                    self.scorer.marginal_score(candidate))
            self.scorer.commit(pattern)
            committed.append(pattern)
            self.assertEqual(oracle.score(committed),
                             self.scorer.committed_score())

    def test_commit_rollback_is_exact(self):
        for pattern in self.candidates[:3]:
            self.scorer.commit(pattern)
        reference = [self.scorer.marginal_score(c)
                     for c in self.candidates]
        score_before = self.scorer.committed_score()
        self.scorer.commit(self.candidates[5])
        rolled = self.scorer.rollback()
        self.assertIs(self.candidates[5], rolled)
        self.assertEqual(score_before, self.scorer.committed_score())
        self.assertEqual(reference, [self.scorer.marginal_score(c)
                                     for c in self.candidates])

    def test_rollback_on_empty_state_raises(self):
        from repro.errors import BudgetError
        with self.assertRaises(BudgetError):
            self.scorer.rollback()

    def test_reset_clears_committed_state(self):
        solo = self.scorer.marginal_score(self.candidates[0])
        self.scorer.commit(self.candidates[1])
        self.scorer.reset()
        self.assertEqual((), self.scorer.committed)
        self.assertEqual(solo,
                         self.scorer.marginal_score(self.candidates[0]))

    def test_sim_cache_is_lru_bounded(self):
        scorer = SetScorer(CoverageIndex(self.repo),
                           sim_cache_entries=4)
        scorer.score(self.candidates[:6])  # 15 pairs >> 4 slots
        stats = scorer.sim_cache_stats()
        self.assertLessEqual(stats["entries"], 4)
        self.assertGreater(stats["evictions"], 0)
        self.assertEqual(stats["misses"] - stats["entries"],
                         stats["evictions"])

    def test_greedy_publishes_sim_cache_gauges(self):
        run_sweep("lazy", self.repo, self.candidates)
        gauges = metrics.registry().gauges
        self.assertIn("patterns.scorer.sim_cache.size", gauges)
        self.assertIn("patterns.scorer.sim_cache.evictions", gauges)


class ExhaustiveIncremental(unittest.TestCase):
    """exhaustive_select walks the incremental path, same optimum."""

    def test_matches_stateless_enumeration(self):
        repo, candidates = make_instance(2, n_candidates=6)
        budget = PatternBudget(3, min_size=3, max_size=8)
        before = metrics.registry().counters.get(
            "patterns.exhaustive.calls", 0)
        result = exhaustive_select(candidates, budget,
                                   SetScorer(CoverageIndex(repo)))
        calls = metrics.registry().counters.get(
            "patterns.exhaustive.calls", 0)
        self.assertEqual(before + 1, calls)
        oracle = SetScorer(CoverageIndex(repo))
        best_score = 0.0
        best = ()
        for k in range(1, budget.max_patterns + 1):
            for combo in itertools.combinations(candidates, k):
                score = oracle.score(combo)
                if score > best_score:
                    best_score = score
                    best = combo
        self.assertEqual(best_score, result.score)
        self.assertEqual([p.code for p in best],
                         [p.code for p in result.patterns])

    def test_scorer_state_is_clean_afterwards(self):
        repo, candidates = make_instance(2, n_candidates=5)
        scorer = SetScorer(CoverageIndex(repo))
        exhaustive_select(candidates, PatternBudget(2, min_size=3,
                                                    max_size=8),
                          scorer)
        self.assertEqual((), scorer.committed)


class SeededCovers(unittest.TestCase):
    """CoverageIndex.seed_cover: synthetic covers without matching."""

    def test_seeded_cover_is_used_verbatim(self):
        repo, _ = make_instance(0, repo_size=4, n_candidates=1)
        index = CoverageIndex(repo)
        pattern = Pattern(repo[0])
        edges = frozenset(list(repo[0].edges())[:2])
        index.seed_cover(pattern, {1: edges})
        self.assertEqual({1: edges}, index.cover_of(pattern))
        self.assertTrue(index.is_indexed(pattern))

    def test_seeding_is_idempotent_like_add_pattern(self):
        repo, _ = make_instance(0, repo_size=4, n_candidates=1)
        index = CoverageIndex(repo)
        pattern = Pattern(repo[0])
        edges = frozenset(list(repo[0].edges())[:2])
        index.seed_cover(pattern, {1: edges})
        index.seed_cover(pattern, {2: edges})  # ignored: already in
        index.add_pattern(pattern)             # ignored: already in
        self.assertEqual({1: edges}, index.cover_of(pattern))


if __name__ == "__main__":
    unittest.main()
