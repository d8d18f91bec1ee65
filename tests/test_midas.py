"""Tests for MIDAS: FCT index, swapping, and maintenance."""

import pytest

from repro.core import PipelineConfig
from repro.datasets import (
    EvolvingRepository,
    UpdateBatch,
    generate_chemical_repository,
    generate_molecule,
    generate_update_stream,
)
from repro.errors import MaintenanceError, PipelineError
from repro.graph import path_graph, star_graph
from repro.midas import FCTIndex, Midas, multi_scan_swap
from repro.patterns import (
    CoverageIndex,
    Pattern,
    PatternBudget,
    SetScorer,
)

import random


@pytest.fixture(scope="module")
def repo():
    return generate_chemical_repository(40, seed=21)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(5, min_size=4, max_size=8)


class TestFCTIndex:
    def test_build_then_incremental_matches_rebuild(self, repo):
        """add/remove bookkeeping equals mining from scratch."""
        incremental = FCTIndex(min_support=2)
        incremental.build(repo[:30])
        for graph in repo[30:35]:
            incremental.add_graph(graph)
        for graph in repo[:5]:
            incremental.remove_graph(graph)

        fresh = FCTIndex(min_support=2)
        fresh.build(repo[5:35])

        inc = {t.code: t.support for t in incremental.frequent_trees()}
        ref = {t.code: t.support for t in fresh.frequent_trees()}
        assert inc == ref

    def test_closed_subset_of_frequent(self, repo):
        index = FCTIndex(min_support=2)
        index.build(repo[:20])
        frequent = {t.code for t in index.frequent_trees()}
        closed = {t.code for t in index.frequent_closed()}
        assert closed <= frequent
        assert closed  # chemical motifs recur

    def test_graph_count_tracked(self, repo):
        index = FCTIndex()
        index.build(repo[:10])
        assert index.graph_count == 10
        index.remove_graph(repo[0])
        assert index.graph_count == 9

    def test_support_lookup(self):
        index = FCTIndex(min_support=1)
        index.build([path_graph(2, label="A")])
        trees = index.frequent_trees()
        assert len(trees) == 1
        assert index.support(trees[0].code) == 1
        assert index.support("missing") == 0


class TestSwapping:
    def sample_repo(self):
        return [path_graph(5, label="A"), star_graph(4, label="A"),
                path_graph(6, label="A")]

    def test_score_never_decreases(self):
        scorer = SetScorer(CoverageIndex(self.sample_repo()))
        current = [Pattern(path_graph(4, label="B"))]  # covers nothing
        candidates = [Pattern(path_graph(4, label="A")),
                      Pattern(star_graph(3, label="A"))]
        swapped, stats = multi_scan_swap(current, candidates, scorer)
        assert stats.score_after >= stats.score_before - 1e-12

    def test_improving_swap_applied(self):
        scorer = SetScorer(CoverageIndex(self.sample_repo()))
        current = [Pattern(path_graph(4, label="Z"))]  # useless pattern
        candidates = [Pattern(path_graph(4, label="A"))]
        swapped, stats = multi_scan_swap(current, candidates, scorer)
        assert stats.swaps == 1
        assert swapped[0].code == candidates[0].code

    def test_no_candidates_noop(self):
        scorer = SetScorer(CoverageIndex(self.sample_repo()))
        current = [Pattern(path_graph(4, label="A"))]
        swapped, stats = multi_scan_swap(current, [], scorer)
        assert [p.code for p in swapped] == [p.code for p in current]
        assert stats.swaps == 0

    def test_pruning_reduces_considered_work(self):
        rng = random.Random(0)
        repo = generate_chemical_repository(15, seed=33)
        scorer = SetScorer(CoverageIndex(repo))
        current = [Pattern(path_graph(4, label="C")),
                   Pattern(path_graph(5, label="C"))]
        # junk candidates that cover nothing
        candidates = [Pattern(path_graph(4, label=f"X{i}"))
                      for i in range(5)]
        _, with_prune = multi_scan_swap(current, candidates, scorer,
                                        prune=True)
        assert with_prune.pruned == 5

    def test_prune_does_not_change_guarantee(self):
        repo = generate_chemical_repository(10, seed=34)
        scorer = SetScorer(CoverageIndex(repo))
        current = [Pattern(path_graph(4, label="C"))]
        candidates = [Pattern(star_graph(3, label="C")),
                      Pattern(path_graph(5, label="C"))]
        _, pruned = multi_scan_swap(current, candidates, scorer,
                                    prune=True)
        _, full = multi_scan_swap(current, candidates, scorer,
                                  prune=False)
        assert pruned.score_after >= pruned.score_before - 1e-12
        assert full.score_after >= full.score_before - 1e-12


class TestMidas:
    def test_initialization(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        assert len(midas.patterns) <= budget.max_patterns
        assert len(midas.patterns) > 0
        assert midas.gfd()

    def test_empty_repo_rejected(self, budget):
        with pytest.raises(PipelineError):
            Midas([], PipelineConfig(budget=budget))

    def test_unnamed_graphs_rejected(self, budget):
        anonymous = path_graph(4)
        anonymous.name = ""
        with pytest.raises(MaintenanceError):
            Midas([anonymous], PipelineConfig(budget=budget))

    def test_minor_batch_keeps_patterns(self, repo, budget):
        midas = Midas(repo, PipelineConfig(
            budget=budget, seed=1,
            options={"drift_threshold": 0.5}))
        before = midas.patterns.codes()
        rng = random.Random(5)
        batch = UpdateBatch(added=[generate_molecule(rng, name="new0")])
        report = midas.apply_batch(batch)
        assert report.kind == "minor"
        assert midas.patterns.codes() == before
        assert report.score_after == report.score_before

    def test_major_batch_never_degrades(self, repo, budget):
        midas = Midas(repo, PipelineConfig(
            budget=budget, seed=1,
            options={"drift_threshold": 0.0}))
        rng = random.Random(6)
        batch = UpdateBatch(
            added=[generate_molecule(rng, name=f"n{i}",
                                     motif_weights=[0.1, 0.1, 0.1, 5.0])
                   for i in range(10)])
        report = midas.apply_batch(batch)
        assert report.kind == "major"
        assert report.score_after >= report.score_before - 1e-12

    def test_removal_tracked(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        name = repo[0].name
        report = midas.apply_batch(UpdateBatch(removed=[name]))
        assert report.removed == 1
        assert name not in {g.name for g in midas.graphs()}

    def test_unknown_removal_quarantined(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        before = {g.name for g in midas.graphs()}
        report = midas.apply_batch(UpdateBatch(removed=["nope"]))
        assert report.removed == 0
        assert {g.name for g in midas.graphs()} == before
        assert len(report.quarantine) == 1
        assert report.quarantine[0].op == "remove"
        assert report.quarantine[0].name == "nope"
        assert report.degraded

    def test_duplicate_addition_quarantined(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        rng = random.Random(7)
        duplicate = generate_molecule(rng, name=repo[0].name)
        count = len(list(midas.graphs()))
        report = midas.apply_batch(UpdateBatch(added=[duplicate]))
        assert report.added == 0
        assert len(list(midas.graphs())) == count
        assert len(report.quarantine) == 1
        assert report.quarantine[0].op == "add"
        assert report.degraded

    def test_mixed_batch_applies_valid_ops(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        rng = random.Random(8)
        fresh = generate_molecule(rng, name="fresh0")
        batch = UpdateBatch(added=[fresh],
                            removed=[repo[0].name, "missing"])
        report = midas.apply_batch(batch)
        assert report.added == 1
        assert report.removed == 1
        assert len(report.quarantine) == 1
        names = {g.name for g in midas.graphs()}
        assert "fresh0" in names
        assert repo[0].name not in names

    def test_drift_accumulates_until_major(self, repo, budget):
        midas = Midas(repo, PipelineConfig(
            budget=budget, seed=1,
            options={"drift_threshold": 0.012}))
        evolving = EvolvingRepository([g.copy() for g in repo])
        stream = generate_update_stream(
            evolving, batches=8, batch_size=12, seed=9, drift_after=0,
            drift_weights=(0.05, 0.05, 0.05, 6.0))
        kinds = []
        for batch in stream:
            evolving.apply(batch)
            kinds.append(midas.apply_batch(batch).kind)
        assert "major" in kinds

    def test_batch_membership_assignment(self, repo, budget):
        midas = Midas(repo, PipelineConfig(budget=budget, seed=1))
        rng = random.Random(8)
        graph = generate_molecule(rng, name="assigned")
        midas.apply_batch(UpdateBatch(added=[graph]))
        assert "assigned" in midas.membership
