"""White-box tests for MIDAS's incrementally-maintained state."""

import random

import pytest

from repro.core import PipelineConfig
from repro.datasets import (
    UpdateBatch,
    generate_chemical_repository,
    generate_molecule,
)
from repro.graphlets import repository_gfd
from repro.midas import Midas
from repro.patterns import PatternBudget


@pytest.fixture(scope="module")
def midas():
    repo = generate_chemical_repository(30, seed=81)
    return Midas(repo, PipelineConfig(
        budget=PatternBudget(4, min_size=4, max_size=8), seed=1,
        options={"drift_threshold": 0.5}))


class TestGfdBookkeeping:
    def test_initial_gfd_matches_batch_recomputation(self, midas):
        assert midas.gfd() == pytest.approx(
            repository_gfd(midas.graphs()))

    def test_gfd_stays_exact_across_batches(self, midas):
        rng = random.Random(2)
        batch = UpdateBatch(
            added=[generate_molecule(rng, name=f"gfd{i}")
                   for i in range(4)],
            removed=[midas.graphs()[0].name])
        midas.apply_batch(batch)
        incremental = midas.gfd()
        recomputed = repository_gfd(midas.graphs())
        for key, value in recomputed.items():
            assert incremental[key] == pytest.approx(value)


class TestClusterBookkeeping:
    def test_every_graph_has_a_cluster(self, midas):
        names = {g.name for g in midas.graphs()}
        assert set(midas.membership) == names

    def test_summaries_cover_nonempty_clusters(self, midas):
        populated = set(midas.membership.values())
        assert populated <= set(midas.summaries)

    def test_summary_membership_counts(self, midas):
        from collections import Counter
        counts = Counter(midas.membership.values())
        for cluster, summary in midas.summaries.items():
            assert summary.member_count == counts[cluster]


class TestVocabulary:
    def test_vocabulary_is_closed_set(self, midas):
        from repro.clustering import closed_frequent_trees
        vocabulary = midas.fct.frequent_closed()
        # closedness is idempotent
        assert len(closed_frequent_trees(vocabulary)) == len(vocabulary)

    def test_fct_counts_match_repository(self, midas):
        assert midas.fct.graph_count == len(midas.graphs())
