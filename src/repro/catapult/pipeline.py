"""The CATAPULT pipeline (Huang et al., SIGMOD 2019).

Data-driven canned-pattern selection for a repository of small- or
medium-sized graphs, in three steps:

1. **Cluster** the repository on frequent-subtree feature vectors.
2. **Summarise** each cluster into a cluster summary graph (CSG) by
   iterative graph closure.
3. **Select** canned patterns greedily from weighted-random-walk
   candidates, maximising the coverage/diversity/cognitive-load
   pattern-set score under the display budget.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.clustering.features import (
    mine_frequent_trees,
    repository_feature_matrix,
)
from repro.clustering.kmedoids import ClusteringResult, kmedoids
from repro.clustering.similarity import distance_matrix_from_vectors
from repro.config import RunConfig
from repro.errors import PipelineError
from repro.graph.graph import Graph
from repro.graph.operations import induced_subgraph, sample_connected_node_set
from repro.obs import capture, span
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SelectionResult, SetScorer, greedy_select
from repro.perf.cache import cached_is_subgraph
from repro.perf.executor import ItemFailure, derive_seed, \
    failure_policy, pmap, resolve_workers
from repro.resilience.deadline import CompletionReport, Deadline
from repro.summary.closure import SummaryGraph, build_summary
from repro.catapult.random_walk import generate_candidates


#: Connected subgraphs sampled from each cluster's members as extra
#: candidates, beside the CSG walks.
MEMBER_SAMPLES = 20

#: Repository graphs (sampled past this size) the selection's coverage
#: index scores against.
COVERAGE_SAMPLE = 60


@dataclass(frozen=True)
class CatapultConfig(RunConfig):
    """Tunables of the CATAPULT pipeline.

    The shared run fields come from :class:`repro.config.RunConfig`.
    ``workers`` fans the per-cluster candidate walks and the distance
    matrix out over :func:`repro.perf.pmap` processes; each cluster
    draws its walks from a seed split off ``seed`` with
    :func:`repro.perf.derive_seed`, so the selected patterns are
    identical at every worker count.  ``clusters`` fixes k (``None``
    picks :func:`default_cluster_count`); ``min_tree_support`` is the
    support threshold of the frequent-subtree features;
    ``walks_per_cluster`` is the number of CSG random walks per
    cluster.
    """

    clusters: Optional[int] = None
    min_tree_support: int = 2
    walks_per_cluster: int = 60


class CatapultResult:
    """Everything the pipeline produced, including stage timings.

    Satisfies :class:`repro.core.pipeline.PipelineResult`:
    ``.patterns``, ``.stats``, and ``.trace`` (the run's span record,
    ``None`` unless tracing was on).
    """

    __slots__ = ("patterns", "clustering", "summaries", "candidates",
                 "selection", "timings", "trace", "completion")

    def __init__(self, patterns: PatternSet, clustering: ClusteringResult,
                 summaries: List[SummaryGraph],
                 candidates: List[Pattern],
                 selection: SelectionResult,
                 timings: Dict[str, float],
                 trace: Optional[Dict[str, object]] = None,
                 completion: Optional[CompletionReport] = None) -> None:
        self.patterns = patterns
        self.clustering = clustering
        self.summaries = summaries
        self.candidates = candidates
        self.selection = selection
        self.timings = timings
        self.trace = trace
        self.completion = completion or CompletionReport()

    @property
    def degraded(self) -> bool:
        """True when any stage stopped short of its full work."""
        return self.completion.degraded

    @property
    def stats(self) -> Dict[str, object]:
        """Flat run statistics in the shared PipelineResult shape."""
        return {
            "pipeline": "catapult",
            "patterns": len(self.patterns),
            "clusters": len(self.summaries),
            "candidates": len(self.candidates),
            "considered": self.selection.considered,
            "score": self.selection.score,
            "timings": dict(self.timings),
            "degraded": self.degraded,
            "completion": self.completion.as_dict(),
        }

    def __repr__(self) -> str:
        state = " degraded" if self.degraded else ""
        return (f"<CatapultResult k={len(self.patterns)} "
                f"clusters={len(self.summaries)} "
                f"candidates={len(self.candidates)}{state}>")


def default_cluster_count(repository_size: int) -> int:
    """Heuristic k = sqrt(n/2), clamped to [1, n]."""
    if repository_size <= 1:
        return 1
    return max(1, min(repository_size,
                      round(math.sqrt(repository_size / 2))))


def cluster_repository(repository: Sequence[Graph],
                       config: CatapultConfig,
                       deadline: Optional[Deadline] = None,
                       report: Optional[CompletionReport] = None
                       ) -> ClusteringResult:
    """Step 1: frequent-subtree features + k-medoids.

    Under an already-expired deadline the stage degrades to the same
    trivial single-cluster result a featureless repository gets —
    the cheapest clustering that still lets the later stages produce
    patterns — and records itself incomplete.
    """
    deadline = deadline or Deadline(None)
    report = report if report is not None else CompletionReport()
    with span("catapult.cluster", graphs=len(repository)) as stage:
        if deadline.check("catapult.cluster"):
            stage.add("clusters", 1)
            report.record("cluster", 0, 1,
                          note="deadline expired; single-cluster "
                               "fallback")
            return ClusteringResult(labels=[0] * len(repository),
                                    medoids=[0], cost=0.0)
        vocabulary = mine_frequent_trees(
            repository, min_support=config.min_tree_support)
        k = config.clusters or default_cluster_count(len(repository))
        stage.add("vocabulary", len(vocabulary))
        if not vocabulary:
            # degenerate repositories (no shared subtree): one cluster
            stage.add("clusters", 1)
            report.record("cluster", 1, 1)
            return ClusteringResult(labels=[0] * len(repository),
                                    medoids=[0], cost=0.0)
        matrix = repository_feature_matrix(repository, vocabulary)
        distances = distance_matrix_from_vectors(
            matrix, metric="euclidean", workers=config.workers)
        stage.add("clusters", k)
        report.record("cluster", 1, 1)
        return kmedoids(distances, k, seed=config.seed)


def summarize_clusters(repository: Sequence[Graph],
                       clustering: ClusteringResult,
                       deadline: Optional[Deadline] = None,
                       report: Optional[CompletionReport] = None
                       ) -> List[SummaryGraph]:
    """Step 2: one CSG per non-empty cluster.

    Anytime: always summarises at least one cluster, then polls the
    deadline between clusters; clusters cut off here simply produce
    no candidates later.
    """
    deadline = deadline or Deadline(None)
    report = report if report is not None else CompletionReport()
    with span("catapult.summarize") as stage:
        populated = [m for m in clustering.clusters() if m]
        summaries: List[SummaryGraph] = []
        for members in populated:
            if summaries and deadline.check("catapult.summarize"):
                break
            summaries.append(
                build_summary([repository[i] for i in members]))
        stage.add("summaries", len(summaries))
        report.record("summarize", len(summaries), len(populated))
        return summaries


def _make_validator(members: Sequence[Graph], sample: int = 8):
    """Candidate validator: occurs in at least one cluster member.

    Validation runs through :func:`repro.perf.cached_is_subgraph`
    (same ``"matching.is_subgraph"`` chaos site as the raw matcher),
    so repeated probes of the same candidate against the same member
    hit the match cache — and, inside a pool worker, land in the
    item's :class:`repro.perf.CacheDelta` for the coordinator to
    merge.
    """
    probe = list(members[:sample])

    def validator(candidate: Graph) -> bool:
        return any(cached_is_subgraph(candidate, member)
                   for member in probe)

    return validator


def _cluster_candidates_task(task) -> List[Pattern]:
    """One cluster's candidates (module-level: runs in pool workers).

    ``task`` is ``(cluster_index, member_graphs, summary, budget,
    walks, seed)``; the per-cluster RNG is built from the split seed,
    so the output depends only on the task content, never on which
    worker ran it or in what order.
    """
    cluster_index, member_graphs, summary, budget, walks, seed = task
    with span("catapult.cluster_walks", cluster=cluster_index) as walk:
        rng = random.Random(seed)
        validator = _make_validator(member_graphs)
        out: List[Pattern] = []
        for pattern in generate_candidates(
                summary, budget, walks, rng,
                source=f"catapult:cluster{cluster_index}",
                validator=validator):
            pattern.code  # canonical coding happens in the worker
            out.append(pattern)
        for _ in range(MEMBER_SAMPLES):
            member = rng.choice(member_graphs)
            if member.order() < budget.min_size:
                continue
            size = rng.randint(budget.min_size,
                               min(budget.max_size, member.order()))
            node_set = sample_connected_node_set(member, size, rng,
                                                 attempts=5)
            if node_set is None:
                continue
            sampled = induced_subgraph(member, node_set).normalized()
            pattern = Pattern(sampled,
                              source=f"catapult:member{cluster_index}")
            pattern.code
            out.append(pattern)
        walk.add("patterns", len(out))
        return out


def generate_all_candidates(repository: Sequence[Graph],
                            clustering: ClusteringResult,
                            summaries: List[SummaryGraph],
                            budget: PatternBudget,
                            config: CatapultConfig,
                            deadline: Optional[Deadline] = None,
                            report: Optional[CompletionReport] = None
                            ) -> List[Pattern]:
    """Step 3a: candidate patterns from every cluster, deduplicated.

    Two complementary sources per cluster: support-weighted random
    walks over the CSG (shared substructure, mixed labels) and
    connected subgraphs sampled from cluster members directly
    (exact labels — this is how ring motifs reliably surface).
    Clusters are independent work items; they run under
    :func:`repro.perf.pmap` with one derived seed each and merge in
    cluster order, so the result is worker-count invariant.

    Resilience: a failing cluster task climbs pmap's retry ladder and
    is then skipped (recorded here, never raised).  Under a deadline
    clusters are dispatched in worker-sized waves — the first wave
    always runs, later waves only while budget remains — so the stage
    degrades to fewer clusters' candidates rather than none.
    """
    deadline = deadline or Deadline(None)
    report = report if report is not None else CompletionReport()
    with span("catapult.candidates") as stage:
        clusters = [c for c in clustering.clusters() if c]
        stage.add("clusters", len(clusters))
        tasks = []
        for cluster_index, (members, summary) in enumerate(
                zip(clusters, summaries)):
            member_graphs = [repository[i] for i in members]
            tasks.append((cluster_index, member_graphs, summary, budget,
                          config.walks_per_cluster,
                          derive_seed(config.seed, cluster_index)))
        policy = failure_policy(config.max_retries, config.deadline_s)
        wave = (len(tasks) if deadline.seconds is None
                else max(1, resolve_workers(config.workers)))
        candidates: List[Pattern] = []
        seen: set[str] = set()
        done = failed = 0
        for start in range(0, len(tasks), wave):
            if start and deadline.check("catapult.candidates"):
                break
            for batch in pmap(_cluster_candidates_task,
                              tasks[start:start + wave],
                              workers=config.workers,
                              max_retries=config.max_retries,
                              on_item_failure=policy,
                              retry_seed=config.seed,
                              site="catapult.candidates"):
                if isinstance(batch, ItemFailure):
                    failed += 1
                    continue
                done += 1
                for pattern in batch:
                    if pattern.code not in seen:
                        seen.add(pattern.code)
                        candidates.append(pattern)
        stage.add("candidates", len(candidates))
        if failed:
            stage.add("failed_clusters", failed)
        report.record("candidates", done, len(tasks),
                      note=f"{failed} cluster task(s) skipped"
                      if failed else "")
        return candidates


def _run_catapult(repository: Sequence[Graph],
                  budget: PatternBudget,
                  config: CatapultConfig) -> CatapultResult:
    """The pipeline body behind :func:`repro.core.pipeline.run_catapult`."""
    if not repository:
        raise PipelineError("CATAPULT needs a non-empty repository")
    timings: Dict[str, float] = {}
    deadline = Deadline.start(config.deadline_s)
    report = CompletionReport()

    with capture("catapult.pipeline", force=config.trace,
                 graphs=len(repository)) as run:
        start = time.perf_counter()
        clustering = cluster_repository(repository, config,
                                        deadline, report)
        timings["cluster"] = time.perf_counter() - start

        start = time.perf_counter()
        summaries = summarize_clusters(repository, clustering,
                                       deadline, report)
        timings["summarize"] = time.perf_counter() - start

        start = time.perf_counter()
        candidates = generate_all_candidates(repository, clustering,
                                             summaries, budget, config,
                                             deadline, report)
        timings["candidates"] = time.perf_counter() - start

        start = time.perf_counter()
        with span("catapult.select", candidates=len(candidates)) as stage:
            rng = random.Random(config.seed)
            sample = list(repository)
            if len(sample) > COVERAGE_SAMPLE:
                sample = rng.sample(sample, COVERAGE_SAMPLE)
            index = CoverageIndex(sample,
                                  max_embeddings=config.max_embeddings,
                                  size_utility=True)
            scorer = SetScorer(index, weights=config.weights)
            selection = greedy_select(candidates, budget, scorer,
                                      deadline=deadline,
                                      workers=config.workers)
            stage.add("evaluations", selection.evaluations)
            report.record("select", len(selection.patterns),
                          budget.max_patterns,
                          complete=selection.complete
                          and not selection.faults,
                          note=f"{selection.faults} evaluation "
                          "fault(s)" if selection.faults else "")
        timings["select"] = time.perf_counter() - start
        if report.degraded:
            run.add("degraded", "true")

    return CatapultResult(selection.patterns, clustering, summaries,
                          candidates, selection, timings,
                          trace=run.record, completion=report)
