"""MIDAS: maintenance of canned patterns under batch updates
(Huang et al., SIGMOD 2021).

Built on top of CATAPULT state (clusters, CSGs, pattern set), MIDAS
processes an :class:`repro.datasets.UpdateBatch` as follows:

1. assign added graphs to existing clusters, drop removed graphs;
2. update the (incrementally maintained) graphlet frequency
   distribution and measure its Euclidean drift;
3. maintain the FCT vocabulary incrementally (per touched graph);
4. rebuild the CSGs of modified clusters only;
5. if the drift is below the threshold the modification is *minor* —
   the pattern set is untouched; otherwise it is *major* — candidates
   are walked out of the modified CSGs and merged into the pattern
   set with multi-scan swapping, which never lowers the set score.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.catapult.random_walk import generate_candidates
from repro.clustering.features import feature_vector_from_vocabulary
from repro.clustering.kmedoids import kmedoids
from repro.clustering.similarity import (
    distance_matrix_from_vectors,
    vector_euclidean,
)
from repro.config import RunConfig, stage_config
from repro.datasets.evolving import UpdateBatch
from repro.errors import MaintenanceError, PipelineError, WorkerFailure
from repro.graph.graph import Graph
from repro.graphlets.counting import GRAPHLET_KEYS, count_graphlets, gfd_distance
from repro.midas.fct import FCTIndex
from repro.midas.swapping import SwapStats, multi_scan_swap
from repro.obs import capture, metrics, span
from repro.patterns.base import Pattern, PatternSet
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SetScorer, greedy_select
from repro.perf.cache import MatchCache, cached_is_subgraph
from repro.resilience.deadline import CompletionReport, Deadline
from repro.summary.closure import SummaryGraph, build_summary
from repro.catapult.pipeline import default_cluster_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig


#: CSG random walks per modified cluster when candidates are drawn.
WALKS_PER_CLUSTER = 40

#: Repository graphs (sampled past this size) each batch's coverage
#: index scores against.
COVERAGE_SAMPLE = 50


@dataclass(frozen=True)
class MidasConfig(RunConfig):
    """Tunables of the MIDAS maintenance engine.

    The shared run fields come from :class:`repro.config.RunConfig`.
    ``workers`` parallelises the clustering distance matrix;
    ``use_cache`` keeps one :class:`repro.perf.MatchCache` alive for
    the lifetime of the engine, so coverage answers survive across
    swap scans *and* across batches (each batch builds a fresh
    coverage index, but most (pattern, graph) pairs repeat).  With
    ``workers`` > 1 that engine cache also rides into the coverage
    pool: workers are seeded with its hottest entries and their
    access deltas merge back in input order, so the engine cache
    stays the single source of truth at every worker count.
    ``drift_threshold`` separates minor from major batches;
    ``max_scans`` and ``prune`` drive multi-scan swapping.
    """

    drift_threshold: float = 0.015
    max_scans: int = 3
    prune: bool = True


class QuarantinedOp:
    """One batch operation refused by validation (never applied)."""

    __slots__ = ("op", "name", "reason")

    def __init__(self, op: str, name: str, reason: str) -> None:
        self.op = op
        self.name = name
        self.reason = reason

    def as_dict(self) -> Dict[str, str]:
        return {"op": self.op, "name": self.name, "reason": self.reason}

    def __repr__(self) -> str:
        return f"<QuarantinedOp {self.op} {self.name!r}: {self.reason}>"


class MaintenanceReport:
    """Outcome of applying one batch.

    ``trace`` is the batch's :mod:`repro.obs` span record (``None``
    unless tracing was on); ``stats`` flattens the report for the
    shared result shape.  ``quarantine`` lists batch operations that
    failed validation and were skipped — the valid remainder of the
    batch is still applied, so one malformed op can no longer corrupt
    (or abort) engine state.  ``degraded`` is True when anything was
    quarantined or a maintenance stage stopped short.
    """

    __slots__ = ("batch_index", "kind", "drift", "added", "removed",
                 "modified_clusters", "swap_stats", "duration",
                 "score_before", "score_after", "trace", "quarantine",
                 "completion")

    def __init__(self, batch_index: int, kind: str, drift: float,
                 added: int, removed: int, modified_clusters: int,
                 swap_stats: Optional[SwapStats], duration: float,
                 score_before: float, score_after: float,
                 trace: Optional[Dict[str, object]] = None,
                 quarantine: Optional[List[QuarantinedOp]] = None,
                 completion: Optional[CompletionReport] = None) -> None:
        self.batch_index = batch_index
        self.kind = kind
        self.drift = drift
        self.added = added
        self.removed = removed
        self.modified_clusters = modified_clusters
        self.swap_stats = swap_stats
        self.duration = duration
        self.score_before = score_before
        self.score_after = score_after
        self.trace = trace
        self.quarantine = list(quarantine or [])
        self.completion = completion or CompletionReport()

    @property
    def degraded(self) -> bool:
        return bool(self.quarantine) or self.completion.degraded

    @property
    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "pipeline": "midas",
            "batch": self.batch_index,
            "kind": self.kind,
            "drift": self.drift,
            "added": self.added,
            "removed": self.removed,
            "modified_clusters": self.modified_clusters,
            "duration": self.duration,
            "score_before": self.score_before,
            "score_after": self.score_after,
            "degraded": self.degraded,
            "completion": self.completion.as_dict(),
        }
        if self.quarantine:
            data["quarantined"] = [op.as_dict()
                                   for op in self.quarantine]
        if self.swap_stats is not None:
            data["swap"] = {
                "scans": self.swap_stats.scans,
                "swaps": self.swap_stats.swaps,
                "considered": self.swap_stats.considered,
                "pruned": self.swap_stats.pruned,
            }
        return data

    def __repr__(self) -> str:
        flags = ""
        if self.quarantine:
            flags = f" quarantined={len(self.quarantine)}"
        return (f"<MaintenanceReport #{self.batch_index} {self.kind} "
                f"drift={self.drift:.4f} "
                f"score {self.score_before:.3f}->{self.score_after:.3f}"
                f"{flags}>")


class Midas:
    """Stateful pattern-set maintainer for an evolving repository.

    Built from a :class:`repro.core.pipeline.PipelineConfig` (also via
    :func:`repro.core.pipeline.run_midas`): its budget is the display
    budget and its ``options`` set the :class:`MidasConfig` knobs.
    Satisfies the :class:`repro.core.pipeline.PipelineResult` protocol
    (``.patterns`` / ``.stats`` / ``.trace``).
    """

    def __init__(self, repository: Sequence[Graph],
                 config: PipelineConfig) -> None:
        self.budget = config.require_budget()
        self.config = stage_config(MidasConfig, config)
        if not repository:
            raise PipelineError("MIDAS needs a non-empty repository")
        self._graphs: Dict[str, Graph] = {}
        for graph in repository:
            if not graph.name:
                raise MaintenanceError("repository graphs need names")
            if graph.name in self._graphs:
                raise MaintenanceError(
                    f"duplicate graph name {graph.name!r}")
            self._graphs[graph.name] = graph
        self._rng = random.Random(self.config.seed)
        self._batch_index = 0
        # engine-lifetime match cache: coverage answers persist across
        # swap scans and batches (None when caching is disabled)
        self._match_cache: Optional[MatchCache] = \
            MatchCache() if self.config.use_cache else None
        # incrementally maintained state
        self.fct = FCTIndex()
        self._graphlet_counts: Dict[str, Dict[str, int]] = {}
        self._pooled_graphlets: Dict[str, int] = {
            key: 0 for key in GRAPHLET_KEYS}
        self.membership: Dict[str, int] = {}
        self.summaries: Dict[int, SummaryGraph] = {}
        self.patterns: PatternSet = PatternSet()
        self._initialize()

    # ------------------------------------------------------------------
    # initialisation (CATAPULT with the FCT vocabulary)
    # ------------------------------------------------------------------
    def graphs(self) -> List[Graph]:
        return list(self._graphs.values())

    def _account_graphlets(self, graph: Graph, sign: int) -> None:
        counts = self._graphlet_counts.get(graph.name)
        if counts is None:
            counts = count_graphlets(graph)
            self._graphlet_counts[graph.name] = counts
        for key, value in counts.items():
            self._pooled_graphlets[key] += sign * value
        if sign < 0:
            self._graphlet_counts.pop(graph.name, None)

    def gfd(self) -> Dict[str, float]:
        """Current pooled graphlet frequency distribution."""
        total = sum(self._pooled_graphlets.values())
        if total == 0:
            return {key: 0.0 for key in GRAPHLET_KEYS}
        return {key: value / total
                for key, value in self._pooled_graphlets.items()}

    def _feature_of(self, graph: Graph) -> List[float]:
        return feature_vector_from_vocabulary(graph, self._vocabulary)

    def _initialize(self) -> None:
        deadline = Deadline.start(self.config.deadline_s)
        report = CompletionReport()
        with capture("midas.initialize", force=self.config.trace,
                     graphs=len(self._graphs)) as run:
            graphs = self.graphs()
            with span("midas.fct") as stage:
                self.fct.build(graphs)
                for graph in graphs:
                    self._account_graphlets(graph, +1)
                self._gfd = self.gfd()
                self._vocabulary = self.fct.frequent_closed()
                stage.add("vocabulary", len(self._vocabulary))
                report.record("fct", 1, 1)
            with span("midas.cluster") as stage:
                k = default_cluster_count(len(graphs))
                if deadline.check("midas.cluster"):
                    # degrade to a single cluster rather than spend
                    # an exhausted budget on the distance matrix
                    labels = [0] * len(graphs)
                    report.record("cluster", 0, 1,
                                  note="deadline expired; "
                                       "single-cluster fallback")
                elif self._vocabulary:
                    matrix = [self._feature_of(g) for g in graphs]
                    distances = distance_matrix_from_vectors(
                        matrix, "euclidean",
                        workers=self.config.workers)
                    clustering = kmedoids(distances, k,
                                          seed=self.config.seed)
                    labels = clustering.labels
                    report.record("cluster", 1, 1)
                else:
                    labels = [0] * len(graphs)
                    report.record("cluster", 1, 1)
                for graph, label in zip(graphs, labels):
                    self.membership[graph.name] = label
                self._centroids = self._compute_centroids()
                stage.add("clusters",
                          len(set(self.membership.values())))
            with span("midas.summaries") as stage:
                self._rebuild_summaries(set(self.membership.values()),
                                        deadline, report)
                stage.add("summaries", len(self.summaries))
            with span("midas.candidates") as stage:
                candidates = self._walk_candidates(
                    set(self.summaries), deadline, report)
                stage.add("candidates", len(candidates))
            with span("midas.select") as stage:
                scorer = self._make_scorer()
                selection = greedy_select(candidates, self.budget,
                                          scorer, deadline=deadline,
                                          workers=self.config.workers)
                stage.add("evaluations", selection.evaluations)
                report.record("select", len(selection.patterns),
                              self.budget.max_patterns,
                              complete=selection.complete
                              and not selection.faults)
            self.patterns = selection.patterns
            self.last_score = selection.score
            if report.degraded:
                run.add("degraded", "true")
        self.trace = run.record
        self.completion = report
        self._publish_cache_gauges()

    @property
    def degraded(self) -> bool:
        """True when initialisation stopped short of its full work."""
        return self.completion.degraded

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _cluster_members(self, cluster: int) -> List[Graph]:
        return [self._graphs[name]
                for name, label in self.membership.items()
                if label == cluster]

    def _rebuild_summaries(self, clusters: Set[int],
                           deadline: Optional[Deadline] = None,
                           report: Optional[CompletionReport] = None
                           ) -> None:
        """Rebuild the CSGs of ``clusters`` (anytime: at least one,
        then poll the deadline; clusters cut off keep their stale
        summary, which is still a valid candidate source)."""
        deadline = deadline or Deadline(None)
        done = 0
        ordered = sorted(clusters)
        for cluster in ordered:
            if done and deadline.check("midas.summaries"):
                break
            members = self._cluster_members(cluster)
            if members:
                self.summaries[cluster] = build_summary(members)
            else:
                self.summaries.pop(cluster, None)
            done += 1
        if report is not None:
            report.record("summaries", done, len(ordered))

    def _compute_centroids(self) -> Dict[int, List[float]]:
        centroids: Dict[int, List[float]] = {}
        if not self._vocabulary:
            return centroids
        sums: Dict[int, List[float]] = {}
        counts: Dict[int, int] = {}
        for name, label in self.membership.items():
            vector = self._feature_of(self._graphs[name])
            if label not in sums:
                sums[label] = [0.0] * len(vector)
                counts[label] = 0
            sums[label] = [a + b for a, b in zip(sums[label], vector)]
            counts[label] += 1
        for label, total in sums.items():
            centroids[label] = [value / counts[label] for value in total]
        return centroids

    def _nearest_cluster(self, graph: Graph) -> int:
        if not self._centroids:
            return next(iter(self.summaries), 0)
        vector = self._feature_of(graph)
        return min(self._centroids,
                   key=lambda c: vector_euclidean(vector,
                                                  self._centroids[c]))

    def _walk_candidates(self, clusters: Set[int],
                         deadline: Optional[Deadline] = None,
                         report: Optional[CompletionReport] = None
                         ) -> List[Pattern]:
        """Candidate patterns walked out of the given clusters' CSGs.

        Anytime and fault-tolerant: clusters are processed in order
        with a deadline poll after each (the first always runs), and
        a matcher call that raises :class:`repro.errors.WorkerFailure`
        inside a validator merely rejects that candidate — counted,
        never propagated.
        """
        deadline = deadline or Deadline(None)
        candidates: List[Pattern] = []
        seen: Set[str] = set()
        targets = [c for c in sorted(clusters) if c in self.summaries]
        done = 0
        faults = 0
        for cluster in targets:
            if done and deadline.check("midas.candidates"):
                break
            summary = self.summaries[cluster]
            members = self._cluster_members(cluster)[:8]

            def validator(candidate: Graph,
                          probe: List[Graph] = members) -> bool:
                nonlocal faults
                try:
                    return any(cached_is_subgraph(
                        candidate, m, cache=self._match_cache)
                        for m in probe)
                except WorkerFailure:
                    faults += 1
                    return False

            for pattern in generate_candidates(
                    summary, self.budget, WALKS_PER_CLUSTER,
                    self._rng, source=f"midas:cluster{cluster}",
                    validator=validator):
                if pattern.code not in seen:
                    seen.add(pattern.code)
                    candidates.append(pattern)
            done += 1
        if faults:
            metrics.inc("midas.validator.faults", faults)
        if report is not None:
            report.record("candidates", done, len(targets),
                          complete=done >= len(targets)
                          and not faults,
                          note=f"{faults} validator fault(s)"
                          if faults else "")
        return candidates

    def _make_scorer(self) -> SetScorer:
        graphs = self.graphs()
        sample = graphs
        if len(sample) > COVERAGE_SAMPLE:
            sample = self._rng.sample(graphs, COVERAGE_SAMPLE)
        index = CoverageIndex(sample,
                              max_embeddings=self.config.max_embeddings,
                              size_utility=True,
                              cache=self._match_cache,
                              use_cache=self.config.use_cache)
        return SetScorer(index, weights=self.config.weights)

    def cache_stats(self) -> Optional[Dict[str, float]]:
        """Hit/miss counters of the engine's match cache (None if off).

        The same counters are published as ``midas.cache.*`` gauges
        in :func:`repro.obs.snapshot` after initialisation and after
        every batch.
        """
        if self._match_cache is None:
            return None
        return self._match_cache.stats()

    def _publish_cache_gauges(self) -> None:
        stats = self.cache_stats()
        if stats is None:
            return
        for key, value in stats.items():
            metrics.set_gauge(f"midas.cache.{key}", value)

    @property
    def stats(self) -> Dict[str, object]:
        """Flat engine statistics in the shared PipelineResult shape."""
        data: Dict[str, object] = {
            "pipeline": "midas",
            "patterns": len(self.patterns),
            "graphs": len(self._graphs),
            "batches": self._batch_index,
            "score": self.last_score,
            "degraded": self.degraded,
            "completion": self.completion.as_dict(),
        }
        cache = self.cache_stats()
        if cache is not None:
            data["cache"] = cache
        return data

    # ------------------------------------------------------------------
    # batch application
    # ------------------------------------------------------------------
    def _validate_batch(self, batch: UpdateBatch
                        ) -> "tuple[List[str], List[Graph], List[QuarantinedOp]]":
        """Split a batch into applicable ops and a quarantine list.

        Validation happens *before* any mutation, so a malformed op
        can neither corrupt engine state mid-batch nor abort the
        valid remainder: unknown removals and duplicate/unnamed
        additions are skipped and reported, everything else applies.
        """
        quarantine: List[QuarantinedOp] = []
        removals: List[str] = []
        seen_removed: Set[str] = set()
        for name in batch.removed:
            if name not in self._graphs or name in seen_removed:
                quarantine.append(QuarantinedOp(
                    "remove", str(name), "unknown graph"))
                continue
            seen_removed.add(name)
            removals.append(name)
        additions: List[Graph] = []
        seen_added: Set[str] = set()
        for graph in batch.added:
            if not graph.name:
                quarantine.append(QuarantinedOp(
                    "add", "", "graph needs a name"))
                continue
            occupied = (graph.name in self._graphs
                        and graph.name not in seen_removed)
            if occupied or graph.name in seen_added:
                quarantine.append(QuarantinedOp(
                    "add", graph.name, "duplicate graph name"))
                continue
            seen_added.add(graph.name)
            additions.append(graph)
        return removals, additions, quarantine

    def apply_batch(self, batch: UpdateBatch) -> MaintenanceReport:
        """Apply one update batch and maintain the pattern set.

        Invalid operations are quarantined (skipped, counted, and
        listed on the report) while the valid remainder of the batch
        is applied — the engine never raises on malformed batch
        content and never mutates state for an op that will fail.
        """
        start = time.perf_counter()
        self._batch_index += 1
        modified: Set[int] = set()
        stats: Optional[SwapStats] = None
        deadline = Deadline.start(self.config.deadline_s)
        report = CompletionReport()

        with capture("midas.apply_batch", force=self.config.trace,
                     batch=self._batch_index) as run:
            with span("midas.update") as stage:
                removals, additions, quarantine = \
                    self._validate_batch(batch)
                for name in removals:
                    graph = self._graphs.pop(name)
                    self.fct.remove_graph(graph)
                    self._account_graphlets(graph, -1)
                    modified.add(self.membership.pop(name))
                for graph in additions:
                    self._graphs[graph.name] = graph
                    self.fct.add_graph(graph)
                    self._account_graphlets(graph, +1)
                    cluster = self._nearest_cluster(graph)
                    self.membership[graph.name] = cluster
                    modified.add(cluster)
                stage.add("added", len(additions))
                stage.add("removed", len(removals))
                if quarantine:
                    stage.add("quarantined", len(quarantine))
                    metrics.inc("midas.quarantined", len(quarantine))
                ops = len(batch.added) + len(batch.removed)
                report.record("update", ops - len(quarantine), ops,
                              note=f"{len(quarantine)} op(s) "
                              "quarantined" if quarantine else "")

            # drift accumulates since the last time patterns were
            # (re)selected; minor batches do not reset the baseline
            drift = gfd_distance(self._gfd, self.gfd())
            with span("midas.summaries") as stage:
                self._rebuild_summaries(modified, deadline, report)
                stage.add("modified", len(modified))

            with span("midas.score"):
                scorer = self._make_scorer()
                score_before = scorer.score(list(self.patterns))

            if drift < self.config.drift_threshold:
                kind = "minor"
                score_after = score_before
                run.add("kind", kind)
            else:
                # major modification: refresh vocabulary + centroids,
                # then swap
                kind = "major"
                run.add("kind", kind)
                with span("midas.refresh"):
                    self._gfd = self.gfd()
                    self._vocabulary = self.fct.frequent_closed()
                    self._centroids = self._compute_centroids()
                with span("midas.candidates") as stage:
                    candidates = self._walk_candidates(
                        modified, deadline, report)
                    stage.add("candidates", len(candidates))
                with span("midas.swap"):
                    swapped, stats = multi_scan_swap(
                        list(self.patterns), candidates, scorer,
                        max_scans=self.config.max_scans,
                        prune=self.config.prune)
                    patterns = PatternSet(swapped)
                    # fill the budget if the set is short of it
                    if len(patterns) < self.budget.max_patterns:
                        selection = greedy_select(
                            candidates, self.budget, scorer,
                            seed_patterns=list(patterns),
                            deadline=deadline,
                            workers=self.config.workers)
                        patterns = selection.patterns
                        report.record(
                            "select", len(patterns),
                            self.budget.max_patterns,
                            complete=selection.complete
                            and not selection.faults)
                self.patterns = patterns
                score_after = scorer.score(list(patterns))
                self.last_score = score_after
            if quarantine or report.degraded:
                run.add("degraded", "true")

        metrics.inc("midas.batches")
        metrics.inc(f"midas.batches.{kind}")
        self._publish_cache_gauges()
        duration = time.perf_counter() - start
        return MaintenanceReport(
            self._batch_index, kind, drift,
            added=len(additions), removed=len(removals),
            modified_clusters=len(modified), swap_stats=stats,
            duration=duration, score_before=score_before,
            score_after=score_after, trace=run.record,
            quarantine=quarantine, completion=report)
