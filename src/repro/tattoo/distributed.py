"""Distributed canned-pattern selection for massive networks.

The tutorial's second open problem (§2.5): networks too large for one
machine need "a distributed framework and novel construction ...
algorithms built on top of it".  This module implements the natural
partition-extract-merge design and *simulates* its distribution on
one machine (see DESIGN.md's substitution rule — no cluster is
available, but the algorithm and its work decomposition are real):

1. **partition** the network into balanced node partitions by
   multi-source BFS region growing;
2. each worker extracts TATTOO candidates from its partition plus a
   one-hop *halo* (so boundary-straddling structures stay visible)
   and pre-selects a local shortlist against its own view, so only
   O(budget) candidates cross the wire per worker;
3. the coordinator merges the shortlists (canonical-code dedup) and
   runs the global greedy selection.

Per-worker wall times are recorded so the simulated parallel makespan
(max worker time + coordinator time) can be compared against the
single-machine pipeline, which is what experiment E14 reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Dict, List, Optional, Set

from repro.errors import PipelineError, WorkerFailure
from repro.graph.graph import Graph
from repro.graph.operations import induced_subgraph
from repro.obs import capture, metrics, span
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SelectionResult, SetScorer, greedy_select
from repro.resilience.chaos import CORRUPTED, is_corrupt
from repro.resilience.chaos import site as chaos_site
from repro.resilience.deadline import CompletionReport, Deadline
from repro.tattoo.pipeline import TattooConfig, extract_candidates


def partition_network(network: Graph, parts: int,
                      seed: int = 0) -> List[Set[int]]:
    """Balanced node partitions by multi-source BFS region growing.

    Seeds are spread over the network; regions grow one frontier ring
    at a time, claiming unassigned nodes, so partitions are connected
    within each component and balanced to within a frontier ring.
    Unreached nodes (other components) are dealt round-robin.
    """
    if parts < 1:
        raise PipelineError("need at least one partition")
    nodes = sorted(network.nodes())
    if parts > len(nodes):
        raise PipelineError(
            f"cannot cut {len(nodes)} nodes into {parts} partitions")
    rng = random.Random(seed)
    seeds = rng.sample(nodes, parts)
    assignment: Dict[int, int] = {s: i for i, s in enumerate(seeds)}
    frontiers: List[Set[int]] = [{s} for s in seeds]
    while any(frontiers):
        for part in range(parts):
            next_frontier: Set[int] = set()
            for u in frontiers[part]:
                for v in network.neighbors(u):
                    if v not in assignment:
                        assignment[v] = part
                        next_frontier.add(v)
            frontiers[part] = next_frontier
    leftovers = [v for v in nodes if v not in assignment]
    for i, v in enumerate(leftovers):
        assignment[v] = i % parts
    partitions: List[Set[int]] = [set() for _ in range(parts)]
    for node, part in assignment.items():
        partitions[part].add(node)
    return partitions


def partition_with_halo(network: Graph, partition: Set[int],
                        hops: int = 1) -> Graph:
    """A worker's view: its partition plus a ``hops``-hop halo."""
    region = set(partition)
    frontier = set(partition)
    for _ in range(hops):
        grown: Set[int] = set()
        for u in frontier:
            grown.update(network.neighbors(u))
        frontier = grown - region
        region |= grown
    return induced_subgraph(network, region, name="worker-view")


class WorkerReport:
    """What one (simulated) worker did."""

    __slots__ = ("worker", "nodes", "halo_nodes", "candidates",
                 "duration", "failed")

    def __init__(self, worker: int, nodes: int, halo_nodes: int,
                 candidates: int, duration: float,
                 failed: bool = False) -> None:
        self.worker = worker
        self.nodes = nodes
        self.halo_nodes = halo_nodes
        self.candidates = candidates
        self.duration = duration
        self.failed = failed

    def __repr__(self) -> str:
        flag = " FAILED" if self.failed else ""
        return (f"<WorkerReport #{self.worker} nodes={self.nodes} "
                f"candidates={self.candidates} "
                f"{self.duration:.2f}s{flag}>")


class DistributedResult:
    """Merged selection plus the simulated distribution profile.

    Satisfies :class:`repro.core.pipeline.PipelineResult`:
    ``.patterns``, ``.stats``, and ``.trace`` (the run's span record
    with one ``distributed.worker`` child per worker; ``None`` unless
    tracing was on).
    """

    __slots__ = ("patterns", "selection", "workers", "merge_duration",
                 "select_duration", "candidate_total",
                 "candidate_unique", "completion", "trace")

    def __init__(self, patterns: PatternSet, selection: SelectionResult,
                 workers: List[WorkerReport], merge_duration: float,
                 select_duration: float, candidate_total: int,
                 candidate_unique: int,
                 completion: Optional[CompletionReport] = None,
                 trace: Optional[Dict[str, object]] = None) -> None:
        self.patterns = patterns
        self.selection = selection
        self.workers = workers
        self.merge_duration = merge_duration
        self.select_duration = select_duration
        self.candidate_total = candidate_total
        self.candidate_unique = candidate_unique
        self.completion = completion or CompletionReport()
        self.trace = trace

    @property
    def degraded(self) -> bool:
        """True when any worker failed, merge dropped a pool, or a
        deadline/fault cut a stage short."""
        return (any(w.failed for w in self.workers)
                or self.completion.degraded)

    @property
    def stats(self) -> Dict[str, object]:
        """Flat run statistics in the shared PipelineResult shape."""
        return {
            "pipeline": "tattoo-distributed",
            "patterns": len(self.patterns),
            "workers": len(self.workers),
            "failed_workers": sum(1 for w in self.workers if w.failed),
            "candidates": self.candidate_total,
            "unique_candidates": self.candidate_unique,
            "considered": self.selection.considered,
            "score": self.selection.score,
            "degraded": self.degraded,
            "completion": self.completion.as_dict(),
            "timings": {
                "makespan": self.makespan(),
                "sequential_work": self.sequential_work(),
                "merge": self.merge_duration,
                "select": self.select_duration,
            },
        }

    def makespan(self) -> float:
        """Simulated parallel wall time: slowest worker + coordinator."""
        worker_time = max((w.duration for w in self.workers),
                          default=0.0)
        return worker_time + self.merge_duration + self.select_duration

    def sequential_work(self) -> float:
        """Total worker CPU time (what one machine would spend)."""
        return (sum(w.duration for w in self.workers)
                + self.merge_duration + self.select_duration)

    def __repr__(self) -> str:
        return (f"<DistributedResult k={len(self.patterns)} "
                f"workers={len(self.workers)} "
                f"makespan={self.makespan():.2f}s>")


def select_patterns_distributed(network: Graph, budget: PatternBudget,
                                parts: int,
                                config: Optional[TattooConfig] = None,
                                halo_hops: int = 1,
                                shortlist_factor: int = 2,
                                coverage_sample_nodes: int = 2000
                                ) -> DistributedResult:
    """Partition-extract-merge pattern selection (simulated workers).

    Each worker pre-selects ``shortlist_factor * budget.max_patterns``
    candidates against its own view, bounding both the communication
    volume and the coordinator's selection cost.  The coordinator's
    coverage evaluation runs on the full network up to
    ``coverage_sample_nodes`` nodes; beyond that a BFS sample of that
    size stands in (a coordinator of a truly massive network never
    holds the whole graph anyway).
    """
    if network.size() == 0:
        raise PipelineError("need a network with edges")
    if shortlist_factor < 1:
        raise PipelineError("shortlist_factor must be >= 1")
    config = config or TattooConfig()
    deadline = Deadline.start(config.deadline_s)
    report = CompletionReport()

    with capture("tattoo.distributed", force=config.trace,
                 parts=parts, nodes=network.order()) as run:
        partitions = partition_network(network, parts,
                                       seed=config.seed)
        shortlist_budget = PatternBudget(
            shortlist_factor * budget.max_patterns,
            min_size=budget.min_size, max_size=budget.max_size)

        workers: List[WorkerReport] = []
        pools: List[object] = []
        failed_workers = 0
        for worker_id, partition in enumerate(partitions):
            if pools and deadline.check("distributed.worker"):
                break
            start = time.perf_counter()
            with span("distributed.worker", worker=worker_id) as unit:
                payload: object = []
                shortlist: List[Pattern] = []
                halo = 0
                worker_ok = True
                try:
                    corrupt = chaos_site("distributed.worker",
                                         key=worker_id)
                    view = partition_with_halo(network, partition,
                                               hops=halo_hops)
                    halo = view.order() - len(partition)
                    if view.size() > 0:
                        worker_config = replace(
                            config, seed=config.seed + worker_id,
                            workers=None, trace=False, deadline_s=None)
                        by_class = extract_candidates(view, budget,
                                                      worker_config)
                        candidates: List[Pattern] = []
                        local_seen: Set[str] = set()
                        for patterns in by_class.values():
                            for pattern in patterns:
                                if pattern.code not in local_seen:
                                    local_seen.add(pattern.code)
                                    candidates.append(pattern)
                        local_index = CoverageIndex(
                            [view],
                            max_embeddings=config.max_embeddings,
                            size_utility=True)
                        local_scorer = SetScorer(
                            local_index, weights=config.weights)
                        shortlist = list(greedy_select(
                            candidates, shortlist_budget,
                            local_scorer).patterns)
                    payload = CORRUPTED if corrupt else shortlist
                except WorkerFailure:
                    shortlist = []
                    payload = []
                    worker_ok = False
                    failed_workers += 1
                    unit.add("failed", "true")
                    metrics.inc("distributed.worker.failures")
                unit.add("nodes", len(partition))
                unit.add("candidates", len(shortlist))
            duration = time.perf_counter() - start
            pools.append(payload)
            workers.append(WorkerReport(
                worker_id, len(partition), halo, len(shortlist),
                duration, failed=not worker_ok))
        report.record("workers", len(pools) - failed_workers,
                      len(partitions),
                      complete=(len(pools) == len(partitions)
                                and not failed_workers),
                      note=(f"{failed_workers} worker(s) failed"
                            if failed_workers else None))

        start = time.perf_counter()
        with span("distributed.merge") as stage:
            merged: List[Pattern] = []
            seen: Set[str] = set()
            total = 0
            dropped_pools = 0
            for pool_id, pool in enumerate(pools):
                try:
                    corrupt = chaos_site("distributed.merge",
                                         key=pool_id)
                    if corrupt or is_corrupt(pool):
                        raise WorkerFailure(
                            "distributed.merge", key=pool_id,
                            kind="corrupt",
                            cause="corrupted shortlist payload")
                    for pattern in pool:
                        total += 1
                        if pattern.code not in seen:
                            seen.add(pattern.code)
                            merged.append(pattern)
                except WorkerFailure:
                    dropped_pools += 1
                    workers[pool_id].failed = True
                    metrics.inc("distributed.merge.failures")
            stage.add("merged", len(merged))
            if dropped_pools:
                stage.add("dropped_pools", dropped_pools)
        merge_duration = time.perf_counter() - start
        report.record("merge", len(pools) - dropped_pools, len(pools),
                      note=(f"{dropped_pools} pool(s) dropped"
                            if dropped_pools else None))

        start = time.perf_counter()
        with span("distributed.select", candidates=len(merged)):
            evaluation = network
            if network.order() > coverage_sample_nodes:
                from repro.graph.operations import bfs_order
                rng = random.Random(config.seed)
                root = rng.choice(sorted(network.nodes()))
                sample_nodes = bfs_order(network,
                                         root)[:coverage_sample_nodes]
                evaluation = induced_subgraph(
                    network, sample_nodes, name="coordinator-sample")
            index = CoverageIndex([evaluation],
                                  max_embeddings=config.max_embeddings,
                                  size_utility=True)
            scorer = SetScorer(index, weights=config.weights)
            selection = greedy_select(merged, budget, scorer,
                                      deadline=deadline)
        select_duration = time.perf_counter() - start
        report.record("select", len(selection.patterns),
                      budget.max_patterns,
                      complete=selection.complete
                      and not selection.faults,
                      note=(f"{selection.faults} scorer fault(s)"
                            if selection.faults else None))
        if any(w.failed for w in workers) or report.degraded:
            run.add("degraded", "true")

    return DistributedResult(selection.patterns, selection, workers,
                             merge_duration, select_duration,
                             candidate_total=total,
                             candidate_unique=len(merged),
                             completion=report,
                             trace=run.record)
