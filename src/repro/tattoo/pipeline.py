"""The TATTOO pipeline (Yuan et al., PVLDB 2021).

Data-driven canned-pattern selection for a single large network:

1. **Decompose** the network into a truss-infested region G_T and a
   truss-oblivious region G_O via k-truss decomposition.
2. **Extract** candidates per query-log topology class: triangle-like
   classes (cliques, petals, flowers) from G_T, the rest (chains,
   stars, trees, cycles) from G_O.
3. **Select** greedily under the budget, maximising the pattern-set
   score (coverage + diversity - cognitive load); the greedy sweep on
   this regularised submodular objective carries TATTOO's
   1/e-approximation guarantee.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import RunConfig
from repro.errors import PipelineError
from repro.graph.graph import Graph
from repro.obs import capture, span
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SelectionResult, SetScorer, greedy_select
from repro.patterns.topologies import TopologyClass
from repro.perf.cache import get_match_cache
from repro.perf.executor import ItemFailure, derive_seed, \
    failure_policy, pmap, resolve_workers
from repro.resilience.deadline import CompletionReport, Deadline
from repro.tattoo.candidates import EXTRACTORS
from repro.truss.decomposition import DEFAULT_TRUSS_THRESHOLD, split_by_truss


@dataclass(frozen=True)
class TattooConfig(RunConfig):
    """Tunables of the TATTOO pipeline.

    The shared run fields come from :class:`repro.config.RunConfig`.
    ``workers`` fans the per-topology-class extraction out over
    :func:`repro.perf.pmap` processes; each class extracts with a seed
    split off ``seed``, so results are identical at every worker
    count.  ``use_cache`` toggles the shared VF2 match cache used by
    the greedy selection's coverage index — extraction and coverage
    pmap calls then run in cache-merge mode, so worker cache hits
    fold back into the coordinator's cache deterministically.
    ``truss_threshold`` splits G_T from G_O; ``samples_scale`` scales
    every extractor's sample count; ``classes`` picks the topology
    classes to extract (empty means all of them).
    """

    truss_threshold: int = DEFAULT_TRUSS_THRESHOLD
    samples_scale: float = 1.0
    classes: Sequence[TopologyClass] = tuple(EXTRACTORS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes",
                           tuple(self.classes or EXTRACTORS))


class TattooResult:
    """Pipeline outputs: regions, per-class candidates, selection.

    Satisfies :class:`repro.core.pipeline.PipelineResult`:
    ``.patterns``, ``.stats``, and ``.trace`` (the run's span record,
    ``None`` unless tracing was on).
    """

    __slots__ = ("patterns", "truss_region", "oblivious_region",
                 "candidates_by_class", "selection", "timings", "trace",
                 "completion")

    def __init__(self, patterns: PatternSet, truss_region: Graph,
                 oblivious_region: Graph,
                 candidates_by_class: Dict[TopologyClass, List[Pattern]],
                 selection: SelectionResult,
                 timings: Dict[str, float],
                 trace: Optional[Dict[str, object]] = None,
                 completion: Optional[CompletionReport] = None) -> None:
        self.patterns = patterns
        self.truss_region = truss_region
        self.oblivious_region = oblivious_region
        self.candidates_by_class = candidates_by_class
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
            "pipeline": "tattoo",
            "patterns": len(self.patterns),
            "classes": len(self.candidates_by_class),
            "candidates": sum(len(v) for v
                              in self.candidates_by_class.values()),
            "considered": self.selection.considered,
            "score": self.selection.score,
            "timings": dict(self.timings),
            "degraded": self.degraded,
            "completion": self.completion.as_dict(),
        }

    def all_candidates(self) -> List[Pattern]:
        out: List[Pattern] = []
        seen: set[str] = set()
        for patterns in self.candidates_by_class.values():
            for pattern in patterns:
                if pattern.code not in seen:
                    seen.add(pattern.code)
                    out.append(pattern)
        return out

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.candidates_by_class.values())
        return (f"<TattooResult k={len(self.patterns)} "
                f"candidates={total}>")


def _sample_kwargs(extractor, scale: float) -> Dict[str, int]:
    """Scaled sample-count kwarg for one extractor (empty at 1.0)."""
    if scale == 1.0:
        return {}
    # every extractor's last kwarg is its sample count
    import inspect
    sig = inspect.signature(extractor)
    last = list(sig.parameters)[-1]
    default = sig.parameters[last].default
    return {last: max(1, int(default * scale))}


def _extract_task(task) -> List[Pattern]:
    """One topology class's extraction (module-level: pool-runnable)."""
    cls, region, budget, kwargs, seed = task
    with span("tattoo.extract_class", topology=str(cls.value)) as work:
        extractor, _ = EXTRACTORS[cls]
        patterns = extractor(region, budget, random.Random(seed),
                             **kwargs)
        for pattern in patterns:
            pattern.code  # canonical coding happens in the worker
        work.add("patterns", len(patterns))
        return patterns


def extract_candidates(network: Graph, budget: PatternBudget,
                       config: TattooConfig,
                       deadline: Optional[Deadline] = None,
                       report: Optional[CompletionReport] = None
                       ) -> Dict[TopologyClass, List[Pattern]]:
    """Steps 1+2: truss split and per-class candidate extraction.

    Classes are independent work items: each extracts from its region
    with its own split seed under :func:`repro.perf.pmap`, and the
    per-class result map is assembled in ``config.classes`` order —
    identical output at every worker count.

    Resilience: a failing class task climbs pmap's retry ladder and
    is then skipped — its class simply contributes no candidates,
    which the completion report records.  Under a deadline classes
    are dispatched in worker-sized waves (first wave always runs), so
    a tight budget degrades to fewer topology classes, never zero.
    """
    deadline = deadline or Deadline(None)
    report = report if report is not None else CompletionReport()
    with span("tattoo.extract", classes=len(config.classes)) as stage:
        g_t, g_o = split_by_truss(network,
                                  threshold=config.truss_threshold)
        by_class: Dict[TopologyClass, List[Pattern]] = {}
        tasks = []
        task_classes: List[TopologyClass] = []
        for position, cls in enumerate(config.classes):
            extractor, region_kind = EXTRACTORS[cls]
            region = g_t if region_kind == "infested" else g_o
            if region.size() == 0:
                by_class[cls] = []
                continue
            tasks.append((cls, region, budget,
                          _sample_kwargs(extractor,
                                         config.samples_scale),
                          derive_seed(config.seed, position)))
            task_classes.append(cls)
        policy = failure_policy(config.max_retries, config.deadline_s)
        wave = (len(tasks) if deadline.seconds is None
                else max(1, resolve_workers(config.workers)))
        cache_merge = get_match_cache() if config.use_cache else None
        done = failed = 0
        for start in range(0, len(tasks), wave):
            if start and deadline.check("tattoo.extract"):
                break
            results = pmap(_extract_task, tasks[start:start + wave],
                           workers=config.workers,
                           max_retries=config.max_retries,
                           on_item_failure=policy,
                           retry_seed=config.seed,
                           site="tattoo.extract",
                           cache_merge=cache_merge)
            for cls, patterns in zip(task_classes[start:start + wave],
                                     results):
                if isinstance(patterns, ItemFailure):
                    by_class[cls] = []
                    failed += 1
                    continue
                by_class[cls] = patterns
                done += 1
        for cls in config.classes:
            by_class.setdefault(cls, [])
        stage.add("candidates",
                  sum(len(v) for v in by_class.values()))
        if failed:
            stage.add("failed_classes", failed)
        report.record("extract", done, len(tasks),
                      note=f"{failed} class task(s) skipped"
                      if failed else "")
        return by_class


def _run_tattoo(network: Graph, budget: PatternBudget,
                config: TattooConfig) -> TattooResult:
    """The pipeline body behind :func:`repro.core.pipeline.run_tattoo`."""
    if network.size() == 0:
        raise PipelineError("TATTOO needs a network with edges")
    timings: Dict[str, float] = {}
    deadline = Deadline.start(config.deadline_s)
    report = CompletionReport()

    with capture("tattoo.pipeline", force=config.trace,
                 nodes=network.order(), edges=network.size()) as run:
        start = time.perf_counter()
        with span("tattoo.decompose",
                  threshold=config.truss_threshold) as stage:
            g_t, g_o = split_by_truss(
                network, threshold=config.truss_threshold)
            stage.add("truss_edges", g_t.size())
            stage.add("oblivious_edges", g_o.size())
            report.record("decompose", 1, 1)
        timings["decompose"] = time.perf_counter() - start

        start = time.perf_counter()
        by_class = extract_candidates(network, budget, config,
                                      deadline, report)
        timings["extract"] = time.perf_counter() - start

        start = time.perf_counter()
        with span("tattoo.select") as stage:
            candidates: List[Pattern] = []
            seen: set[str] = set()
            for cls in config.classes:
                for pattern in by_class.get(cls, []):
                    if pattern.code not in seen:
                        seen.add(pattern.code)
                        candidates.append(pattern)
            stage.add("candidates", len(candidates))
            index = CoverageIndex(
                [network], max_embeddings=config.max_embeddings,
                size_utility=True, use_cache=config.use_cache)
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

    return TattooResult(selection.patterns, g_t, g_o, by_class,
                        selection, timings, trace=run.record,
                        completion=report)
