"""Data-driven VQI construction facade (the library's front door).

``build_vqi`` takes *data* — a repository of small graphs or one
large network — and a display budget, and returns a fully-populated
:class:`VisualQueryInterface`: attribute alphabets traversed from the
data, basic patterns, canned patterns selected by CATAPULT (for
repositories) or TATTOO (for networks), a query canvas, and a live
query engine feeding the results panel.  The same call works on any
data source: that is the portability claim of the data-driven
paradigm (paper §2.2).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.core.pipeline import PipelineConfig, run_selection
from repro.errors import PipelineError
from repro.graph.graph import Graph
from repro.graph.operations import edge_subgraph
from repro.patterns.base import PatternBudget
from repro.patterns.basic import default_basic_patterns
from repro.query.engine import (
    GraphMatch,
    NetworkQueryEngine,
    QueryEngine,
    QueryResultSet,
)
from repro.vqi.panels import (
    AttributePanel,
    PatternPanel,
    QueryPanel,
    ResultsPanel,
)
from repro.vqi.render import render_pattern_panel_svg
from repro.vqi.spec import VQISpec

DataSource = Union[Graph, Sequence[Graph]]


class VisualQueryInterface:
    """A live, headless VQI bound to its data source."""

    def __init__(self, spec: VQISpec,
                 repository: Optional[Sequence[Graph]] = None,
                 network: Optional[Graph] = None) -> None:
        if (repository is None) == (network is None):
            raise PipelineError(
                "bind a VQI to either a repository or a network")
        self.spec = spec
        self.attribute_panel = spec.attribute_panel
        self.pattern_panel = spec.pattern_panel
        self.query_panel = QueryPanel()
        self.results_panel = ResultsPanel()
        self.repository = list(repository) if repository is not None \
            else None
        self.network = network
        self._engine = (QueryEngine(self.repository)
                        if self.repository is not None
                        else NetworkQueryEngine(network))

    # -- querying -----------------------------------------------------------
    def execute(self, max_embeddings: int = 10) -> QueryResultSet:
        """Run the current query and populate the Results Panel."""
        query = self.query_panel.query
        if self.repository is not None:
            results = self._engine.run(
                query, max_embeddings_per_graph=max_embeddings)
        else:
            embeddings = self._engine.run(query,
                                          max_embeddings=max_embeddings)
            matches: List[GraphMatch] = []
            for i, mapping in enumerate(embeddings):
                edges = [(mapping[u], mapping[v])
                         for u, v in query.edges()]
                matched = edge_subgraph(self.network, edges,
                                        name=f"match{i}")
                matches.append(GraphMatch(i, matched, [mapping]))
            results = QueryResultSet(matches, graphs_searched=1,
                                     graphs_pruned=0)
        self.results_panel.show(results)
        return results

    def reset_query(self) -> None:
        self.query_panel.reset()

    # -- rendering ------------------------------------------------------------
    def render_pattern_panel(self, columns: int = 4, seed: int = 0) -> str:
        """SVG of the Pattern Panel (basic + canned)."""
        return render_pattern_panel_svg(self.pattern_panel.all_patterns(),
                                        columns=columns, seed=seed)

    def __repr__(self) -> str:
        kind = "repository" if self.repository is not None else "network"
        return (f"<VisualQueryInterface {kind} "
                f"canned={len(self.pattern_panel.canned)}>")


class BuildReport:
    """Provenance of one build (per-stage timings, generator used).

    ``trace`` carries the selection pipeline's :mod:`repro.obs` span
    record when the pipeline config asked for one (``None`` otherwise).
    ``degraded``/``completion`` surface the pipeline's anytime status:
    a build that ran out of deadline or skipped faulty work still
    returns a usable VQI, flagged here (see DESIGN.md, "Resilience").
    """

    __slots__ = ("generator", "duration", "details", "trace",
                 "degraded", "completion")

    def __init__(self, generator: str, duration: float,
                 details: Dict[str, float],
                 trace: Optional[Dict[str, object]] = None,
                 degraded: bool = False,
                 completion: Optional[Dict[str, Dict[str, object]]]
                 = None) -> None:
        self.generator = generator
        self.duration = duration
        self.details = details
        self.trace = trace
        self.degraded = degraded
        self.completion = completion or {}

    def __repr__(self) -> str:
        flag = " degraded" if self.degraded else ""
        return (f"<BuildReport {self.generator} "
                f"{self.duration:.2f}s{flag}>")


def _with_budget(config: Optional[PipelineConfig],
                 budget: PatternBudget) -> PipelineConfig:
    """``config`` (default: library defaults) bound to ``budget``, the
    panel's budget.  A ``config.budget`` that disagrees with it raises
    :class:`repro.errors.PipelineError` instead of being dropped."""
    config = config or PipelineConfig()
    if config.budget is not None and config.budget != budget:
        raise PipelineError(
            f"config.budget {config.budget!r} disagrees with the "
            f"panel budget {budget!r}")
    return replace(config, budget=budget)


def build_vqi(data: DataSource, budget: PatternBudget,
              config: Optional[PipelineConfig] = None,
              source_name: str = "") -> VisualQueryInterface:
    """Build a data-driven VQI from any graph data source.

    Selection dispatches through :func:`repro.core.pipeline.
    run_selection`: a single :class:`repro.graph.Graph` is treated as
    a large network (TATTOO), a sequence of graphs as a repository
    (CATAPULT).  ``config`` carries the run settings and pipeline
    options; ``budget`` is the panel's budget.
    """
    vqi, _ = build_vqi_with_report(data, budget, config,
                                   source_name=source_name)
    return vqi


def build_vqi_with_report(data: DataSource, budget: PatternBudget,
                          config: Optional[PipelineConfig] = None,
                          source_name: str = ""
                          ) -> tuple[VisualQueryInterface, BuildReport]:
    """Like :func:`build_vqi`, also returning build provenance."""
    start = time.perf_counter()
    if not isinstance(data, Graph):
        data = list(data)
    result = run_selection(data, _with_budget(config, budget))
    generator = result.stats["pipeline"]
    if generator == "tattoo":
        network, repository = data, None
        attribute_panel = AttributePanel.from_network(data)
        source = source_name or data.name or "network"
    else:
        network, repository = None, data
        attribute_panel = AttributePanel.from_repository(data)
        source = source_name or "repository"

    pattern_panel = PatternPanel(default_basic_patterns(),
                                 result.patterns, budget)
    spec = VQISpec(source, generator, attribute_panel, pattern_panel)
    vqi = VisualQueryInterface(spec, repository=repository,
                               network=network)
    report = BuildReport(generator, time.perf_counter() - start,
                         dict(result.timings), trace=result.trace,
                         degraded=result.degraded,
                         completion=result.completion.as_dict())
    return vqi, report
