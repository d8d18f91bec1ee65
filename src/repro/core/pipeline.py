"""The unified selection-pipeline API.

CATAPULT, TATTOO, and MIDAS grew mutually inconsistent entry points
(budget positional here, config class there, four disconnected stats
endpoints).  This module is the one front door the paper's modular
framing argues for: a shared :class:`PipelineConfig` carrying the
cross-pipeline surface (budget, seed, workers, trace, weights,
max_embeddings) plus a per-pipeline ``options`` mapping, a
common :class:`PipelineResult` protocol every selection result
satisfies (``.patterns`` / ``.stats`` / ``.trace``), and runners::

    from repro.core.pipeline import PipelineConfig, run_selection

    config = PipelineConfig(budget=PatternBudget(8, 4, 8), seed=7,
                            workers=4, trace=True)
    result = run_selection(data, config)   # CATAPULT or TATTOO
    print(result.stats["timings"])         # stage wall times
    print(result.trace)                    # hierarchical span record
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Protocol, Sequence, Union, \
    runtime_checkable

from repro.catapult.pipeline import CatapultConfig, CatapultResult, \
    _run_catapult
from repro.config import RunConfig, stage_config
from repro.errors import PipelineError
from repro.graph.graph import Graph
from repro.midas.maintenance import Midas, MidasConfig
from repro.patterns.base import PatternBudget, PatternSet
from repro.tattoo.pipeline import TattooConfig, TattooResult, _run_tattoo


@dataclass(frozen=True)
class PipelineConfig(RunConfig):
    """The tunables of one selection run, for any pipeline.

    The shared run fields (seed, workers, caching, tracing, weights,
    embedding cap, deadline, retries) come from
    :class:`repro.config.RunConfig`.  ``budget`` is the display budget
    the selection fills.  Pipeline-specific knobs (for example
    CATAPULT's ``walks_per_cluster`` or TATTOO's ``truss_threshold``)
    ride in ``options`` and are validated against the chosen
    pipeline's stage config by :func:`repro.config.stage_config`.

    Under ``deadline_s`` (:class:`repro.resilience.Deadline`) the
    pipeline returns its best-so-far pattern set with
    ``result.degraded = True`` and a per-stage completion report — it
    never raises.
    """

    budget: Optional[PatternBudget] = None
    options: Mapping[str, object] = field(default_factory=dict)

    def with_options(self, **options: object) -> "PipelineConfig":
        """Copy with extra pipeline-specific options merged in."""
        merged = dict(self.options)
        merged.update(options)
        return replace(self, options=merged)

    def require_budget(self) -> PatternBudget:
        if self.budget is None:
            raise PipelineError(
                "PipelineConfig.budget is required to run a selection "
                "pipeline (pass budget=PatternBudget(...))")
        return self.budget


@runtime_checkable
class PipelineResult(Protocol):
    """What every selection pipeline hands back.

    ``patterns`` is the selected canned-pattern set; ``stats`` a flat
    dict of run statistics (stage timings, candidate counts, score);
    ``trace`` the hierarchical span record of the run, or ``None``
    when tracing was off; ``degraded`` is True when any stage stopped
    short (deadline expiry, skipped work items) — the per-stage
    detail lives in ``stats["completion"]``.
    """

    patterns: PatternSet

    @property
    def stats(self) -> Dict[str, object]:
        ...

    @property
    def trace(self) -> Optional[Dict[str, object]]:
        ...

    @property
    def degraded(self) -> bool:
        ...


def run_catapult(repository: Sequence[Graph],
                 config: Optional[PipelineConfig] = None
                 ) -> CatapultResult:
    """CATAPULT canned-pattern selection over a repository."""
    config = config or PipelineConfig()
    return _run_catapult(repository, config.require_budget(),
                         stage_config(CatapultConfig, config))


def run_tattoo(network: Graph,
               config: Optional[PipelineConfig] = None) -> TattooResult:
    """TATTOO canned-pattern selection on a single large network."""
    config = config or PipelineConfig()
    return _run_tattoo(network, config.require_budget(),
                       stage_config(TattooConfig, config))


def run_midas(repository: Sequence[Graph],
              config: Optional[PipelineConfig] = None) -> Midas:
    """A MIDAS maintenance engine initialised over ``repository``."""
    return Midas(repository, config or PipelineConfig())


def run_selection(data: Union[Graph, Sequence[Graph]],
                  config: Optional[PipelineConfig] = None
                  ) -> Union[CatapultResult, TattooResult]:
    """Dispatch on the data shape: one :class:`repro.graph.Graph` is
    a large network (TATTOO); a sequence is a repository (CATAPULT).
    The same rule :func:`repro.vqi.builder.build_vqi` applies."""
    if isinstance(data, Graph):
        return run_tattoo(data, config)
    return run_catapult(data, config)


__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "run_catapult",
    "run_midas",
    "run_selection",
    "run_tattoo",
    "CatapultConfig",
    "CatapultResult",
    "MidasConfig",
    "TattooConfig",
    "TattooResult",
]
