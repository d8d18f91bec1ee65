"""High-level API: data-driven VQI construction and maintenance.

This is the paper's primary contribution surface — one import gives
the full data-driven workflow::

    from repro.core import build_vqi, PatternBudget

    vqi = build_vqi(my_graphs, PatternBudget(10, min_size=4, max_size=8))
    vqi.query_panel.builder.add_pattern(vqi.pattern_panel.canned[0])
    results = vqi.execute()

Selection pipelines share one configuration surface —
:class:`repro.core.pipeline.PipelineConfig` — and one result protocol
(:class:`repro.core.pipeline.PipelineResult`); see
:mod:`repro.core.pipeline` for the unified runners.
"""

from repro.catapult.pipeline import CatapultConfig, CatapultResult
from repro.core.pipeline import (
    PipelineConfig,
    PipelineResult,
    run_catapult,
    run_midas,
    run_selection,
    run_tattoo,
)
from repro.midas.maintenance import MaintenanceReport, Midas, MidasConfig
from repro.modular.architecture import ModularPipeline, ModularResult
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.scoring import ScoreWeights, pattern_set_score
from repro.tattoo.pipeline import TattooConfig, TattooResult
from repro.vqi.builder import (
    VisualQueryInterface,
    build_vqi,
    build_vqi_with_report,
)
from repro.vqi.maintenance import MaintainedVQI, build_maintained_vqi
from repro.vqi.spec import VQISpec

__all__ = [
    "CatapultConfig",
    "CatapultResult",
    "PipelineConfig",
    "PipelineResult",
    "run_catapult",
    "run_midas",
    "run_selection",
    "run_tattoo",
    "MaintenanceReport",
    "Midas",
    "MidasConfig",
    "ModularPipeline",
    "ModularResult",
    "Pattern",
    "PatternBudget",
    "PatternSet",
    "ScoreWeights",
    "pattern_set_score",
    "TattooConfig",
    "TattooResult",
    "VisualQueryInterface",
    "build_vqi",
    "build_vqi_with_report",
    "MaintainedVQI",
    "build_maintained_vqi",
    "VQISpec",
]
