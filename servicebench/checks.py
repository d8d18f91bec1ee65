"""In-process controls the served panels are compared against."""

from __future__ import annotations

from pathlib import Path
from typing import List

from harness import PIPELINE_SEED

from repro.core.pipeline import PipelineConfig, run_tattoo
from repro.datasets import UpdateBatch
from repro.graph.graph import Graph
from repro.graph.io import graph_from_dict, read_lg
from repro.service import DEFAULT_BUDGET, PatternService, wire


def pipeline_config() -> PipelineConfig:
    """The configuration ``repro-vqi serve`` builds from its default
    flags and the benchmark's fixed seed, run serially."""
    return PipelineConfig(budget=DEFAULT_BUDGET, seed=PIPELINE_SEED,
                          workers=1)


def replay_memory_service(data: Path, batches: List[dict]) -> list:
    """The panel a memory-backed service reaches after ``batches``."""
    service = PatternService(read_lg(data), pipeline_config())
    for body in batches:
        service.apply_maintenance(UpdateBatch(
            added=[graph_from_dict(item) for item in body["add"]],
            removed=list(body["remove"])))
    return wire.patterns_to_list(service.snapshots.current().patterns)


def tattoo_panel(network: Graph) -> list:
    """The panel ``run_tattoo`` selects on the served network."""
    return wire.patterns_to_list(
        run_tattoo(network, pipeline_config()).patterns)
