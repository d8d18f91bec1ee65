"""Keeping a live VQI consistent with an evolving repository.

Binds a :class:`repro.midas.Midas` maintainer to a
:class:`repro.vqi.VisualQueryInterface`: applying an update batch
refreshes the attribute alphabets, swaps the maintained canned
patterns into the Pattern Panel, and rebinds the query engine to the
updated repository.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.pipeline import PipelineConfig
from repro.datasets.evolving import UpdateBatch
from repro.errors import PipelineError
from repro.midas.maintenance import MaintenanceReport, Midas
from repro.patterns.base import PatternBudget
from repro.query.engine import QueryEngine
from repro.vqi.builder import VisualQueryInterface, _with_budget, build_vqi
from repro.vqi.panels import AttributePanel, PatternPanel
from repro.vqi.spec import VQISpec


class MaintainedVQI:
    """A repository VQI paired with its MIDAS maintainer.

    ``config`` carries the maintainer's run settings and MIDAS
    options; its budget, if set, must agree with the panel's.
    """

    def __init__(self, vqi: VisualQueryInterface,
                 config: Optional[PipelineConfig] = None) -> None:
        if vqi.repository is None:
            raise PipelineError(
                "MIDAS maintenance applies to repository VQIs only")
        self.vqi = vqi
        self.midas = Midas(vqi.repository,
                           _with_budget(config, vqi.pattern_panel.budget))
        # adopt the maintainer's (FCT-vocabulary) initial selection so
        # panel and maintainer state agree from the start
        self._sync()
        self.reports: List[MaintenanceReport] = []

    def _sync(self) -> None:
        vqi = self.vqi
        repository = self.midas.graphs()
        vqi.repository = repository
        vqi._engine = QueryEngine(repository)
        attribute_panel = AttributePanel.from_repository(repository)
        pattern_panel = PatternPanel(vqi.pattern_panel.basic,
                                     self.midas.patterns,
                                     vqi.pattern_panel.budget)
        vqi.attribute_panel = attribute_panel
        vqi.pattern_panel = pattern_panel
        vqi.spec = VQISpec(vqi.spec.source, "catapult+midas",
                           attribute_panel, pattern_panel)

    def apply_batch(self, batch: UpdateBatch) -> MaintenanceReport:
        """Apply one repository update batch and refresh the VQI."""
        report = self.midas.apply_batch(batch)
        self._sync()
        self.reports.append(report)
        return report

    def __repr__(self) -> str:
        return (f"<MaintainedVQI batches={len(self.reports)} "
                f"canned={len(self.midas.patterns)}>")


def build_maintained_vqi(repository: Sequence, budget: PatternBudget,
                         config: Optional[PipelineConfig] = None
                         ) -> MaintainedVQI:
    """One-call construction of a VQI with maintenance attached."""
    vqi = build_vqi(list(repository), budget)
    return MaintainedVQI(vqi, config=config)
