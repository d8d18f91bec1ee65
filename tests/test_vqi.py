"""Tests for panels, spec round-trip, builder facade, and maintenance."""

import pytest

from repro.core import PipelineConfig
from repro.datasets import (
    NetworkConfig,
    UpdateBatch,
    generate_chemical_repository,
    generate_molecule,
    generate_network,
)
from repro.errors import FormatError, PipelineError
from repro.graph import path_graph
from repro.patterns import Pattern, PatternBudget, PatternSet, \
    default_basic_patterns
from repro.vqi import (
    AttributePanel,
    MaintainedVQI,
    PatternPanel,
    QueryPanel,
    ResultsPanel,
    VQISpec,
    VisualQueryInterface,
    build_maintained_vqi,
    build_vqi,
    build_vqi_with_report,
)

import random


@pytest.fixture(scope="module")
def repo():
    return generate_chemical_repository(30, seed=19)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(5, min_size=4, max_size=8)


@pytest.fixture(scope="module")
def vqi(repo, budget):
    return build_vqi(repo, budget)


class TestAttributePanel:
    def test_from_repository(self, repo):
        panel = AttributePanel.from_repository(repo)
        assert "C" in panel.node_labels
        assert panel.node_alphabet()[0] == "C"  # carbon dominates
        assert set(panel.edge_labels) <= {"1", "2"}

    def test_from_network(self):
        net = generate_network(NetworkConfig(nodes=60), seed=1)
        panel = AttributePanel.from_network(net)
        assert sum(panel.node_labels.values()) == 60


class TestPatternPanel:
    def test_composition(self, vqi, budget):
        panel = vqi.pattern_panel
        assert len(panel.basic) == 3
        assert panel.within_budget()
        assert len(panel.all_patterns()) == len(panel.basic) + len(
            panel.canned)

    def test_aesthetics_keys(self, vqi):
        metrics = vqi.pattern_panel.aesthetics()
        assert set(metrics) == {"visual_complexity", "layout_quality",
                                "satisfaction", "crossings"}
        assert 0.0 <= metrics["visual_complexity"] < 1.0


class TestBuilder:
    def test_repository_uses_catapult(self, repo, budget):
        _, report = build_vqi_with_report(repo, budget)
        assert report.generator == "catapult"
        assert report.duration > 0

    def test_network_uses_tattoo(self, budget):
        net = generate_network(NetworkConfig(nodes=150), seed=5)
        vqi, report = build_vqi_with_report(net, budget)
        assert report.generator == "tattoo"
        assert vqi.network is net

    def test_empty_data_rejected(self, budget):
        with pytest.raises(PipelineError):
            build_vqi([], budget)

    def test_config_budget_must_agree_with_the_panel(self, repo, budget,
                                                     vqi):
        with pytest.raises(PipelineError):
            build_vqi(repo, budget, PipelineConfig(
                budget=PatternBudget(3, min_size=4, max_size=8)))
        same = build_vqi(repo, budget, PipelineConfig(
            budget=PatternBudget(5, min_size=4, max_size=8)))
        assert same.pattern_panel.canned.codes() \
            == vqi.pattern_panel.canned.codes()

    def test_binding_validation(self, vqi):
        with pytest.raises(PipelineError):
            VisualQueryInterface(vqi.spec)

    def test_execute_repository_query(self, vqi):
        vqi.reset_query()
        pattern = vqi.pattern_panel.canned[0]
        vqi.query_panel.builder.add_pattern(pattern)
        results = vqi.execute()
        assert results.match_count() > 0
        assert not vqi.results_panel.is_empty()

    def test_execute_network_query(self, budget):
        net = generate_network(NetworkConfig(nodes=150), seed=5)
        vqi = build_vqi(net, budget)
        vqi.query_panel.builder.add_pattern(vqi.pattern_panel.canned[0])
        results = vqi.execute(max_embeddings=4)
        assert results.match_count() > 0
        # network matches come back as small result subgraphs
        for match in results.matches:
            assert match.graph.order() <= 2 * budget.max_size

    def test_render_pattern_panel_svg(self, vqi):
        svg = vqi.render_pattern_panel()
        assert svg.startswith("<svg")
        assert svg.count("<circle") > 5

    def test_portability_same_call_shape(self, repo, budget):
        """The portability claim: one builder call for either source."""
        net = generate_network(NetworkConfig(nodes=120), seed=6)
        vqi_repo = build_vqi(repo, budget)
        vqi_net = build_vqi(net, budget)
        for vqi in (vqi_repo, vqi_net):
            assert vqi.pattern_panel.canned
            assert vqi.attribute_panel.node_alphabet()


class TestSpec:
    def test_json_roundtrip(self, vqi):
        text = vqi.spec.to_json()
        restored = VQISpec.from_json(text)
        assert restored.generator == vqi.spec.generator
        assert restored.pattern_panel.canned.codes() == \
            vqi.spec.pattern_panel.canned.codes()
        assert restored.attribute_panel.node_labels == \
            vqi.spec.attribute_panel.node_labels

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            VQISpec.from_json("{")

    def test_wrong_version_rejected(self, vqi):
        data = vqi.spec.to_dict()
        data["version"] = 99
        with pytest.raises(FormatError):
            VQISpec.from_dict(data)

    def test_missing_fields_rejected(self):
        with pytest.raises(FormatError):
            VQISpec.from_dict({"version": 1})


class TestQueryAndResultsPanels:
    def test_query_panel_reset(self):
        panel = QueryPanel()
        panel.builder.add_node("A")
        panel.reset()
        assert panel.query.order() == 0

    def test_results_panel_lifecycle(self, vqi):
        panel = ResultsPanel()
        assert panel.is_empty()
        assert panel.displayed_graphs() == []
        vqi.reset_query()
        vqi.query_panel.builder.add_pattern(vqi.pattern_panel.canned[0])
        results = vqi.execute()
        panel.show(results)
        assert not panel.is_empty()
        assert panel.displayed_graphs(limit=2)
        metrics = panel.aesthetics()
        assert "satisfaction" in metrics


class TestMaintainedVQI:
    def test_maintenance_updates_panel(self, repo, budget):
        maintained = build_maintained_vqi(repo, budget)
        rng = random.Random(3)
        batch = UpdateBatch(
            added=[generate_molecule(rng, name=f"mnt{i}")
                   for i in range(5)])
        report = maintained.apply_batch(batch)
        assert report.batch_index == 1
        assert maintained.vqi.spec.generator == "catapult+midas"
        # engine rebound to the grown repository
        assert len(maintained.vqi.repository) == len(repo) + 5

    def test_config_reaches_the_maintainer(self, repo, budget):
        maintained = build_maintained_vqi(repo[:15], budget, PipelineConfig(
            seed=1, options={"drift_threshold": 0.5}))
        assert maintained.midas.config.seed == 1
        assert maintained.midas.config.drift_threshold == 0.5

    def test_network_vqi_rejected(self, budget):
        net = generate_network(NetworkConfig(nodes=100), seed=7)
        vqi = build_vqi(net, budget)
        with pytest.raises(PipelineError):
            MaintainedVQI(vqi)

    def test_reports_accumulate(self, repo, budget):
        maintained = build_maintained_vqi(repo[:15], budget)
        rng = random.Random(4)
        for i in range(2):
            maintained.apply_batch(UpdateBatch(
                added=[generate_molecule(rng, name=f"r{i}_{j}")
                       for j in range(3)]))
        assert len(maintained.reports) == 2


class TestSpecDiff:
    def test_identical_specs_empty_diff(self, vqi):
        from repro.vqi import spec_diff
        diff = spec_diff(vqi.spec, vqi.spec)
        assert diff.is_empty()
        assert diff.pattern_churn() == 0.0
        assert diff.summary() == "no changes"

    def test_maintenance_produces_diff(self, repo, budget):
        from repro.vqi import VQISpec, spec_diff
        maintained = build_maintained_vqi(repo, budget)
        before = VQISpec.from_json(maintained.vqi.spec.to_json())
        rng = random.Random(5)
        # an exotic atom guarantees an attribute-alphabet change
        exotic = generate_molecule(rng, name="exotic")
        host = next(iter(exotic.nodes()))
        pendant = exotic.add_node(label="P")
        exotic.add_edge(host, pendant, label="1")
        maintained.apply_batch(UpdateBatch(added=[exotic]))
        diff = spec_diff(before, maintained.vqi.spec)
        assert "P" in diff.added_node_labels
        assert not diff.is_empty()

    def test_pattern_churn_counts(self):
        from repro.graph import cycle_graph, path_graph
        from repro.patterns import (Pattern, PatternBudget, PatternSet,
                                    default_basic_patterns)
        from repro.vqi import AttributePanel, PatternPanel, VQISpec, \
            spec_diff
        budget = PatternBudget(4, min_size=3, max_size=6)
        attrs = AttributePanel({"A": 1}, {})
        old = VQISpec("s", "catapult", attrs, PatternPanel(
            [], PatternSet([Pattern(path_graph(4, label="A")),
                            Pattern(cycle_graph(4, label="A"))]),
            budget))
        new = VQISpec("s", "catapult", attrs, PatternPanel(
            [], PatternSet([Pattern(path_graph(4, label="A")),
                            Pattern(cycle_graph(5, label="A"))]),
            budget))
        diff = spec_diff(old, new)
        assert len(diff.added_patterns) == 1
        assert len(diff.removed_patterns) == 1
        assert len(diff.kept_patterns) == 1
        assert diff.pattern_churn() == 0.5
        assert "+1 patterns" in diff.summary()

    def test_label_changes_tracked(self):
        from repro.patterns import PatternBudget, PatternSet
        from repro.vqi import AttributePanel, PatternPanel, VQISpec, \
            spec_diff
        budget = PatternBudget(3)
        old = VQISpec("s", "catapult",
                      AttributePanel({"A": 1}, {"x": 1}),
                      PatternPanel([], PatternSet(), budget))
        new = VQISpec("s", "catapult",
                      AttributePanel({"A": 1, "B": 2}, {}),
                      PatternPanel([], PatternSet(), budget))
        diff = spec_diff(old, new)
        assert diff.added_node_labels == ["B"]
        assert diff.removed_edge_labels == ["x"]
        assert not diff.is_empty()
