"""Tests for the usability simulator and study runner."""

import pytest

from repro.datasets import generate_chemical_repository, generate_workload
from repro.graph import build_graph, cycle_graph, path_graph
from repro.patterns import Pattern, default_basic_patterns
from repro.usability import (
    ActionTimeModel,
    SimulatedUser,
    StudyCondition,
    run_study,
    summarize_outcomes,
)


def labeled_target():
    """A benzene-like labeled query."""
    g = cycle_graph(6, label="C")
    for i in range(6):
        g.set_edge_label(i, (i + 1) % 6, "1")
    return g


class TestTimeModel:
    def test_known_kinds(self):
        model = ActionTimeModel()
        assert model.action_time("add_node") > 0
        with pytest.raises(KeyError):
            model.action_time("fly")

    def test_browse_time_grows_with_panel(self):
        model = ActionTimeModel()
        small = [Pattern(path_graph(3, label="A"))]
        large = small * 1 + [Pattern(cycle_graph(n, label="A"))
                             for n in range(3, 9)]
        assert model.browse_time(large) > model.browse_time(small)
        assert model.browse_time([]) == 0.0

    def test_load_increases_browse_time(self):
        model = ActionTimeModel()
        light = [Pattern(path_graph(3, label="A"))]
        heavy = [Pattern(cycle_graph(8, label="A"))]
        assert model.browse_time(heavy) > model.browse_time(light)


class TestManualFormulation:
    def test_step_accounting(self):
        user = SimulatedUser()
        target = labeled_target()
        outcome = user.formulate_manual(target)
        # 6 nodes + 6 node labels + 6 edges + 6 edge labels
        assert outcome.steps == 24
        assert outcome.errors == 0
        assert outcome.seconds > 0

    def test_unlabeled_elements_skip_label_steps(self):
        user = SimulatedUser()
        outcome = user.formulate_manual(path_graph(4))
        assert outcome.steps == 4 + 3  # nodes + edges only

    def test_errors_add_steps(self):
        careless = SimulatedUser(error_probability=0.5, seed=1)
        careful = SimulatedUser(error_probability=0.0, seed=1)
        target = labeled_target()
        bad = careless.formulate_manual(target)
        good = careful.formulate_manual(target)
        assert bad.errors > 0
        assert bad.steps > good.steps
        assert bad.seconds > good.seconds

    def test_error_probability_validation(self):
        with pytest.raises(ValueError):
            SimulatedUser(error_probability=1.5)


class TestPatternFormulation:
    def test_exact_pattern_one_drop(self):
        user = SimulatedUser()
        target = labeled_target()
        panel = [Pattern(labeled_target())]
        outcome = user.formulate_with_patterns(target, panel)
        assert outcome.pattern_uses == 1
        assert outcome.steps == 1  # one drop, nothing else

    def test_pattern_saves_vs_manual(self):
        user = SimulatedUser()
        target = labeled_target()
        panel = [Pattern(labeled_target())] + default_basic_patterns()
        with_patterns = user.formulate_with_patterns(target, panel)
        manual = user.formulate_manual(target)
        assert with_patterns.steps < manual.steps

    def test_falls_back_to_manual_when_useless(self):
        user = SimulatedUser()
        target = path_graph(4, label="Z")
        panel = [Pattern(cycle_graph(5, label="A"))]
        outcome = user.formulate_with_patterns(target, panel)
        manual = user.formulate_manual(target)
        assert outcome.pattern_uses == 0
        assert outcome.steps == manual.steps

    def test_merge_cost_counted(self):
        user = SimulatedUser()
        # two triangles sharing one node
        target = build_graph(
            [(i, "C") for i in range(5)],
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        panel = [Pattern(cycle_graph(3, label="C"))]
        outcome = user.formulate_with_patterns(target, panel)
        assert outcome.pattern_uses == 2
        assert outcome.action_counts.get("merge_nodes", 0) >= 1

    def test_wildcard_patterns_need_label_fixes(self):
        from repro.matching import WILDCARD
        user = SimulatedUser()
        target = cycle_graph(4, label="C")
        panel = [Pattern(cycle_graph(4, label=WILDCARD))]
        outcome = user.formulate_with_patterns(target, panel)
        assert outcome.pattern_uses == 1
        assert outcome.action_counts.get("set_node_label", 0) == 4

    def test_formulated_query_is_complete(self):
        """Pattern mode covers every target edge and node."""
        user = SimulatedUser()
        repo = generate_chemical_repository(10, seed=23)
        workload = generate_workload(repo, 8, seed=24)
        panel = default_basic_patterns()
        for target in workload:
            outcome = user.formulate_with_patterns(target, panel)
            # steps account for at least every edge once (via pattern
            # or manual edge draw) — sanity lower bound
            assert outcome.steps >= 1


class TestStudies:
    def test_data_driven_beats_manual(self):
        repo = generate_chemical_repository(25, seed=29)
        workload = list(generate_workload(repo, 15, seed=30))
        from repro.core import PipelineConfig, run_catapult
        from repro.patterns import PatternBudget
        result = run_catapult(repo, PipelineConfig(
            budget=PatternBudget(5, min_size=4, max_size=8)))
        panel = default_basic_patterns() + list(result.patterns)
        study = run_study(workload, [
            StudyCondition("manual", []),
            StudyCondition("data-driven", panel),
        ], seed=2)
        assert study.step_reduction("manual", "data-driven") > 0.2
        assert study.speedup("manual", "data-driven") > 1.0

    def test_identical_seeds_fair_comparison(self):
        repo = generate_chemical_repository(10, seed=31)
        workload = list(generate_workload(repo, 5, seed=32))
        study = run_study(workload, [
            StudyCondition("a", []),
            StudyCondition("b", []),
        ], error_probability=0.1, seed=3)
        assert (study.by_name("a").summary
                == study.by_name("b").summary)

    def test_table_rows(self):
        repo = generate_chemical_repository(8, seed=33)
        workload = list(generate_workload(repo, 4, seed=34))
        study = run_study(workload, [StudyCondition("only", [])])
        rows = study.table_rows()
        assert len(rows) == 1
        assert rows[0]["condition"] == "only"
        assert rows[0]["queries"] == 4

    def test_unknown_condition(self):
        repo = generate_chemical_repository(8, seed=35)
        workload = list(generate_workload(repo, 3, seed=36))
        study = run_study(workload, [StudyCondition("x", [])])
        with pytest.raises(KeyError):
            study.by_name("nope")


class TestSummaries:
    def test_empty(self):
        summary = summarize_outcomes([])
        assert summary["queries"] == 0

    def test_means(self):
        user = SimulatedUser()
        outcomes = [user.formulate_manual(path_graph(3)),
                    user.formulate_manual(path_graph(5))]
        summary = summarize_outcomes(outcomes)
        assert summary["queries"] == 2
        assert summary["mean_steps"] == pytest.approx((5 + 9) / 2)
