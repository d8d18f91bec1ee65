"""Tests for modelled preference measures."""

import pytest

from repro.datasets import generate_chemical_repository, generate_workload
from repro.graph import complete_graph, path_graph
from repro.patterns import Pattern, default_basic_patterns
from repro.usability import (
    CRITERIA,
    PreferenceProfile,
    StudyCondition,
    evaluate_preferences,
    preference_table,
    run_study,
)
from repro.usability.metrics import FormulationOutcome


def outcome(steps=10, seconds=12.0, errors=0, pattern_uses=0):
    return FormulationOutcome(steps, seconds, errors, pattern_uses, {})


class TestProfile:
    def test_requires_all_criteria(self):
        with pytest.raises(ValueError):
            PreferenceProfile({"efficiency": 1.0})

    def test_scores_clamped(self):
        profile = PreferenceProfile(
            {c: 2.0 for c in CRITERIA})
        assert all(profile[c] == 1.0 for c in CRITERIA)

    def test_composite_mean(self):
        profile = PreferenceProfile({c: 0.5 for c in CRITERIA})
        assert profile.composite() == pytest.approx(0.5)


class TestEvaluate:
    def test_all_scores_in_range(self):
        profile = evaluate_preferences(
            [outcome()], default_basic_patterns(), baseline_seconds=15.0)
        for criterion in CRITERIA:
            assert 0.0 <= profile[criterion] <= 1.0

    def test_faster_is_more_efficient(self):
        fast = evaluate_preferences([outcome(seconds=8.0)], [],
                                    baseline_seconds=16.0)
        slow = evaluate_preferences([outcome(seconds=16.0)], [],
                                    baseline_seconds=16.0)
        assert fast["efficiency"] > slow["efficiency"]

    def test_errors_hurt(self):
        clean = evaluate_preferences([outcome(errors=0)], [],
                                     baseline_seconds=12.0)
        sloppy = evaluate_preferences([outcome(errors=2)], [],
                                      baseline_seconds=12.0)
        assert clean["errors"] > sloppy["errors"]
        assert clean["robustness"] > sloppy["robustness"]

    def test_panel_raises_flexibility(self):
        with_panel = evaluate_preferences(
            [outcome(pattern_uses=1)], default_basic_patterns(),
            baseline_seconds=12.0)
        without = evaluate_preferences([outcome()], [],
                                       baseline_seconds=12.0)
        assert with_panel["flexibility"] > without["flexibility"]

    def test_heavy_panel_hurts_learnability(self):
        light = [Pattern(path_graph(4, label="A"))]
        heavy = [Pattern(complete_graph(8, label="A"))]
        profile_light = evaluate_preferences([outcome()], light,
                                             baseline_seconds=12.0)
        profile_heavy = evaluate_preferences([outcome()], heavy,
                                             baseline_seconds=12.0)
        assert (profile_light["learnability"]
                > profile_heavy["learnability"])
        assert (profile_light["memorability"]
                > profile_heavy["memorability"])

    def test_many_steps_frustrate(self):
        relaxed = evaluate_preferences(
            [outcome(steps=5)], default_basic_patterns(),
            baseline_seconds=12.0)
        frustrated = evaluate_preferences(
            [outcome(steps=30)], default_basic_patterns(),
            baseline_seconds=12.0)
        assert relaxed["satisfaction"] > frustrated["satisfaction"]

    def test_deterministic(self):
        a = evaluate_preferences([outcome()], [], baseline_seconds=10.0)
        b = evaluate_preferences([outcome()], [], baseline_seconds=10.0)
        assert a.scores == b.scores

    def test_zero_baseline_safe(self):
        profile = evaluate_preferences([outcome()], [],
                                       baseline_seconds=0.0)
        assert profile["efficiency"] == 0.5


class TestStudyIntegration:
    def test_data_driven_preferred_overall(self):
        """The paper's preference claim: the data-driven VQI provides
        a superior experience."""
        repo = generate_chemical_repository(25, seed=61)
        workload = list(generate_workload(repo, 12, seed=62))
        from repro.core import PipelineConfig, run_catapult
        from repro.patterns import PatternBudget
        selection = run_catapult(repo, PipelineConfig(
            budget=PatternBudget(5, min_size=4, max_size=8), seed=1))
        panel = default_basic_patterns() + list(selection.patterns)
        study = run_study(workload, [
            StudyCondition("manual", []),
            StudyCondition("data-driven", panel),
        ], error_probability=0.03, seed=63)
        baseline = study.by_name("manual").summary["mean_seconds"]
        manual = evaluate_preferences(
            study.by_name("manual").outcomes, [], baseline)
        data_driven = evaluate_preferences(
            study.by_name("data-driven").outcomes, panel, baseline)
        assert data_driven.composite() > manual.composite()
        assert data_driven["flexibility"] > manual["flexibility"]
        assert data_driven["satisfaction"] > manual["satisfaction"]

    def test_table_shape(self):
        profile = PreferenceProfile({c: 0.5 for c in CRITERIA})
        rows = preference_table({"x": profile})
        assert len(rows) == 1
        assert len(rows[0]) == 1 + len(CRITERIA) + 1
