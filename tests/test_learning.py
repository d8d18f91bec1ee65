"""Tests for the learning-curve (learnability/memorability) model."""

import pytest

from repro.datasets import generate_chemical_repository, generate_workload
from repro.patterns import PatternBudget, default_basic_patterns
from repro.usability import (
    ActionTimeModel,
    LearningCurve,
    practice_factor,
    practiced_time_model,
    simulate_learning,
)


@pytest.fixture(scope="module")
def setup():
    repo = generate_chemical_repository(20, seed=73)
    workload = list(generate_workload(repo, 6, seed=74))
    from repro.core import PipelineConfig, run_catapult
    selection = run_catapult(repo, PipelineConfig(
        budget=PatternBudget(5, min_size=4, max_size=8), seed=1))
    panel = default_basic_patterns() + list(selection.patterns)
    return workload, panel


class TestPracticeFactor:
    def test_first_session_no_discount(self):
        assert practice_factor(1) == 1.0

    def test_monotone_decrease(self):
        factors = [practice_factor(n) for n in range(1, 8)]
        assert factors == sorted(factors, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            practice_factor(0)

    def test_practiced_model_scales_perceptual_only(self):
        base = ActionTimeModel()
        practiced = practiced_time_model(base, session=4)
        assert practiced.scan_seconds < base.scan_seconds
        assert practiced.interpret_seconds < base.interpret_seconds
        assert practiced.action_seconds == base.action_seconds
        assert (practiced.error_recovery_seconds
                == base.error_recovery_seconds)


class TestLearningCurve:
    def test_curve_monotone_improvement(self, setup):
        workload, panel = setup
        curve = simulate_learning(workload, panel, sessions=4, seed=1)
        assert curve.session_seconds == sorted(curve.session_seconds,
                                               reverse=True)

    def test_learnability_positive_with_panel(self, setup):
        workload, panel = setup
        curve = simulate_learning(workload, panel, sessions=5, seed=1)
        assert curve.learnability() > 0.0

    def test_memorability_between_extremes(self, setup):
        workload, panel = setup
        curve = simulate_learning(workload, panel, sessions=5,
                                  retention=0.6, seed=1)
        assert 0.0 < curve.memorability() <= 1.0
        # the post-break session sits between best and first
        assert (curve.session_seconds[-1] <= curve.post_break_seconds
                <= curve.session_seconds[0] + 1e-9)

    def test_full_retention_full_memorability(self, setup):
        workload, panel = setup
        curve = simulate_learning(workload, panel, sessions=4,
                                  retention=1.0, seed=1)
        assert curve.memorability() == pytest.approx(1.0, abs=0.05)

    def test_low_retention_lowers_memorability(self, setup):
        workload, panel = setup
        high = simulate_learning(workload, panel, sessions=5,
                                 retention=0.9, seed=1)
        low = simulate_learning(workload, panel, sessions=5,
                                retention=0.2, seed=1)
        assert low.memorability() <= high.memorability() + 1e-9

    def test_validation(self, setup):
        workload, panel = setup
        with pytest.raises(ValueError):
            simulate_learning(workload, panel, sessions=1)
        with pytest.raises(ValueError):
            simulate_learning(workload, panel, retention=1.5)

    def test_flat_curve_scores(self):
        curve = LearningCurve([10.0, 10.0], 10.0)
        assert curve.learnability() == 0.0
        assert curve.memorability() == 1.0
