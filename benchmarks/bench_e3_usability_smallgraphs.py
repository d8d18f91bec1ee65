"""E3 — usability: data-driven VQI vs manual VQI (small-graph DB).

Tutorial claim (§2.3 "Usability results"): data-driven VQIs need
fewer formulation steps and less formulation time than manual VQIs,
and improve error counts — the central usability result of the
surveyed systems, here measured on simulated users.
"""

from __future__ import annotations

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.patterns import PatternBudget, default_basic_patterns
from repro.usability import StudyCondition, run_study

from conftest import print_table


def test_e3_steps_time_errors(benchmark, chem_repo, chem_workload):
    budget = PatternBudget(8, min_size=4, max_size=8)
    selection = run_catapult(chem_repo,
                             PipelineConfig(budget=budget, seed=1))
    canned = list(selection.patterns)

    conditions = [
        StudyCondition("manual (edge-at-a-time)", []),
        StudyCondition("manual + basic", default_basic_patterns()),
        StudyCondition("data-driven",
                       default_basic_patterns() + canned),
    ]

    study = benchmark.pedantic(
        lambda: run_study(chem_workload, conditions,
                          error_probability=0.03, seed=11),
        rounds=1, iterations=1)

    rows = [(row["condition"], f"{row['mean_steps']:.1f}",
             f"{row['mean_seconds']:.1f}", f"{row['mean_errors']:.2f}",
             f"{row['mean_pattern_uses']:.2f}")
            for row in study.table_rows()]
    print_table("E3: formulation cost per interface (30 queries)",
                ("condition", "steps", "time(s)", "errors", "patterns"),
                rows)
    reduction = study.step_reduction("manual (edge-at-a-time)",
                                     "data-driven")
    speedup = study.speedup("manual (edge-at-a-time)", "data-driven")
    print(f"data-driven vs manual: {reduction:.0%} fewer steps, "
          f"{speedup:.2f}x faster")

    # reproduced claims: direction and rough factor
    assert reduction > 0.25, "data-driven should cut steps substantially"
    assert speedup > 1.15, "data-driven should be faster"
    manual_err = study.by_name(
        "manual (edge-at-a-time)").summary["mean_errors"]
    dd_err = study.by_name("data-driven").summary["mean_errors"]
    assert dd_err <= manual_err, "fewer actions -> fewer slips"


def test_e3_preference_measures(benchmark, chem_repo, chem_workload):
    """The paper's second usability dimension (§2.3): preference
    measures — the data-driven VQI is the preferred experience."""
    from repro.usability import evaluate_preferences, preference_table
    from repro.usability.preference import CRITERIA

    budget = PatternBudget(8, min_size=4, max_size=8)
    selection = run_catapult(chem_repo,
                             PipelineConfig(budget=budget, seed=1))
    panel = default_basic_patterns() + list(selection.patterns)

    def scenario():
        study = run_study(chem_workload, [
            StudyCondition("manual", []),
            StudyCondition("data-driven", panel),
        ], error_probability=0.03, seed=11)
        baseline = study.by_name("manual").summary["mean_seconds"]
        return {
            "manual": evaluate_preferences(
                study.by_name("manual").outcomes, [], baseline),
            "data-driven": evaluate_preferences(
                study.by_name("data-driven").outcomes, panel, baseline),
        }

    profiles = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table("E3c: modelled preference measures",
                ("condition",) + CRITERIA + ("composite",),
                preference_table(profiles))
    assert (profiles["data-driven"].composite()
            > profiles["manual"].composite())
    for criterion in ("flexibility", "efficiency", "errors",
                      "satisfaction"):
        assert (profiles["data-driven"][criterion]
                >= profiles["manual"][criterion])


def test_e3_learning_curve(benchmark, chem_repo, chem_workload):
    """Learnability/memorability (§2.1): browsing costs shrink with
    practice and mostly survive a break."""
    from repro.usability import simulate_learning

    budget = PatternBudget(8, min_size=4, max_size=8)
    selection = run_catapult(chem_repo,
                             PipelineConfig(budget=budget, seed=1))
    panel = default_basic_patterns() + list(selection.patterns)

    curve = benchmark.pedantic(
        lambda: simulate_learning(chem_workload[:10], panel,
                                  sessions=5, seed=7),
        rounds=1, iterations=1)
    rows = [(i + 1, f"{seconds:.2f}")
            for i, seconds in enumerate(curve.session_seconds)]
    rows.append(("post-break", f"{curve.post_break_seconds:.2f}"))
    print_table("E3d: learning curve (mean seconds per query)",
                ("session", "time(s)"), rows)
    print(f"learnability {curve.learnability():.2f}, "
          f"memorability {curve.memorability():.2f}")
    assert curve.learnability() > 0.0
    assert curve.memorability() > 0.3


def test_e3_panel_size_tradeoff(benchmark, chem_repo, chem_workload):
    """Bigger panels save steps but add browse time — the reason the
    budget exists (limited display space, §2.3)."""
    rows = []
    outcomes = {}

    def sweep():
        out = {}
        for k in (2, 8, 16):
            budget = PatternBudget(k, min_size=4, max_size=8)
            selection = run_catapult(
                chem_repo, PipelineConfig(budget=budget, seed=1))
            panel = default_basic_patterns() + list(selection.patterns)
            study = run_study(chem_workload,
                              [StudyCondition(f"b={k}", panel)], seed=3)
            out[k] = study.table_rows()[0]
        return out

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for k, row in outcomes.items():
        rows.append((k, f"{row['mean_steps']:.1f}",
                     f"{row['mean_seconds']:.1f}"))
    print_table("E3b: pattern budget vs formulation cost",
                ("budget", "steps", "time(s)"), rows)
    # steps never increase with a larger panel
    assert outcomes[16]["mean_steps"] <= outcomes[2]["mean_steps"] + 0.5
