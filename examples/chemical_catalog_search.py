"""Chemical-catalog scenario: CATAPULT selection + usability comparison.

Models the use case from the paper's introduction: domain scientists
searching a catalog of chemical compounds through a visual interface,
without writing graph queries.  Compares query formulation cost on a
manual VQI (edge-at-a-time) against the data-driven VQI.

Run:  python examples/chemical_catalog_search.py
"""

from repro.core import PipelineConfig, run_catapult
from repro.datasets import generate_chemical_repository, generate_workload
from repro.patterns import (
    PatternBudget,
    classify_topology,
    default_basic_patterns,
    set_cognitive_load,
    set_diversity,
    set_repository_coverage,
)
from repro.usability import StudyCondition, run_study


def main() -> None:
    repository = generate_chemical_repository(150, seed=42)
    budget = PatternBudget(max_patterns=8, min_size=4, max_size=8)

    # --- selection ---------------------------------------------------
    result = run_catapult(repository,
                          PipelineConfig(budget=budget, seed=1))
    patterns = list(result.patterns)
    print("CATAPULT selection")
    print(f"  clusters: {len(result.summaries)}  "
          f"candidates: {len(result.candidates)}")
    for key, value in result.timings.items():
        print(f"  stage {key:<11}: {value:.2f}s")
    for pattern in patterns:
        print(f"  pattern n={pattern.order()} m={pattern.size()} "
              f"topology={classify_topology(pattern.graph).value} "
              f"labels={pattern.graph.label_multiset()}")

    print("\npattern-set quality")
    print(f"  edge coverage : "
          f"{set_repository_coverage(patterns, repository):.3f}")
    print(f"  diversity     : {set_diversity(patterns):.3f}")
    print(f"  cognitive load: {set_cognitive_load(patterns):.3f}")

    # --- usability ----------------------------------------------------
    workload = list(generate_workload(repository, 30, seed=2))
    study = run_study(workload, [
        StudyCondition("manual (edge-at-a-time)", []),
        StudyCondition("manual + basic patterns",
                       default_basic_patterns()),
        StudyCondition("data-driven (CATAPULT)",
                       default_basic_patterns() + patterns),
    ], error_probability=0.03, seed=3)

    print("\nusability study (30 queries, simulated users)")
    header = f"  {'condition':<28} {'steps':>6} {'time(s)':>8} " \
             f"{'errors':>7} {'patterns':>9}"
    print(header)
    for row in study.table_rows():
        print(f"  {row['condition']:<28} {row['mean_steps']:>6.1f} "
              f"{row['mean_seconds']:>8.1f} {row['mean_errors']:>7.2f} "
              f"{row['mean_pattern_uses']:>9.2f}")
    reduction = study.step_reduction("manual (edge-at-a-time)",
                                     "data-driven (CATAPULT)")
    speedup = study.speedup("manual (edge-at-a-time)",
                            "data-driven (CATAPULT)")
    print(f"\n  data-driven vs manual: {reduction:.0%} fewer steps, "
          f"{speedup:.2f}x faster")


if __name__ == "__main__":
    main()
