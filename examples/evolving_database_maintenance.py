"""Evolving-repository scenario: MIDAS pattern maintenance.

A chemical repository receives daily batches of new structures (the
paper cites ~4,000/day on SciFinder).  MIDAS keeps the VQI's canned
patterns fresh: cheap bookkeeping for minor batches, swap-based
maintenance — never degrading quality — when the graphlet
distribution drifts.

Run:  python examples/evolving_database_maintenance.py
"""

import time

from repro.core import PipelineConfig, run_catapult
from repro.datasets import (
    EvolvingRepository,
    generate_chemical_repository,
    generate_update_stream,
)
from repro.midas import Midas
from repro.patterns import PatternBudget


def main() -> None:
    repository = generate_chemical_repository(100, seed=21)
    budget = PatternBudget(max_patterns=6, min_size=4, max_size=8)

    midas = Midas(repository, PipelineConfig(budget=budget, seed=2))
    print(f"initial selection: {len(midas.patterns)} canned patterns, "
          f"score {midas.last_score:.3f}")

    evolving = EvolvingRepository([g.copy() for g in repository])
    stream = generate_update_stream(
        evolving, batches=8, batch_size=18, seed=5, drift_after=3,
        drift_weights=(0.05, 0.05, 0.05, 6.0))

    print("\nbatch  kind   drift    maint(s)  rerun(s)  score")
    total_maintenance = 0.0
    total_rerun = 0.0
    for batch in stream:
        evolving.apply(batch)
        report = midas.apply_batch(batch)
        total_maintenance += report.duration

        # what a from-scratch re-selection would have cost instead
        start = time.perf_counter()
        run_catapult(evolving.graphs(),
                     PipelineConfig(budget=budget, seed=2))
        rerun = time.perf_counter() - start
        total_rerun += rerun

        swaps = (f" ({report.swap_stats.swaps} swaps, "
                 f"{report.swap_stats.pruned} pruned)"
                 if report.swap_stats else "")
        print(f"  #{report.batch_index}   {report.kind:<6} "
              f"{report.drift:.4f}  {report.duration:>7.2f}  "
              f"{rerun:>8.2f}  {report.score_after:.3f}{swaps}")

    print(f"\ntotal maintenance time : {total_maintenance:.2f}s")
    print(f"total re-run time      : {total_rerun:.2f}s")
    print(f"MIDAS speedup          : {total_rerun / total_maintenance:.1f}x")


if __name__ == "__main__":
    main()
