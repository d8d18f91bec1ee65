"""E6 — MIDAS maintenance vs re-running CATAPULT.

Tutorial claims (§2.4): re-selecting patterns from scratch on every
batch is extremely inefficient; MIDAS maintains the set much faster
and guarantees the maintained quality is at least the original.
Includes the swapping-strategy ablation (multi- vs single-scan,
pruning on/off).
"""

from __future__ import annotations

import time

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.datasets import (
    EvolvingRepository,
    generate_chemical_repository,
    generate_update_stream,
)
from repro.midas import Midas, multi_scan_swap
from repro.patterns import PatternBudget

from conftest import print_table

BATCHES = 5
BATCH_SIZE = 15


def drive(midas_seed, seed=31, initial=100):
    """Run one maintenance session; returns reports + rerun times."""
    repo = generate_chemical_repository(initial, seed=seed)
    budget = PatternBudget(6, min_size=4, max_size=8)
    midas = Midas(repo, PipelineConfig(budget=budget, seed=midas_seed))
    evolving = EvolvingRepository([g.copy() for g in repo])
    stream = generate_update_stream(
        evolving, batches=BATCHES, batch_size=BATCH_SIZE, seed=seed + 1,
        drift_after=1, drift_weights=(0.05, 0.05, 0.05, 6.0))
    reports = []
    rerun_times = []
    for batch in stream:
        evolving.apply(batch)
        reports.append(midas.apply_batch(batch))
        start = time.perf_counter()
        run_catapult(evolving.graphs(),
                     PipelineConfig(budget=budget, seed=2))
        rerun_times.append(time.perf_counter() - start)
    return reports, rerun_times


def test_e6_maintenance_vs_rerun(benchmark):
    reports, rerun_times = benchmark.pedantic(
        lambda: drive(2), rounds=1, iterations=1)
    rows = []
    for report, rerun in zip(reports, rerun_times):
        rows.append((report.batch_index, report.kind,
                     f"{report.drift:.4f}",
                     f"{report.duration:.2f}", f"{rerun:.2f}",
                     f"{rerun / max(report.duration, 1e-9):.1f}x",
                     f"{report.score_after:.3f}"))
    print_table("E6: per-batch maintenance vs CATAPULT re-run",
                ("batch", "kind", "drift", "midas(s)", "rerun(s)",
                 "speedup", "score"),
                rows)
    total_midas = sum(r.duration for r in reports)
    total_rerun = sum(rerun_times)
    print(f"totals: midas {total_midas:.2f}s, rerun {total_rerun:.2f}s, "
          f"speedup {total_rerun / total_midas:.1f}x")

    # reproduced claims
    assert total_midas < total_rerun, "maintenance beats re-running"
    for report in reports:
        assert report.score_after >= report.score_before - 1e-9, \
            "maintained quality never degrades"


def test_e6_swapping_ablation(benchmark, chem_repo):
    """Multi-scan vs single-scan, pruning on vs off."""
    from repro.patterns import CoverageIndex, Pattern, SetScorer

    budget = PatternBudget(6, min_size=4, max_size=8)
    base = run_catapult(chem_repo[:60],
                        PipelineConfig(budget=budget, seed=3))
    fresh = run_catapult(chem_repo[60:],
                         PipelineConfig(budget=budget, seed=4))
    current = list(base.patterns)
    candidates = fresh.candidates
    scorer = SetScorer(CoverageIndex(chem_repo[60:],
                                     max_embeddings=20,
                                     size_utility=True))

    def run_all():
        out = {}
        for name, scans, prune in (("multi+prune", 3, True),
                                   ("multi", 3, False),
                                   ("single+prune", 1, True),
                                   ("single", 1, False)):
            start = time.perf_counter()
            _, stats = multi_scan_swap(current, candidates, scorer,
                                       max_scans=scans, prune=prune)
            out[name] = (stats, time.perf_counter() - start)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (stats, elapsed) in results.items():
        rows.append((name, stats.scans, stats.swaps, stats.pruned,
                     f"{stats.score_after:.3f}", f"{elapsed:.2f}"))
    print_table("E6b: swapping-strategy ablation",
                ("variant", "scans", "swaps", "pruned", "final score",
                 "time(s)"),
                rows)
    # invariants: no variant ever loses quality; multi >= single
    for stats, _ in results.values():
        assert stats.score_after >= stats.score_before - 1e-9
    assert (results["multi+prune"][0].score_after
            >= results["single+prune"][0].score_after - 1e-9)
