"""Scale-tier benchmark ladder for greedy pattern selection.

The perf-smoke benchmark (``bench_runner.py``) answers "is the
pipeline still correct and fast on workstation-size inputs"; this
ladder answers "does selection keep its asymptotics as repositories
grow".  Tiers step the candidate-selection problem from 1k to 50k
repository graphs and from 10k to 100k-node networks, with the
covered-edge maps installed through
:meth:`repro.patterns.index.CoverageIndex.seed_cover` — running the
subgraph matcher for every (pattern, graph) pair at these sizes would
benchmark the matcher, not the sweep.  Covers are seeded, overlapping
(many candidates share graphs and edges, so marginal gains genuinely
shrink round over round), and deterministic.

Per tier the ladder runs the lazy (CELF) sweep and gates:

* **wall / RSS budgets** — the lazy sweep must finish inside the
  tier's wall budget and the process high-water RSS must stay under
  the tier cap;
* **determinism** — workers 1 vs 4 produce byte-identical codes and
  scores;
* **byte-identity** (oracle tiers) — the quadratic oracle sweep
  (:func:`tests.oracles.naive_selection`) over the same instance
  produces identical codes, bitwise-equal scores, and identical
  trajectories;
* **evaluations reduction** — at the 10k-graph tier the lazy sweep
  performs at least 10x fewer exact evaluations than the naive
  oracle (3x at the 1k tier, where there is less to save).

The naive oracle is quadratic, so the 50k-graph and 100k-node tiers
run lazy-only (budget + determinism gates); the asymptotic win is
extrapolated from the oracle tiers, which is exactly what the
byte-identity gate makes sound.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_scale.json
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke   # CI subset
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.datasets import NetworkConfig, generate_network
from repro.graph import path_graph
from repro.patterns import (
    CoverageIndex,
    Pattern,
    PatternBudget,
    SetScorer,
    greedy_select,
)
from tests.oracles import naive_selection

#: Candidates per tier and the panel budget the sweep fills.
N_CANDIDATES = 256
BUDGET = PatternBudget(12, min_size=3, max_size=8)

#: Worker counts for the determinism gate.
WORKER_COUNTS = (1, 4)

#: tier name -> (kind, size, oracle?, wall budget s, RSS budget MB).
#: Budgets are deliberately loose (~5x a dev-box run): the gate
#: catches complexity regressions, not scheduler jitter.
TIERS = {
    "repo-1k": ("repo", 1_000, True, 30.0, 2048),
    "repo-10k": ("repo", 10_000, True, 120.0, 3072),
    "repo-50k": ("repo", 50_000, False, 300.0, 6144),
    "net-10k": ("network", 10_000, True, 120.0, 3072),
    "net-100k": ("network", 100_000, False, 300.0, 6144),
}

#: The subset exercised by ``--smoke`` (CI): one oracle tier of each
#: kind, small enough for a shared runner.
SMOKE_TIERS = ("repo-1k", "net-10k")

#: Minimum naive/lazy exact-evaluation ratio per oracle tier.
REDUCTION_FLOORS = {"repo-1k": 3.0, "repo-10k": 10.0, "net-10k": 3.0}


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _candidates(seed: int) -> List[Pattern]:
    """Distinct 4-node candidates (one label class per candidate)."""
    return [Pattern(path_graph(4, label=f"C{i:03d}"))
            for i in range(N_CANDIDATES)]


def _edge_pool(graph) -> List[frozenset]:
    """Every non-empty subset of a template graph's edges, shared so
    seeded covers reuse a handful of frozensets instead of allocating
    one per (candidate, graph) entry."""
    edges = list(graph.edges())
    pool = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            pool.append(frozenset(combo))
    return pool


def build_repo_instance(n_graphs: int, seed: int):
    """A repository tier: ``n_graphs`` copies of a tiny template with
    seeded, overlapping candidate covers.

    Cover sizes are Zipfian (candidate ``i`` covers ``~n/16 /
    (1+i)^0.7`` graphs): real candidate pools are heavy-tailed — a
    few motifs cover much of the repository, a long tail covers
    little — and that heterogeneity is exactly the regime lazy
    evaluation exploits.  Covers are drawn from a shared prefix of
    the graph list so the big candidates overlap and marginal gains
    genuinely shrink round over round.
    """
    template = path_graph(4, label="T")
    index = CoverageIndex([template] * n_graphs)
    candidates = _candidates(seed)
    pool = _edge_pool(template)
    shared = max(64, n_graphs // 4)
    for i, pattern in enumerate(candidates):
        rng = random.Random(seed * 1_000_003 + i)
        per_candidate = max(4, int(n_graphs / 16 / (1 + i) ** 0.7))
        cover = {idx: pool[rng.randrange(len(pool))]
                 for idx in rng.sample(range(shared), per_candidate)}
        index.seed_cover(pattern, cover)
    return index, candidates


def build_network_instance(n_nodes: int, seed: int):
    """A network tier: one large graph, candidate covers sampled from
    a shared slice of its edges so gains overlap."""
    config = NetworkConfig(nodes=n_nodes, cliques=8, petals=4,
                           flowers=4)
    network = generate_network(config, seed=seed)
    index = CoverageIndex([network])
    candidates = _candidates(seed)
    edges = list(itertools.islice(network.edges(), 8_192))
    for i, pattern in enumerate(candidates):
        rng = random.Random(seed * 1_000_003 + i)
        per_candidate = max(16, int(4_096 / (1 + i) ** 0.8))
        cover = {0: frozenset(rng.sample(edges, per_candidate))}
        index.seed_cover(pattern, cover)
    return index, candidates


def _sweep(mode: str, index: CoverageIndex,
           candidates: Sequence[Pattern],
           workers: Optional[int] = None) -> Dict[str, object]:
    """One timed greedy sweep (``"lazy"``, or the ``"naive"``
    oracle) against a fresh scorer."""
    with naive_selection() if mode == "naive" else nullcontext():
        scorer = SetScorer(index)
        start = time.perf_counter()
        selection = greedy_select(candidates, BUDGET, scorer,
                                  workers=workers)
        wall = time.perf_counter() - start
    return {
        "mode": mode,
        "workers": workers if workers is not None else 1,
        "wall_seconds": round(wall, 4),
        "evaluations": selection.evaluations,
        "selected": len(selection.patterns),
        "score": selection.score,
        "trajectory": selection.trajectory,
        "pattern_codes": [p.code for p in selection.patterns],
    }


def run_tier(name: str, seed: int = 11) -> Dict[str, object]:
    kind, size, oracle, wall_budget, rss_budget_mb = TIERS[name]
    build = (build_repo_instance if kind == "repo"
             else build_network_instance)
    start = time.perf_counter()
    index, candidates = build(size, seed)
    build_wall = time.perf_counter() - start

    runs = {}
    for workers in WORKER_COUNTS:
        runs[f"lazy-w{workers}"] = _sweep("lazy", index, candidates,
                                          workers=workers)
    if oracle:
        runs["naive"] = _sweep("naive", index, candidates)

    lazy = runs[f"lazy-w{WORKER_COUNTS[0]}"]
    tier = {
        "name": name,
        "kind": kind,
        "size": size,
        "candidates": len(candidates),
        "budget": BUDGET.max_patterns,
        "seed": seed,
        "build_wall_seconds": round(build_wall, 4),
        "wall_budget_seconds": wall_budget,
        "rss_budget_mb": rss_budget_mb,
        "peak_rss_kb": _peak_rss_kb(),
        "runs": runs,
    }
    if oracle:
        naive = runs["naive"]
        tier["byte_identical"] = (
            lazy["pattern_codes"] == naive["pattern_codes"]
            and lazy["score"] == naive["score"]
            and lazy["trajectory"] == naive["trajectory"])
        tier["evaluations_reduction"] = (
            naive["evaluations"] / lazy["evaluations"]
            if lazy["evaluations"] else 0.0)
    parallel = runs[f"lazy-w{WORKER_COUNTS[-1]}"]
    tier["deterministic_across_workers"] = (
        lazy["pattern_codes"] == parallel["pattern_codes"]
        and lazy["score"] == parallel["score"])
    return tier


def _gates(tiers: Dict[str, Dict[str, object]]) -> List[Dict[str, object]]:
    gates: List[Dict[str, object]] = []

    def gate(name: str, passed: bool, detail: str) -> None:
        gates.append({"name": name,
                      "status": "passed" if passed else "failed",
                      "detail": detail})

    for name, tier in tiers.items():
        lazy = tier["runs"][f"lazy-w{WORKER_COUNTS[0]}"]
        gate(f"{name}.wall_budget",
             lazy["wall_seconds"] <= tier["wall_budget_seconds"],
             f"lazy sweep {lazy['wall_seconds']}s <= "
             f"{tier['wall_budget_seconds']}s")
        gate(f"{name}.rss_budget",
             tier["peak_rss_kb"] <= tier["rss_budget_mb"] * 1024,
             f"peak {tier['peak_rss_kb']} kB <= "
             f"{tier['rss_budget_mb']} MB")
        gate(f"{name}.determinism",
             bool(tier["deterministic_across_workers"]),
             f"workers {WORKER_COUNTS[0]} vs {WORKER_COUNTS[-1]} "
             "codes+score byte-identical")
        if "byte_identical" in tier:
            gate(f"{name}.byte_identity", bool(tier["byte_identical"]),
                 "lazy == naive codes, scores, trajectories")
            floor = REDUCTION_FLOORS.get(name, 1.0)
            gate(f"{name}.evaluations_reduction",
                 tier["evaluations_reduction"] >= floor,
                 f"{tier['evaluations_reduction']:.1f}x >= {floor}x "
                 f"(naive {tier['runs']['naive']['evaluations']} / "
                 f"lazy {lazy['evaluations']})")
    return gates


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="selection scale-tier benchmark ladder")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run the CI subset {SMOKE_TIERS}")
    parser.add_argument("--tiers",
                        help="comma-separated tier names "
                             f"(default: all of {tuple(TIERS)})")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    if args.tiers:
        names = [t.strip() for t in args.tiers.split(",") if t.strip()]
        unknown = [t for t in names if t not in TIERS]
        if unknown:
            parser.error(f"unknown tiers {unknown}; "
                         f"expected names from {tuple(TIERS)}")
    elif args.smoke:
        names = list(SMOKE_TIERS)
    else:
        names = list(TIERS)

    tiers: Dict[str, Dict[str, object]] = {}
    for name in names:
        print(f"[bench_scale] {name} ...", flush=True)
        tiers[name] = run_tier(name)
        lazy = tiers[name]["runs"][f"lazy-w{WORKER_COUNTS[0]}"]
        print(f"[bench_scale] {name}: lazy {lazy['wall_seconds']}s, "
              f"{lazy['evaluations']} evaluations", flush=True)

    gates = _gates(tiers)
    ok = all(g["status"] == "passed" for g in gates)
    report = {
        "benchmark": "scale-ladder",
        "smoke": bool(args.smoke),
        "tiers": tiers,
        "gates": gates,
        "ok": ok,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for g in gates:
        print(f"[bench_scale] gate {g['name']}: {g['status']} "
              f"({g['detail']})")
    print(f"[bench_scale] {'OK' if ok else 'FAILED'} -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
