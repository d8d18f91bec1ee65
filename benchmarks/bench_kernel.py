"""Matching-kernel micro-benchmark: pruning power, measured not asserted.

Runs the same embedding enumerations through the legacy kernel
(label-only pools, first-neighbor anchoring) and the indexed kernel
(signature-filtered candidate pools, smallest-anchor intersection) and
records the kernel counters for each; runs truss decomposition through
the bucket-queue peeler and the legacy per-level-rescan peeler and
checks they agree edge-for-edge.  The JSON report gates on:

* byte-identical embedding sets across kernels on every case;
* >= 3x reduction in ``feasibility_checks`` (indexed vs legacy);
* identical trussness maps from both peelers;
* with ``--baseline``, the indexed kernel's ``feasibility_checks``
  not regressing above the recorded baseline (the committed
  ``BENCH_kernel.json``) — the suite is deterministic, so any
  increase is a real pruning regression, not noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke \
        --out BENCH_kernel.json [--baseline BENCH_kernel.json]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.datasets import (
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
)
from repro.graph import Graph, gnm_random_graph
from repro.graph.generators import planted_partition_graph
from repro.graph.operations import induced_subgraph, sample_connected_node_set
from repro.matching.isomorphism import (
    WILDCARD,
    SubgraphMatcher,
    reset_kernel_stats,
)
from repro.obs import matching_snapshot
from repro.truss import truss_decomposition, truss_decomposition_rescan

KERNELS = ("legacy", "indexed")
MIN_REDUCTION = 3.0
COUNTER_KEYS = ("feasibility_checks", "recursive_calls",
                "candidates_pruned")

MatchCase = Tuple[str, Graph, Graph, bool]


def _extract_pattern(target: Graph, size: int,
                     rng: random.Random) -> Optional[Graph]:
    """Connected induced subgraph of ``target``, renumbered 0..n-1."""
    if target.order() < size:
        return None
    nodes = sample_connected_node_set(target, size, rng)
    if nodes is None:
        return None
    return induced_subgraph(target, nodes).normalized()


def build_matching_cases(smoke: bool) -> List[MatchCase]:
    """(name, pattern, target, induced) enumeration cases.

    Mixes guaranteed-hit cases (patterns cut out of their own target),
    cross-target cases, induced semantics, and wildcard node/edge
    labels, over chemical molecules, a synthetic network, and random
    labeled graphs.
    """
    cases: List[MatchCase] = []
    rng = random.Random(17)

    repo = generate_chemical_repository(8 if smoke else 24, seed=11)
    for i, target in enumerate(repo[:3 if smoke else 10]):
        pattern = _extract_pattern(target, min(5, target.order()), rng)
        if pattern is not None:
            cases.append((f"chem{i}", pattern, target, False))

    network = generate_network(
        NetworkConfig(nodes=100 if smoke else 350, cliques=3,
                      petals=2, flowers=2), seed=5)
    for j in range(2 if smoke else 6):
        pattern = _extract_pattern(network, 4, rng)
        if pattern is not None:
            cases.append((f"net{j}", pattern, network, False))

    for s in range(3 if smoke else 8):
        r = random.Random(100 + s)
        target = gnm_random_graph(18 if smoke else 30,
                                  40 if smoke else 75, r,
                                  labels=["A", "B", "C"])
        pattern = gnm_random_graph(4, 4, r, labels=["A", "B", "C"])
        cases.append((f"rand{s}", pattern, target, s % 2 == 1))
        if s == 0:
            # wildcard variant: one wildcard node, one wildcard edge
            wild = pattern.copy()
            wild.set_node_label(next(iter(wild.nodes())), WILDCARD)
            first_edge = next(iter(wild.edges()))
            wild.set_edge_label(*first_edge, label=WILDCARD)
            cases.append((f"wild{s}", wild, target, False))
    return cases


def embedding_digest(matcher: SubgraphMatcher) -> Tuple[int, str]:
    """(count, canonical JSON) of the full embedding set."""
    embeddings = sorted(
        tuple(sorted(m.items()))
        for m in matcher.iter_embeddings(max_results=None))
    return len(embeddings), json.dumps(embeddings,
                                       separators=(",", ":"))


def run_matching(cases: List[MatchCase]) -> Dict[str, object]:
    totals = {kernel: {key: 0 for key in COUNTER_KEYS} | {"wall_seconds": 0.0}
              for kernel in KERNELS}
    case_rows = []
    all_identical = True
    for name, pattern, target, induced in cases:
        row: Dict[str, object] = {
            "name": name,
            "induced": induced,
            "pattern_nodes": pattern.order(),
            "target_nodes": target.order(),
        }
        digests = {}
        for kernel in KERNELS:
            reset_kernel_stats()
            matcher = SubgraphMatcher(pattern, target, induced=induced,
                                      kernel=kernel)
            start = time.perf_counter()
            count, digest = embedding_digest(matcher)
            wall = time.perf_counter() - start
            counters = matching_snapshot()
            digests[kernel] = digest
            row[kernel] = {key: counters[key] for key in COUNTER_KEYS}
            row[kernel]["wall_seconds"] = wall
            row["embeddings"] = count
            for key in COUNTER_KEYS:
                totals[kernel][key] += counters[key]
            totals[kernel]["wall_seconds"] += wall
        identical = digests["legacy"] == digests["indexed"]
        row["embeddings_identical"] = identical
        all_identical = all_identical and identical
        case_rows.append(row)
    legacy_checks = totals["legacy"]["feasibility_checks"]
    indexed_checks = totals["indexed"]["feasibility_checks"]
    reduction = (legacy_checks / indexed_checks
                 if indexed_checks else float(legacy_checks))
    return {
        "cases": case_rows,
        "totals": totals,
        "embeddings_identical": all_identical,
        "reduction_feasibility_checks": reduction,
    }


def build_truss_graphs(smoke: bool) -> List[Tuple[str, Graph]]:
    graphs: List[Tuple[str, Graph]] = []
    graphs.append(("network", generate_network(
        NetworkConfig(nodes=150 if smoke else 600, cliques=4,
                      petals=3, flowers=3), seed=2)))
    graphs.append(("planted", planted_partition_graph(
        3 if smoke else 5, 12 if smoke else 25, 0.6, 0.03,
        random.Random(3))))
    graphs.append(("random", gnm_random_graph(
        40 if smoke else 120, 120 if smoke else 480, random.Random(9))))
    return graphs


def run_truss(graphs: List[Tuple[str, Graph]]) -> Dict[str, object]:
    rows = []
    all_agree = True
    for name, graph in graphs:
        start = time.perf_counter()
        bucketed = truss_decomposition(graph)
        wall_bucket = time.perf_counter() - start
        start = time.perf_counter()
        rescanned = truss_decomposition_rescan(graph)
        wall_rescan = time.perf_counter() - start
        agrees = bucketed == rescanned
        all_agree = all_agree and agrees
        rows.append({
            "name": name,
            "edges": graph.size(),
            "max_trussness": max(bucketed.values()) if bucketed else 0,
            "wall_seconds_bucket": wall_bucket,
            "wall_seconds_rescan": wall_rescan,
            "agrees_with_rescan": agrees,
        })
    return {"cases": rows, "agrees": all_agree}


def check_baseline(report: Dict[str, object],
                   baseline_path: str) -> List[str]:
    """Failures if indexed feasibility_checks regressed above baseline."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    recorded = (baseline.get("matching", {}).get("totals", {})
                .get("indexed", {}).get("feasibility_checks"))
    if recorded is None:
        return [f"baseline {baseline_path} lacks indexed "
                "feasibility_checks"]
    current = (report["matching"]["totals"]["indexed"]
               ["feasibility_checks"])
    if current > recorded:
        return [f"indexed feasibility_checks regressed: {current} > "
                f"baseline {recorded}"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs for CI (seconds, not minutes)")
    parser.add_argument("--baseline", default=None,
                        help="recorded BENCH_kernel.json to gate "
                             "feasibility_checks against")
    args = parser.parse_args(argv)

    matching = run_matching(build_matching_cases(args.smoke))
    truss = run_truss(build_truss_graphs(args.smoke))
    report = {
        "smoke": args.smoke,
        "min_reduction_gate": MIN_REDUCTION,
        "matching": matching,
        "truss": truss,
    }

    failures: List[str] = []
    if not matching["embeddings_identical"]:
        failures.append("embedding sets differ across kernels")
    if matching["reduction_feasibility_checks"] < MIN_REDUCTION:
        failures.append(
            f"feasibility_checks reduction "
            f"x{matching['reduction_feasibility_checks']:.2f} "
            f"below the x{MIN_REDUCTION:.0f} gate")
    if not truss["agrees"]:
        failures.append("bucket-queue truss peeler disagrees with the "
                        "rescan peeler")
    if args.baseline:
        failures.extend(check_baseline(report, args.baseline))

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    totals = matching["totals"]
    print(f"matching: {len(matching['cases'])} cases, "
          f"feasibility_checks legacy={totals['legacy']['feasibility_checks']} "
          f"indexed={totals['indexed']['feasibility_checks']} "
          f"(x{matching['reduction_feasibility_checks']:.2f} reduction), "
          f"embeddings identical: {matching['embeddings_identical']}")
    print(f"truss: {len(truss['cases'])} graphs, "
          f"bucket==rescan: {truss['agrees']}")
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
