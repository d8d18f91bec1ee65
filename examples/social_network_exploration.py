"""Large-network scenario: TATTOO selection + bottom-up search.

A large collaboration-style network looks like a "hairball"; the
Pattern Panel's canned patterns give the user a bird's-eye view of
the substructures that actually occur, so a query can be started
bottom-up from a representative pattern rather than guessed top-down.

Run:  python examples/social_network_exploration.py
"""

from repro.core import PatternBudget, PipelineConfig, build_vqi_with_report
from repro.datasets import NetworkConfig, generate_network
from repro.patterns import classify_topology
from repro.truss import truss_statistics


def main() -> None:
    network = generate_network(
        NetworkConfig(nodes=1200, cliques=25, petals=20, flowers=12),
        seed=11)
    print(f"network: {network.order()} nodes, {network.size()} edges")
    stats = truss_statistics(network)
    print(f"  max trussness {stats['max_trussness']:.0f}, "
          f"{stats['infested_fraction']:.0%} of edges truss-infested")

    budget = PatternBudget(max_patterns=8, min_size=4, max_size=9)
    vqi, report = build_vqi_with_report(
        network, budget, PipelineConfig(seed=3),
        source_name="collab-net")
    print(f"\nbuilt with {report.generator} in {report.duration:.1f}s")
    for stage, seconds in report.details.items():
        print(f"  stage {stage:<10}: {seconds:.2f}s")

    print("\nPattern Panel (bottom-up entry points):")
    for pattern in vqi.pattern_panel.canned:
        topo = classify_topology(pattern.graph).value
        print(f"  {topo:<8} n={pattern.order()} m={pattern.size()} "
              f"from {pattern.source}")

    # bottom-up search: start from a star pattern the panel surfaced
    entry = max(vqi.pattern_panel.canned,
                key=lambda p: p.order())
    print(f"\ndropping the largest pattern "
          f"({classify_topology(entry.graph).value}, "
          f"n={entry.order()}) as a query...")
    vqi.query_panel.builder.add_pattern(entry)
    results = vqi.execute(max_embeddings=10)
    print(f"  {results.embedding_count()} embeddings found; "
          f"result subgraphs shown in the Results Panel")
    aesthetics = vqi.results_panel.aesthetics()
    print(f"  results panel satisfaction (Berlyne): "
          f"{aesthetics['satisfaction']:.2f}")


if __name__ == "__main__":
    main()
