"""Command-line interface: build, query, and render data-driven VQIs.

Usage (after ``pip install -e .``)::

    repro-vqi build repo.lg --spec out.json --svg panel.svg -k 8
    repro-vqi query repo.lg --pattern 0 --spec out.json
    repro-vqi inspect out.json
    repro-vqi summarize network.lg --spec out.json
    repro-vqi serve repo.lg --port 8080 --rate 50

The ``.lg`` input holds either a repository (many graphs) or a single
network (one graph); CATAPULT or TATTOO is dispatched accordingly,
mirroring :func:`repro.vqi.build_vqi`.  The pipeline flags
(``--workers``/``--deadline``/``--max-retries``/``--trace``/
``--seed``) come from one shared parent parser
(:func:`shared_pipeline_parser`) and behave identically on every
pipeline-running subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.graph.io import read_lg, read_repository_json


def _load_data(path: str):
    """Load graphs from .lg or .json; single graph => network."""
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"input file {path!r} does not exist")
    if file_path.suffix == ".json":
        graphs = read_repository_json(file_path)
    else:
        graphs = read_lg(file_path)
    if not graphs:
        raise ReproError(f"{path!r} contains no graphs")
    if len(graphs) == 1:
        return graphs[0]
    return graphs


def _budget_from_args(args: argparse.Namespace):
    from repro.patterns.base import PatternBudget
    return PatternBudget(args.max_patterns, min_size=args.min_size,
                         max_size=args.max_size)


def _pipeline_config(args: argparse.Namespace):
    """The one :class:`repro.core.pipeline.PipelineConfig` every
    pipeline-running subcommand uses.

    The shared parent parser guarantees ``--workers``, ``--deadline``,
    ``--max-retries``, ``--trace``, and ``--seed`` exist and mean the
    same thing on every such subcommand.  ``--deadline`` turns the
    selection pipelines into anytime runs (best-so-far patterns at
    expiry); ``--max-retries`` enables fault-tolerant parallel
    execution.
    """
    from repro.core.pipeline import PipelineConfig
    return PipelineConfig(budget=_budget_from_args(args),
                          seed=args.seed, workers=args.workers,
                          trace=bool(args.trace),
                          deadline_s=args.deadline,
                          max_retries=args.max_retries)


def _build_vqi_reporting(args: argparse.Namespace, data):
    """Build a VQI honoring the shared flags; one code path for every
    subcommand, so degraded warnings and ``--trace`` output behave
    identically across ``build``/``query``/``summarize``/``report``."""
    from repro.vqi.builder import build_vqi_with_report
    config = _pipeline_config(args)
    vqi, report = build_vqi_with_report(data, config.budget, config)
    if report.degraded:
        incomplete = sorted(
            stage for stage, entry in report.completion.items()
            if not entry.get("complete", True))
        detail = f" (incomplete: {', '.join(incomplete)})" \
            if incomplete else ""
        print(f"warning: degraded result — the pipeline hit its "
              f"deadline or skipped faulty work{detail}")
    if args.trace:
        from repro.obs import write_trace
        if report.trace is None:
            raise ReproError("the selection pipeline produced no trace")
        write_trace([report.trace], args.trace)
        print(f"trace written to {args.trace}")
    return vqi, report


def _cmd_build(args: argparse.Namespace) -> int:
    data = _load_data(args.data)
    vqi, report = _build_vqi_reporting(args, data)
    print(f"generator: {report.generator} "
          f"({report.duration:.2f}s)")
    print(f"attribute panel: "
          f"{', '.join(vqi.attribute_panel.node_alphabet())}")
    for pattern in vqi.pattern_panel.canned:
        from repro.patterns.topologies import classify_topology
        print(f"  canned: {classify_topology(pattern.graph).value:<9} "
              f"n={pattern.order()} m={pattern.size()}")
    if args.spec:
        Path(args.spec).write_text(vqi.spec.to_json(indent=2),
                                   encoding="utf-8")
        print(f"spec written to {args.spec}")
    if args.svg:
        Path(args.svg).write_text(vqi.render_pattern_panel(),
                                  encoding="utf-8")
        print(f"pattern panel rendered to {args.svg}")
    if args.trace and report.trace is not None:
        from repro.obs import format_trace
        print(format_trace(report.trace))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.vqi.spec import VQISpec
    spec = VQISpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    print(f"source: {spec.source}")
    print(f"generator: {spec.generator}")
    print(f"node labels: {len(spec.attribute_panel.node_labels)}")
    print(f"edge labels: {len(spec.attribute_panel.edge_labels)}")
    budget = spec.pattern_panel.budget
    print(f"budget: {budget.max_patterns} patterns, sizes "
          f"[{budget.min_size}, {budget.max_size}]")
    print(f"basic patterns: {len(spec.pattern_panel.basic)}")
    print(f"canned patterns: {len(spec.pattern_panel.canned)}")
    for pattern in spec.pattern_panel.canned:
        from repro.patterns.topologies import classify_topology
        print(f"  {classify_topology(pattern.graph).value:<9} "
              f"n={pattern.order()} m={pattern.size()} "
              f"source={pattern.source}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.vqi.spec import VQISpec
    data = _load_data(args.data)
    if args.spec:
        spec = VQISpec.from_json(Path(args.spec).read_text(
            encoding="utf-8"))
        from repro.vqi.builder import VisualQueryInterface
        from repro.graph.graph import Graph
        if isinstance(data, Graph):
            vqi = VisualQueryInterface(spec, network=data)
        else:
            vqi = VisualQueryInterface(spec, repository=data)
    else:
        vqi, _ = _build_vqi_reporting(args, data)
    panel = vqi.pattern_panel.canned
    if not 0 <= args.pattern < len(panel):
        raise ReproError(
            f"pattern index {args.pattern} out of range "
            f"(panel has {len(panel)} canned patterns)")
    vqi.query_panel.builder.add_pattern(panel[args.pattern])
    results = vqi.execute(max_embeddings=args.limit)
    print(f"query: canned pattern #{args.pattern} "
          f"(n={panel[args.pattern].order()}, "
          f"m={panel[args.pattern].size()})")
    print(f"matches: {results.match_count()} graphs, "
          f"{results.embedding_count()} embeddings "
          f"({results.graphs_pruned} pruned by the label index)")
    for match in results.matches[:args.limit]:
        print(f"  {match.graph.name or match.graph_index}: "
              f"{len(match.embeddings)} embeddings")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.graph.graph import Graph
    from repro.summary.pattern_summary import summarize_with_patterns
    data = _load_data(args.data)
    if not isinstance(data, Graph):
        raise ReproError("summarize expects a single-network input")
    vqi, _ = _build_vqi_reporting(args, data)
    result = summarize_with_patterns(data,
                                     list(vqi.pattern_panel.canned),
                                     max_instances=args.instances)
    print(f"original: {data.order()} nodes, {data.size()} edges")
    print(f"summary : {result.summary.order()} nodes, "
          f"{result.summary.size()} edges "
          f"({len(result.instances)} pattern instances, "
          f"coverage {result.coverage():.1%})")
    if args.output:
        from repro.graph.io import graph_to_json
        Path(args.output).write_text(graph_to_json(result.summary,
                                                   indent=2),
                                     encoding="utf-8")
        print(f"summary graph written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.datasets import generate_workload
    from repro.graph.graph import Graph
    from repro.usability.report import usability_report
    data = _load_data(args.data)
    repository = [data] if isinstance(data, Graph) else data
    vqi, _ = _build_vqi_reporting(args, data)
    workload = list(generate_workload(repository, args.queries,
                                      seed=args.seed))
    report = usability_report(workload,
                              list(vqi.pattern_panel.canned),
                              title=f"Usability evaluation: "
                                    f"{args.data}",
                              seed=args.seed)
    if args.output:
        report.save(args.output)
        print(f"report written to {args.output}")
    else:
        print(report.markdown)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import PatternService, ServiceConfig, serve
    from repro.store import DiskBackend
    data = _load_data(args.data)
    backend = DiskBackend(args.store) if args.store else None
    service = PatternService(
        data, _pipeline_config(args),
        ServiceConfig(rate=args.rate, burst=args.burst,
                      max_inflight=args.max_inflight,
                      request_log=args.request_log),
        backend=backend)
    snapshot = service.snapshots.current()
    state = "built"
    if service.recovery is not None:
        replayed = service.recovery.replayed_batches
        state = f"recovered (+{replayed} WAL batch(es))" \
            if replayed else "recovered"
    print(f"{state} {len(snapshot.patterns)} patterns "
          f"({snapshot.generator}); serving {args.data} on "
          f"http://{args.host}:{args.port}")
    serve(service, host=args.host, port=args.port)
    return 0


def shared_pipeline_parser() -> argparse.ArgumentParser:
    """The one definition of the cross-cutting pipeline flags.

    Used as an argparse *parent* by every subcommand that runs a
    selection pipeline (``build``/``query``/``summarize``/``report``/
    ``serve``), so ``--workers``, ``--deadline``, ``--max-retries``,
    ``--trace``, and ``--seed`` are spelled, defaulted, and documented
    identically everywhere.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("pipeline options")
    group.add_argument("--workers", type=int, default=None,
                       metavar="N",
                       help="worker processes for parallel stages "
                            "(default: $REPRO_WORKERS, else serial); "
                            "results are identical at every count")
    group.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget for pattern selection; "
                            "on expiry the pipeline returns its "
                            "best-so-far patterns flagged as degraded "
                            "instead of failing")
    group.add_argument("--max-retries", type=int, default=0,
                       metavar="N",
                       help="per-item retries for parallel stages "
                            "before a faulty item is skipped "
                            "(default 0: any fault is fatal)")
    group.add_argument("--trace", metavar="PATH", default=None,
                       help="record a per-stage trace of the "
                            "selection pipeline and write it here as "
                            "JSON (serve: trace envelopes ride on "
                            "/v1/build responses instead)")
    group.add_argument("--seed", type=int, default=0,
                       help="RNG seed for every seeded stage "
                            "(default 0)")
    return parent


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-k", "--max-patterns", type=int, default=8,
                   help="canned patterns to display (default 8)")
    p.add_argument("--min-size", type=int, default=4,
                   help="minimum pattern size in nodes (default 4)")
    p.add_argument("--max-size", type=int, default=8,
                   help="maximum pattern size in nodes (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vqi",
        description="Data-driven visual query interfaces for graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [shared_pipeline_parser()]

    p_build = sub.add_parser("build", parents=shared,
                             help="build a VQI spec from graph data")
    p_build.add_argument("data", help=".lg or .json graph data")
    p_build.add_argument("--spec", help="write the VQI spec JSON here")
    p_build.add_argument("--svg",
                         help="render the pattern panel SVG here")
    _add_budget_args(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_inspect = sub.add_parser("inspect",
                               help="describe a VQI spec JSON")
    p_inspect.add_argument("spec", help="VQI spec JSON file")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_query = sub.add_parser("query", parents=shared,
                             help="run a canned pattern as a query")
    p_query.add_argument("data", help=".lg or .json graph data")
    p_query.add_argument("--spec",
                         help="use a previously built spec "
                              "(skips selection)")
    p_query.add_argument("--pattern", type=int, default=0,
                         help="canned pattern index to run (default 0)")
    p_query.add_argument("--limit", type=int, default=10,
                         help="embeddings/matches to report")
    _add_budget_args(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_summ = sub.add_parser("summarize", parents=shared,
                            help="pattern-based network summary")
    p_summ.add_argument("data", help=".lg or .json single network")
    p_summ.add_argument("--instances", type=int, default=50,
                        help="max pattern instances to collapse")
    p_summ.add_argument("--output",
                        help="write the summary graph JSON here")
    _add_budget_args(p_summ)
    p_summ.set_defaults(func=_cmd_summarize)

    p_report = sub.add_parser(
        "report", parents=shared,
        help="run the usability battery and emit Markdown")
    p_report.add_argument("data", help=".lg or .json graph data")
    p_report.add_argument("--queries", type=int, default=20,
                          help="workload size (default 20)")
    p_report.add_argument("--output",
                          help="write the Markdown report here")
    _add_budget_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_serve = sub.add_parser(
        "serve", parents=shared,
        help="serve patterns over HTTP (repro/v1 wire schema)")
    p_serve.add_argument("data", help=".lg or .json graph data")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port (default 8080)")
    p_serve.add_argument("--rate", type=float, default=None,
                         help="token-bucket refill rate in "
                              "requests/second (default: unlimited)")
    p_serve.add_argument("--burst", type=int, default=64,
                         help="token-bucket burst size (default 64)")
    p_serve.add_argument("--max-inflight", type=int, default=1,
                         help="concurrently admitted heavy requests; "
                              "excess builds/maintenance shed with "
                              "503 (default 1)")
    p_serve.add_argument("--store", metavar="DIR", default=None,
                         help="durable store directory (WAL + "
                              "segments + manifest): maintenance "
                              "batches persist and the pattern set "
                              "recovers bitwise after a crash; "
                              "created on first use, recovered on "
                              "every boot")
    p_serve.add_argument("--request-log", metavar="PATH",
                         help="append every exchange to this JSONL "
                              "log, replayable with "
                              "repro.service.replay")
    _add_budget_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
