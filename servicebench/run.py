"""Service-level benchmark of ``repro-vqi serve`` over live HTTP.

Usage::

    python3 servicebench/run.py --workload net-explore --seed 1 \\
        --seconds 20 --trace 0

One invocation generates the workload's data from ``--seed``, starts
the real server (``python -m repro.cli serve``) as a child process,
sets it up several times (``setup_s`` is the median), drives the last
one for ``--seconds`` over at most two persistent HTTP/1.1
connections, and checks every output: every response is 200, no
maintenance batch is quarantined, every sampled query matches, and
served panels equal in-process controls byte for byte.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the untraced pass is followed by a traced pass
through ``launcher.py``, and the last line holds the per-layer
metrics, including the tracing overhead on each end-to-end metric.
Every metric is also printed above it by name with its unit.  The
exit status is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("net-explore", "repo-mixed", "repo-durable")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="data sizes (tiny: the benchmark's tests)")
    parser.add_argument("--fault", choices=("wrong-panel",
                                            "damage-store"),
                        help="break one check on purpose (the "
                             "benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {SRC}; run from the "
              "root of a repro checkout", file=sys.stderr)
        return 2
    from harness import PIPELINE_SEED, SERVER_ENV, CheckFailed
    from metrics import end_to_end, per_layer, properties
    from workloads import WORKLOADS
    # unwind through the finally blocks that stop the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    metrics, props, failures, attempted = {}, {}, [], 0
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir,
                                            args.scale, args.fault)
        phases = [workload.run_phase(args.seconds, traced=False)]
        if args.trace:
            phases.append(workload.run_phase(args.seconds, traced=True))
            workload.check_repeat(*phases)
        for phase in phases:
            failures += phase.failures
            attempted += phase.attempted
        metrics = end_to_end(workload, phases[0])
        props = properties(workload, phases[0])
        if args.trace:
            metrics = per_layer(workload, phases[0], phases[1], metrics)
    except (CheckFailed, OSError, http.client.HTTPException) as error:
        failures.append(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(attempted, len(failures), 1)
    print("server: " + " ".join(f"{key}={value}" for key, value
                                in sorted(SERVER_ENV.items()))
          + f" repro-vqi serve --seed {PIPELINE_SEED}")
    for failure in failures:
        print(f"check failed: {failure}")
    for name, (value, unit) in sorted(props.items()):
        print(f"property {args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
