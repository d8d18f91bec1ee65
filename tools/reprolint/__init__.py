"""reprolint — AST-based invariant checker for the repro library.

The reproduction commits to three load-bearing contracts (DESIGN.md,
"Design choices"):

1. **Determinism** — every randomized component takes an explicit
   ``random.Random`` seed; nothing reads the shared module-level RNG.
2. **Dependency hygiene** — ``src/`` is pure stdlib + numpy; networkx
   and scipy exist only as test oracles.
3. **Complexity caps** — every embedding-enumeration path is bounded by
   an explicit ``max_embeddings``-style cap.

reprolint machine-checks those contracts with a stdlib-only ``ast``
pass (R001-R010, per-file) plus a whole-program analysis engine —
symbol table, call graph, and intra-procedural dataflow under
``reprolint.analysis`` — that powers the project rules R011-R014:

========  =====================================================
Rule      Invariant
========  =====================================================
R001      no unseeded / module-level RNG use
R002      no forbidden third-party imports under ``src/``
R003      enumeration calls must pass an explicit cap
R004      no mutable default arguments
R005      public API that consumes randomness must expose rng/seed
R006      no bare ``except`` or silent ``except: pass``
R007      parallelism goes through repro.perf (no raw pools)
R008      no neighbors() materialisation in matching/truss kernels
R009      pipeline stages run inside tracing spans
R011      Graph mutations bump _version; cached views stay frozen
R012      pmap payloads are module-level and picklable
R013      expensive stage loops poll their Deadline
R014      wall-clock confined to obs/resilience/perf; no set-order
          leaking into pipeline results
========  =====================================================

(R010 — typed errors only — rounds out the per-file set.)

Usage::

    python -m reprolint src/repro              # text report, exit 1 on hit
    python -m reprolint src/repro --format json
    python -m reprolint --project --format sarif src/repro
    python -m reprolint --project --stats src/repro
    python -m reprolint --list-rules

Violations are suppressed in source with a trailing comment on the
reported line::

    rng = random.Random()  # reprolint: disable=R001

or for a whole file with ``# reprolint: disable-file=R001`` on a
comment-only line.
"""

from reprolint.config import LintConfig
from reprolint.registry import all_rules, get_rule, register
from reprolint.runner import LintResult, lint_paths
from reprolint.violations import Violation

__version__ = "0.1.0"

__all__ = [
    "LintConfig",
    "LintResult",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
    "__version__",
]
