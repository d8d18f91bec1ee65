"""Lint configuration: the signature tables that ground each rule.

Everything here mirrors a concrete contract of this repository rather
than a generic style preference; the defaults are the contract, and a
JSON config file can widen or narrow them per invocation (e.g. when the
checker is pointed at ``benchmarks/`` instead of ``src/``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping, Tuple


#: Methods of the ``random`` module that read or mutate the shared
#: process-global RNG.  Any call to these (directly or via
#: ``from random import choice``) breaks run-to-run determinism.
MODULE_RNG_FUNCTIONS: FrozenSet[str] = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})


@dataclass(frozen=True)
class EnumerationSignature:
    """How a capped-enumeration API accepts its cap.

    A call site satisfies the contract if it passes one of
    ``cap_keywords`` as a keyword argument, or supplies at least
    ``min_positional`` positional arguments (the cap position is then
    necessarily filled).  ``**kwargs`` forwarding is given the benefit
    of the doubt.
    """

    cap_keywords: Tuple[str, ...]
    min_positional: int


#: Enumeration entry points whose call sites must carry an explicit
#: cap.  Keyed by terminal callable name (``matcher.iter_embeddings``
#: and ``iter_embeddings`` both match ``iter_embeddings``).
DEFAULT_ENUMERATION_SIGNATURES: Dict[str, EnumerationSignature] = {
    # SubgraphMatcher.iter_embeddings(self, max_results=None)
    "iter_embeddings": EnumerationSignature(("max_results",), 1),
    # count_embeddings(pattern, target, induced=False, cap=None)
    "count_embeddings": EnumerationSignature(("cap",), 4),
    # covered_edges(pattern, target, max_embeddings=200)
    "covered_edges": EnumerationSignature(("max_embeddings",), 3),
    # set_covered_edges(patterns, graph, max_embeddings=200)
    "set_covered_edges": EnumerationSignature(("max_embeddings",), 3),
    # VisualQueryInterface.execute(self, max_embeddings=10)
    "execute": EnumerationSignature(("max_embeddings",), 1),
}


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs for a lint run.  Immutable; derive with `replace`."""

    #: Top-level third-party modules banned from the library proper.
    #: numpy is deliberately absent: it is the one permitted dependency.
    forbidden_imports: FrozenSet[str] = frozenset({"networkx", "scipy"})

    #: Parameter names that count as "this function exposes seeding".
    rng_param_names: Tuple[str, ...] = ("rng", "seed", "random_state")

    #: ``random`` module attributes that touch the global RNG (R001).
    module_rng_functions: FrozenSet[str] = MODULE_RNG_FUNCTIONS

    #: Capped-enumeration signature table (R003).
    enumeration_signatures: Mapping[str, EnumerationSignature] = field(
        default_factory=lambda: dict(DEFAULT_ENUMERATION_SIGNATURES))

    #: Exception names for which ``except X: pass`` is an accepted
    #: gating idiom (optional-dependency probing) rather than a bug.
    except_pass_allowlist: FrozenSet[str] = frozenset({
        "ImportError", "ModuleNotFoundError", "StopIteration",
    })

    # ------------------------------------------------------------------
    # whole-program rules (R011-R014)
    # ------------------------------------------------------------------

    #: The monotonic cache-invalidation counter (R011).  Any class
    #: that writes ``self.<version_attr>`` is treated as
    #: version-guarded.
    version_attr: str = "_version"

    #: Attributes whose mutation must be followed by a version bump on
    #: every non-raising path (R011).  ``_node_attrs`` is deliberately
    #: absent: node attributes take no part in matching, so the view
    #: caches need not be invalidated for them.
    version_guarded_attrs: FrozenSet[str] = frozenset({
        "_adj", "_node_labels", "_edge_labels", "_edge_attrs", "_views",
    })

    #: Zero-copy cached-view accessors whose returns are shared state;
    #: callers outside the defining module must not mutate them (R011).
    cached_view_methods: FrozenSet[str] = frozenset({
        "adjacency_sets", "label_index", "neighbor_label_counts",
    })

    #: Dotted origins of the parallel map (R012 payload checks).
    pmap_origins: FrozenSet[str] = frozenset({
        "repro.perf.pmap", "repro.perf.executor.pmap",
    })

    #: Constructors whose results must never ride into a pmap payload
    #: (unpicklable or process-local, R012).
    unpicklable_factories: FrozenSet[str] = frozenset({
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.BoundedSemaphore",
        "threading.Event", "open", "io.open",
        "repro.obs.tracing.span", "repro.obs.span",
    })

    #: Deadline methods that count as a poll (R013).
    deadline_poll_methods: FrozenSet[str] = frozenset({
        "check", "require",
    })

    #: Work a loop may not run unbounded between polls (R013): exact
    #: dotted names, ``pkg.prefix.`` subtrees (trailing dot), and —
    #: matched by terminal callable name — the capped-enumeration and
    #: kernel entry points.
    deadline_expensive_calls: FrozenSet[str] = frozenset({
        "repro.matching.", "repro.truss.", "repro.clustering.",
        "repro.perf.executor.pmap",
    })
    deadline_expensive_names: FrozenSet[str] = frozenset({
        "iter_embeddings", "count_embeddings", "covered_edges",
        "set_covered_edges", "greedy_select", "k_truss",
        "build_summary", "pmap",
    })

    #: Wall-clock reads banned outside the allowed subtrees (R014).
    #: Monotonic duration timers (``perf_counter``/``monotonic``) are
    #: deliberately absent — measuring how long a stage took is fine
    #: anywhere; knowing *what time it is* is not.
    wallclock_functions: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns", "time.ctime", "time.localtime",
        "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    })

    #: Path components under which wall-clock reads are legitimate
    #: (tracing spans, deadline arithmetic, retry backoff).
    wallclock_allowed_dirs: FrozenSet[str] = frozenset({
        "obs", "resilience", "perf",
    })

    #: Functions producing pipeline results; set-iteration feeding
    #: their returned ordering is checked by R014.
    result_root_functions: FrozenSet[str] = frozenset({
        "run_catapult", "run_tattoo", "run_midas", "run_selection",
    })

    #: Rule ids to run (empty = all registered rules).
    select: FrozenSet[str] = frozenset()

    #: Rule ids to skip.
    disable: FrozenSet[str] = frozenset()

    def with_rule_filter(self, select: FrozenSet[str],
                         disable: FrozenSet[str]) -> "LintConfig":
        return replace(self, select=select, disable=disable)

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.disable

    @classmethod
    def from_file(cls, path: str) -> "LintConfig":
        """Load overrides from a JSON file.

        Recognised keys: ``forbidden_imports`` (list of module names),
        ``rng_param_names`` (list), ``except_pass_allowlist`` (list),
        ``select``/``disable`` (lists of rule ids), and
        ``enumeration_signatures`` — a mapping of callable name to
        ``{"cap_keywords": [...], "min_positional": int}``.
        """
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config root must be a JSON object")
        kwargs: Dict[str, object] = {}
        if "forbidden_imports" in raw:
            kwargs["forbidden_imports"] = frozenset(raw["forbidden_imports"])
        if "rng_param_names" in raw:
            kwargs["rng_param_names"] = tuple(raw["rng_param_names"])
        if "except_pass_allowlist" in raw:
            kwargs["except_pass_allowlist"] = frozenset(
                raw["except_pass_allowlist"])
        if "select" in raw:
            kwargs["select"] = frozenset(raw["select"])
        if "disable" in raw:
            kwargs["disable"] = frozenset(raw["disable"])
        if "enumeration_signatures" in raw:
            table: Dict[str, EnumerationSignature] = {}
            for name, spec in raw["enumeration_signatures"].items():
                table[name] = EnumerationSignature(
                    tuple(spec.get("cap_keywords", ())),
                    int(spec.get("min_positional", 0)))
            kwargs["enumeration_signatures"] = table
        for key in ("version_guarded_attrs", "cached_view_methods",
                    "pmap_origins", "unpicklable_factories",
                    "deadline_poll_methods", "deadline_expensive_calls",
                    "deadline_expensive_names", "wallclock_functions",
                    "wallclock_allowed_dirs", "result_root_functions"):
            if key in raw:
                kwargs[key] = frozenset(raw[key])
        if "version_attr" in raw:
            kwargs["version_attr"] = str(raw["version_attr"])
        return cls(**kwargs)  # type: ignore[arg-type]
