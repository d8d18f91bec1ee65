"""Multi-scan swapping: MIDAS's pattern-set update strategy.

Given the current canned patterns and a candidate pool mined from the
modified clusters, repeatedly scan the candidates and apply any swap
(candidate in, current pattern out) that strictly improves the
pattern-set score.  Because only improving swaps are applied, the
maintained set's quality is guaranteed to be at least that of the
original — the invariant the MIDAS paper states.

Two pruning devices keep scans cheap:

* **coverage upper bound** — a candidate whose solo coverage is below
  the smallest marginal coverage in the current set can only win on
  diversity/load, so it is skipped when it also has a higher
  cognitive load than every current pattern;
* **covered-graph index** — candidates covering no indexed graph are
  dropped outright.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs import metrics, span
from repro.patterns.base import Pattern
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SetScorer


class SwapStats:
    """What a swapping run did (for E6's ablation reporting)."""

    __slots__ = ("scans", "swaps", "considered", "pruned",
                 "score_before", "score_after")

    def __init__(self) -> None:
        self.scans = 0
        self.swaps = 0
        self.considered = 0
        self.pruned = 0
        self.score_before = 0.0
        self.score_after = 0.0

    def __repr__(self) -> str:
        return (f"<SwapStats scans={self.scans} swaps={self.swaps} "
                f"pruned={self.pruned} "
                f"score {self.score_before:.3f}->{self.score_after:.3f}>")


def _min_marginal_coverage(patterns: Sequence[Pattern],
                           index: CoverageIndex) -> float:
    """Smallest marginal coverage any current pattern contributes."""
    smallest = float("inf")
    for i, pattern in enumerate(patterns):
        rest = [p for j, p in enumerate(patterns) if j != i]
        marginal = index.marginal_coverage(pattern, rest)
        smallest = min(smallest, marginal)
    return 0.0 if smallest == float("inf") else smallest


def _prunable(candidate: Pattern, patterns: Sequence[Pattern],
              index: CoverageIndex, scorer: SetScorer,
              min_marginal: float) -> bool:
    if not index.covered_graphs(candidate):
        return True
    if index.solo_coverage(candidate) < min_marginal:
        # cannot improve coverage; prune unless it could still win on
        # cognitive load (strictly lighter than some current pattern)
        lightest = min(scorer.mean_load([p]) for p in patterns) \
            if patterns else 0.0
        if scorer.mean_load([candidate]) >= lightest:
            return True
    return False


def multi_scan_swap(current: Sequence[Pattern],
                    candidates: Sequence[Pattern],
                    scorer: SetScorer,
                    max_scans: int = 3,
                    prune: bool = True) -> Tuple[List[Pattern], SwapStats]:
    """Improve ``current`` by score-increasing swaps with ``candidates``.

    Returns the (possibly unchanged) new pattern list and statistics.
    The returned score is never below the input score.
    """
    stats = SwapStats()
    patterns: List[Pattern] = list(current)
    index = scorer.index
    current_score = scorer.score(patterns)
    stats.score_before = current_score
    existing_codes = {p.code for p in patterns}
    pool = [c for c in candidates if c.code not in existing_codes]

    for _ in range(max_scans):
        stats.scans += 1
        improved = False
        with span("midas.swap_scan", scan=stats.scans) as scan:
            considered_before = stats.considered
            swaps_before = stats.swaps
            min_marginal = _min_marginal_coverage(patterns, index)
            for candidate in pool:
                if candidate.code in existing_codes:
                    continue
                stats.considered += 1
                if prune and _prunable(candidate, patterns, index,
                                       scorer, min_marginal):
                    stats.pruned += 1
                    continue
                best_swap: Optional[int] = None
                best_score = current_score
                for i in range(len(patterns)):
                    trial = patterns[:i] + [candidate] + patterns[i + 1:]
                    score = scorer.score(trial)
                    if score > best_score + 1e-12:
                        best_score = score
                        best_swap = i
                if best_swap is not None:
                    existing_codes.discard(patterns[best_swap].code)
                    patterns[best_swap] = candidate
                    existing_codes.add(candidate.code)
                    current_score = best_score
                    stats.swaps += 1
                    improved = True
                    min_marginal = _min_marginal_coverage(patterns, index)
            scan.add("considered", stats.considered - considered_before)
            scan.add("swaps", stats.swaps - swaps_before)
        if not improved:
            break
    stats.score_after = current_score
    metrics.inc("midas.swap.runs")
    metrics.inc("midas.swap.scans", stats.scans)
    metrics.inc("midas.swap.swaps", stats.swaps)
    metrics.inc("midas.swap.considered", stats.considered)
    metrics.inc("midas.swap.pruned", stats.pruned)
    return patterns, stats
