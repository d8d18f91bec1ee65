"""Greedy pattern-set selection (lazy-greedy/CELF).

Both CATAPULT (over candidates walked out of cluster summary graphs)
and TATTOO (over candidates extracted from the truss decomposition)
finish with a greedy sweep that maximises the pattern-set score —
coverage plus diversity minus cognitive load — under the budget.
Because the coverage term is monotone submodular, greedy achieves the
constant-factor approximation (1/e for the regularised non-monotone
objective) that TATTOO proves.

The sweep combines incremental scoring with CELF lazy evaluation.
The scorer keeps a running per-edge best-utility map,
pairwise-similarity sum, and load sum, so one candidate evaluation
costs O(|cover(c)| + k) instead of O(k·|cover| + k²); a max-heap of
stale upper bounds then skips most evaluations outright.

The result is **byte-identical** to the quadratic sweep that re-scores
every candidate every round through :meth:`SetScorer.score` (the
oracle in ``tests/oracles.py``): every score is built from the same
floating-point folds in the same order (DESIGN.md, "Selection"), and
the lazy sweep's tie-breaking reproduces the quadratic sweep's
first-max-in-admissible-order rule exactly.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BudgetError, WorkerFailure
from repro.obs import metrics, span
from repro.resilience.chaos import site as chaos_site
from repro.resilience.deadline import UNBOUNDED, Deadline
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.index import CoverageIndex
from repro.perf.executor import resolve_workers
from repro.patterns.scoring import (
    DEFAULT_WEIGHTS,
    ScoreWeights,
    cognitive_load,
    pattern_similarity,
)

#: Bound on the scorer's pairwise-similarity LRU cache (same
#: discipline as :class:`repro.perf.cache.MatchCache`: least recently
#: used entries are evicted once the cache is full).
SIM_CACHE_MAX_ENTRIES = 65_536

#: Candidate evaluations between deadline polls inside one round.
#: Together with the between-rounds poll this keeps the anytime
#: contract at ladder scale, where a single round can outlive the
#: whole budget; the "at least one evaluation" guarantee is intact
#: because the first poll can only fire at evaluation 64.
DEADLINE_POLL_EVERY = 64

#: Chaos-injection site armed per candidate evaluation (keyed by the
#: candidate's canonical code, attempt = prior evaluations of it).
SELECT_SITE = "patterns.select"


class SetScorer:
    """Incremental pattern-set score against a coverage index.

    ``score(S) = (w_cov * cov(S) + w_div * div(S) + w_cl * (1 - load(S)))
    / (w_cov + w_div + w_cl)`` — the same objective as
    :func:`repro.patterns.scoring.pattern_set_score`, but with
    coverage answered by the index and pairwise similarities cached
    (LRU-bounded to ``sim_cache_entries``).

    The scorer exists in two layers.  The **oracle** layer is
    :meth:`score`: stateless, evaluates any pattern sequence.  The
    **incremental** layer is :meth:`commit` / :meth:`rollback` /
    :meth:`marginal_score` / :meth:`committed_score`: a sweep commits
    its selections one by one and each marginal evaluation reuses the
    committed per-edge best-utility map and running similarity/load
    sums.  Both layers accumulate in *commit order* — per pattern, the
    raw coverage gain is folded from 0.0 over its covered edges, the
    similarities to all earlier patterns are folded from 0.0, and each
    total is added to the running sum in one addition — so
    ``marginal_score(c)`` after committing ``S`` is bitwise equal to
    ``score(list(S) + [c])``.
    """

    def __init__(self, index: CoverageIndex,
                 weights: ScoreWeights = DEFAULT_WEIGHTS,
                 similarity_method: str = "feature",
                 sim_cache_entries: int = SIM_CACHE_MAX_ENTRIES) -> None:
        self.index = index
        self.weights = weights
        self.similarity_method = similarity_method
        self.sim_cache_entries = sim_cache_entries
        self._sim_cache: "OrderedDict[Tuple[str, str], float]" = \
            OrderedDict()
        self._sim_hits = 0
        self._sim_misses = 0
        self._sim_evictions = 0
        self._load_cache: Dict[str, float] = {}
        # incremental sweep state (commit/rollback/marginal_score)
        self._committed: List[Pattern] = []
        self._edge_best: Dict[int, Dict[Tuple[int, int], float]] = {}
        self._cov_sum = 0.0
        self._sim_sum = 0.0
        self._load_sum = 0.0
        self._undo: List[Tuple[List[Tuple[int, Tuple[int, int],
                                          Optional[float]]],
                               float, float, float]] = []

    # -- caches -----------------------------------------------------------
    def _similarity(self, p1: Pattern, p2: Pattern) -> float:
        key = (p1.code, p2.code) if p1.code <= p2.code else (p2.code,
                                                             p1.code)
        cached = self._sim_cache.get(key)
        if cached is not None:
            self._sim_cache.move_to_end(key)
            self._sim_hits += 1
            return cached
        self._sim_misses += 1
        value = pattern_similarity(p1, p2,
                                   method=self.similarity_method)
        self._sim_cache[key] = value
        while len(self._sim_cache) > self.sim_cache_entries:
            self._sim_cache.popitem(last=False)
            self._sim_evictions += 1
        return value

    def _load(self, pattern: Pattern) -> float:
        if pattern.code not in self._load_cache:
            self._load_cache[pattern.code] = cognitive_load(pattern.graph)
        return self._load_cache[pattern.code]

    def sim_cache_stats(self) -> Dict[str, float]:
        """Occupancy and hit counters of the similarity LRU cache."""
        total = self._sim_hits + self._sim_misses
        return {
            "entries": len(self._sim_cache),
            "max_entries": self.sim_cache_entries,
            "hits": self._sim_hits,
            "misses": self._sim_misses,
            "evictions": self._sim_evictions,
            "hit_rate": self._sim_hits / total if total else 0.0,
        }

    # -- stateless oracle -------------------------------------------------
    def diversity(self, patterns: Sequence[Pattern]) -> float:
        if len(patterns) < 2:
            return 1.0
        total = 0.0
        pairs = 0
        for i, p1 in enumerate(patterns):
            for p2 in patterns[i + 1:]:
                total += self._similarity(p1, p2)
                pairs += 1
        return 1.0 - total / pairs

    def mean_load(self, patterns: Sequence[Pattern]) -> float:
        if not patterns:
            return 0.0
        return sum(self._load(p) for p in patterns) / len(patterns)

    def _sim_fold(self, committed: Sequence[Pattern],
                  candidate: Pattern) -> float:
        """Similarities of ``candidate`` to ``committed``, folded from
        0.0 in commit order (the canonical accumulation)."""
        total = 0.0
        for previous in committed:
            total += self._similarity(previous, candidate)
        return total

    def _combined(self, size: int, cov_sum: float, sim_sum: float,
                  load_sum: float) -> float:
        """The set score from commit-order accumulated components."""
        w = self.weights
        weight_sum = w.coverage + w.diversity + w.cognitive_load
        if weight_sum == 0:
            return 0.0
        total_edges = self.index.total_edges
        cov = cov_sum / total_edges if total_edges else 0.0
        if size < 2:
            div = 1.0
        else:
            pairs = size * (size - 1) // 2
            div = 1.0 - sim_sum / pairs
        load = load_sum / size if size else 0.0
        return (w.coverage * cov + w.diversity * div
                + w.cognitive_load * (1.0 - load)) / weight_sum

    def score(self, patterns: Sequence[Pattern]) -> float:
        """Score any pattern sequence (the stateless oracle).

        Folds the sequence exactly as :meth:`commit` would, without
        touching the committed state, so ``score(list(S) + [c])`` is
        bitwise equal to ``marginal_score(c)`` after committing ``S``.
        """
        edge_best: Dict[int, Dict[Tuple[int, int], float]] = {}
        committed: List[Pattern] = []
        cov_sum = 0.0
        sim_sum = 0.0
        load_sum = 0.0
        for pattern in patterns:
            cov_sum += self.index.apply_gain(pattern, edge_best)
            sim_sum += self._sim_fold(committed, pattern)
            load_sum += self._load(pattern)
            committed.append(pattern)
        return self._combined(len(committed), cov_sum, sim_sum,
                              load_sum)

    # -- incremental layer ------------------------------------------------
    @property
    def committed(self) -> Tuple[Pattern, ...]:
        """The committed pattern sequence, in commit order."""
        return tuple(self._committed)

    def reset(self) -> None:
        """Clear the committed sweep state (caches survive)."""
        self._committed.clear()
        self._edge_best.clear()
        self._undo.clear()
        self._cov_sum = 0.0
        self._sim_sum = 0.0
        self._load_sum = 0.0

    def _marginal_parts(self, candidate: Pattern
                        ) -> Tuple[float, float, float, float]:
        """(gain, sims, load, score) of adding ``candidate`` to the
        committed set, without committing it."""
        gain = self.index.marginal_gain(candidate, self._edge_best)
        sims = self._sim_fold(self._committed, candidate)
        load = self._load(candidate)
        score = self._combined(len(self._committed) + 1,
                               self._cov_sum + gain,
                               self._sim_sum + sims,
                               self._load_sum + load)
        return gain, sims, load, score

    def marginal_score(self, candidate: Pattern) -> float:
        """Score of the committed set with ``candidate`` appended.

        Costs O(|cover(candidate)| + k) against the committed state —
        the incremental replacement for ``score(committed + [c])``,
        with a bitwise-equal result.
        """
        return self._marginal_parts(candidate)[3]

    def commit(self, candidate: Pattern) -> float:
        """Append ``candidate`` to the committed set.

        Folds its gain into the per-edge best-utility map (recording
        an undo entry for :meth:`rollback`) and advances the running
        coverage/similarity/load sums by the same additions the oracle
        fold performs.  Returns the new committed score.
        """
        undo_edges: List[Tuple[int, Tuple[int, int],
                               Optional[float]]] = []
        gain = self.index.apply_gain(candidate, self._edge_best,
                                     undo_edges)
        sims = self._sim_fold(self._committed, candidate)
        load = self._load(candidate)
        self._undo.append((undo_edges, self._cov_sum, self._sim_sum,
                           self._load_sum))
        self._cov_sum += gain
        self._sim_sum += sims
        self._load_sum += load
        self._committed.append(candidate)
        return self.committed_score()

    def rollback(self) -> Pattern:
        """Undo the most recent :meth:`commit`; returns the pattern.

        Restores the per-edge map and the running sums to their exact
        previous values (the sums are restored from saved copies, not
        recomputed, so a commit/rollback pair is a true no-op).
        """
        if not self._committed:
            raise BudgetError("rollback on an empty committed set")
        undo_edges, cov_sum, sim_sum, load_sum = self._undo.pop()
        for idx, edge, previous in reversed(undo_edges):
            bucket = self._edge_best[idx]
            if previous is None:
                del bucket[edge]
            else:
                bucket[edge] = previous
        self._cov_sum = cov_sum
        self._sim_sum = sim_sum
        self._load_sum = load_sum
        return self._committed.pop()

    def committed_score(self) -> float:
        """Score of the committed set (bitwise equal to
        ``score(list(self.committed))``)."""
        return self._combined(len(self._committed), self._cov_sum,
                              self._sim_sum, self._load_sum)


class SelectionResult:
    """Selected patterns plus the per-round score trajectory.

    ``complete`` is False when the sweep stopped early on an expired
    :class:`repro.resilience.Deadline`; ``faults`` counts candidate
    evaluations dropped because scoring raised a
    :class:`repro.errors.WorkerFailure` (a crashed matcher call, or
    an injected one) — both feed the pipeline completion report.
    ``evaluations`` counts exact candidate evaluations the sweep
    performed (the lazy sweep's headline saving).
    """

    __slots__ = ("patterns", "score", "trajectory", "considered",
                 "complete", "faults", "evaluations")

    def __init__(self, patterns: PatternSet, score: float,
                 trajectory: List[float], considered: int,
                 complete: bool = True, faults: int = 0,
                 evaluations: int = 0) -> None:
        self.patterns = patterns
        self.score = score
        self.trajectory = trajectory
        self.considered = considered
        self.complete = complete
        self.faults = faults
        self.evaluations = evaluations

    def __repr__(self) -> str:
        state = "" if self.complete else " partial"
        return (f"<SelectionResult k={len(self.patterns)} "
                f"score={self.score:.3f}{state}>")


class _Sweep:
    """Mutable state one greedy sweep accumulates."""

    __slots__ = ("selected", "chosen_codes", "trajectory", "current",
                 "evaluations", "faults", "complete", "saved",
                 "heap_peak", "attempts")

    def __init__(self, selected: List[Pattern]) -> None:
        self.selected = selected
        self.chosen_codes = {p.code for p in selected}
        self.trajectory: List[float] = []
        self.current = 0.0
        self.evaluations = 0
        self.faults = 0
        self.complete = True
        self.saved = 0
        self.heap_peak = 0
        self.attempts: Dict[str, int] = {}

    def probe(self, candidate: Pattern) -> None:
        """Arm the per-candidate chaos site (count one attempt)."""
        attempt = self.attempts.get(candidate.code, 0)
        self.attempts[candidate.code] = attempt + 1
        if chaos_site(SELECT_SITE, key=candidate.code, attempt=attempt):
            raise WorkerFailure(SELECT_SITE, key=candidate.code,
                                attempt=attempt, kind="corrupt",
                                cause="corrupted candidate evaluation")

    def fault(self) -> None:
        self.faults += 1
        metrics.inc("patterns.greedy.faults")

    def mid_round_expired(self, deadline: Deadline) -> bool:
        """Poll the deadline every ``DEADLINE_POLL_EVERY`` evaluations."""
        return (self.evaluations > 0
                and self.evaluations % DEADLINE_POLL_EVERY == 0
                and deadline.check("patterns.greedy_select"))

    def take(self, winner: Pattern, score: float) -> None:
        self.selected.append(winner)
        self.chosen_codes.add(winner.code)
        self.current = score
        self.trajectory.append(score)


def _lazy_sweep(admissible: Sequence[Pattern], budget: PatternBudget,
                scorer: SetScorer, sweep: _Sweep, improve_only: bool,
                deadline: Deadline) -> None:
    """CELF lazy-greedy sweep over incremental marginal scores.

    A max-heap holds one entry per candidate, keyed ``(-bound,
    admissible_index)``.  A bound is the committed-state score with
    the candidate's *stale* components substituted in: its coverage
    gain from the last round it was evaluated (gains only shrink as
    commits raise the per-edge map — the submodular direction) and its
    similarity fold from that round (folds only grow as commits append
    non-negative terms).  Both substitutions push the combined score
    up through the same rounded operations the exact evaluation uses,
    so a bound is ``>=`` the exact score *bitwise*, and a fresh
    (evaluated this round) entry's key equals its exact score.  The
    first fresh entry popped is therefore the quadratic sweep's winner:
    every candidate with a higher exact score would have popped (and
    been evaluated) first, and ties resolve by admissible index —
    the first-max rule.  Non-submodular diversity/load weights (any
    negative weight) disable the shortcut: bounds become +inf and
    every pop re-evaluates, which is plain incremental greedy.
    """
    scorer.reset()
    selected = sweep.selected
    for pattern in selected:  # seeds, committed in order
        scorer.commit(pattern)
    sweep.current = scorer.committed_score() if selected else 0.0
    w = scorer.weights
    bounds_valid = (w.coverage >= 0 and w.diversity >= 0
                    and w.cognitive_load >= 0)

    stale_gain: Dict[int, float] = {}
    stale_sims: Dict[int, float] = {}
    sims_applied: Dict[int, int] = {}
    # Bound-seeding pass: one coverage fold per candidate (counted as
    # an evaluation — it is the dominant cost of one), no similarity
    # work.  Candidates that fault here enter the heap with an +inf
    # bound so they are re-tried the first time they top it.
    for i, candidate in enumerate(admissible):
        if candidate.code in sweep.chosen_codes:
            continue
        if sweep.mid_round_expired(deadline):
            # Mid-round expiry: the partial pass is abandoned, except
            # that an empty sweep still takes the best candidate
            # scored so far (the anytime contract promises at least
            # one pattern when one scored).  With no seeds the seeded
            # bounds *are* the exact one-pattern scores (bitwise), so
            # this picks the quadratic sweep's winner.
            sweep.complete = False
            if not selected:
                best_i: Optional[int] = None
                best_score = float("-inf")
                for j, gain in stale_gain.items():
                    if gain == float("inf"):
                        continue
                    score = scorer._combined(
                        1, scorer._cov_sum + gain,
                        scorer._sim_sum + stale_sims[j],
                        scorer._load_sum + scorer._load(admissible[j]))
                    if score > best_score:
                        best_score = score
                        best_i = j
                if (best_i is not None
                        and not (improve_only
                                 and best_score
                                 <= sweep.current + 1e-12)):
                    sweep.take(admissible[best_i], best_score)
                    scorer.commit(admissible[best_i])
            return
        try:
            sweep.probe(candidate)
            stale_gain[i] = scorer.index.solo_gain(candidate)
            sweep.evaluations += 1
        except WorkerFailure:
            sweep.fault()
            stale_gain[i] = float("inf")
        stale_sims[i] = 0.0
        sims_applied[i] = 0

    committed_list = scorer._committed
    while len(selected) < budget.max_patterns:
        if sweep.trajectory and deadline.check("patterns.greedy_select"):
            sweep.complete = False
            break
        size = len(committed_list) + 1
        alive = [i for i in stale_gain
                 if admissible[i].code not in sweep.chosen_codes]
        if not alive:
            break
        # Refresh every bound against the new committed sums and
        # rebuild the heap for this round.  The similarity fold is
        # kept *exact* by appending the newly committed terms in
        # commit order (the same left fold ``_marginal_parts``
        # recomputes, bit for bit; pairs come from the LRU cache) —
        # the non-submodular diversity term therefore never loosens a
        # bound, and only the coverage gain is ever stale.
        heap: List[Tuple[float, int]] = []
        for i in alive:
            candidate = admissible[i]
            applied = sims_applied[i]
            while applied < len(committed_list):
                stale_sims[i] += scorer._similarity(
                    committed_list[applied], candidate)
                applied += 1
            sims_applied[i] = applied
            gain = stale_gain[i]
            if not bounds_valid or gain == float("inf"):
                bound = float("inf")
            else:
                bound = scorer._combined(
                    size,
                    scorer._cov_sum + gain,
                    scorer._sim_sum + stale_sims[i],
                    scorer._load_sum + scorer._load(candidate))
            heap.append((-bound, i))
        heapq.heapify(heap)
        sweep.heap_peak = max(sweep.heap_peak, len(heap))
        fresh: set = set()
        round_evaluations = 0
        winner: Optional[int] = None
        winner_score = float("-inf")
        best_fresh: Optional[int] = None
        best_fresh_score = float("-inf")
        expired = False
        while heap:
            negbound, i = heapq.heappop(heap)
            if i in fresh:
                winner = i
                winner_score = -negbound
                break
            if sweep.mid_round_expired(deadline):
                expired = True
                break
            candidate = admissible[i]
            try:
                sweep.probe(candidate)
                gain, sims, _load, exact = \
                    scorer._marginal_parts(candidate)
            except WorkerFailure:
                # dropped from this round; re-enters via ``alive``
                # next round with its previous bound intact
                sweep.fault()
                continue
            sweep.evaluations += 1
            round_evaluations += 1
            stale_gain[i] = gain
            stale_sims[i] = sims
            sims_applied[i] = len(committed_list)
            fresh.add(i)
            heapq.heappush(heap, (-exact, i))
            if exact > best_fresh_score:
                best_fresh_score = exact
                best_fresh = i
        remaining = len(alive) - round_evaluations
        if remaining > 0:
            sweep.saved += remaining
            metrics.inc("patterns.greedy.lazy_hits", remaining)
        if expired:
            sweep.complete = False
            if (not selected and best_fresh is not None
                    and not (improve_only
                             and best_fresh_score
                             <= sweep.current + 1e-12)):
                sweep.take(admissible[best_fresh], best_fresh_score)
                scorer.commit(admissible[best_fresh])
            break
        if winner is None:
            break
        if improve_only and winner_score <= sweep.current + 1e-12:
            break
        sweep.take(admissible[winner], winner_score)
        scorer.commit(admissible[winner])


def greedy_select(candidates: Sequence[Pattern], budget: PatternBudget,
                  scorer: SetScorer,
                  seed_patterns: Sequence[Pattern] = (),
                  improve_only: bool = False,
                  deadline: Deadline = UNBOUNDED,
                  workers: Optional[int] = None) -> SelectionResult:
    """Greedily pick up to ``budget.max_patterns`` candidates.

    Each round adds the candidate whose inclusion maximises the set
    score.  By default the budget is *filled* (a Pattern Panel shows
    its full complement even when the marginal candidate slightly
    lowers the combined score); with ``improve_only=True`` the sweep
    stops at the first round that cannot improve the score.

    ``seed_patterns`` are treated as already selected (they count
    against the budget) — MIDAS uses this to extend a maintained set.

    ``workers`` > 1 pre-indexes the admissible candidates through
    :meth:`repro.patterns.index.CoverageIndex.add_patterns`, fanning
    the covered-edge computations out over a pool before the
    (inherently sequential) sweep starts.  The sweep evaluates every
    admissible candidate's coverage anyway, so pre-indexing changes
    which process computes each entry but not a single result.

    The sweep is an anytime algorithm: it always completes at least
    one evaluation, polls ``deadline`` between rounds *and* every
    :data:`DEADLINE_POLL_EVERY` evaluations inside a round, and
    returns its best-so-far set (``complete=False``) once the budget
    is gone.  A candidate whose evaluation raises :class:`repro.
    errors.WorkerFailure` is dropped from that round and counted in
    ``faults`` instead of aborting the sweep.

    The sweep is lazy-greedy (CELF), byte-identical to the quadratic
    sweep (see the module docstring).
    """
    admissible = [c for c in candidates if budget.admits(c.graph)]
    if workers is not None and resolve_workers(workers) > 1:
        scorer.index.add_patterns(admissible, workers=workers,
                                  deadline=deadline)
    with span("patterns.greedy_select",
              candidates=len(admissible)) as record:
        selected: List[Pattern] = list(seed_patterns)
        if len(selected) > budget.max_patterns:
            raise BudgetError("seed patterns already exceed the budget")
        sweep = _Sweep(selected)
        _lazy_sweep(admissible, budget, scorer, sweep, improve_only,
                    deadline)
        record.add("rounds", len(sweep.trajectory))
        record.add("evaluations", sweep.evaluations)
        record.add("selected", len(sweep.selected))
        record.add("heap_peak", sweep.heap_peak)
        record.add("evaluations_saved", sweep.saved)
        if sweep.faults:
            record.add("faults", sweep.faults)
        if not sweep.complete:
            record.add("partial", "true")
    metrics.inc("patterns.greedy.calls")
    metrics.inc("patterns.greedy.evaluations", sweep.evaluations)
    if sweep.saved:
        metrics.inc("patterns.greedy.evaluations_saved", sweep.saved)
    sim_stats = scorer.sim_cache_stats()
    metrics.set_gauge("patterns.scorer.sim_cache.size",
                      sim_stats["entries"])
    metrics.set_gauge("patterns.scorer.sim_cache.evictions",
                      sim_stats["evictions"])
    return SelectionResult(PatternSet(sweep.selected), sweep.current,
                           sweep.trajectory,
                           considered=len(admissible),
                           complete=sweep.complete, faults=sweep.faults,
                           evaluations=sweep.evaluations)


def exhaustive_select(candidates: Sequence[Pattern],
                      budget: PatternBudget,
                      scorer: SetScorer) -> SelectionResult:
    """Exact optimum by exhaustive search (small instances only).

    Used by the E10 approximation-quality experiment as the oracle
    against which greedy's ratio is measured.  Enumeration walks the
    scorer's incremental path: consecutive combinations share a
    committed prefix, so each combination costs one rollback walk
    plus one marginal evaluation instead of a full re-score.
    """
    from itertools import combinations

    metrics.inc("patterns.exhaustive.calls")
    admissible = [c for c in candidates if budget.admits(c.graph)]
    # dedup isomorphic candidates: they contribute identically
    unique: List[Pattern] = []
    seen: set[str] = set()
    for candidate in admissible:
        if candidate.code not in seen:
            seen.add(candidate.code)
            unique.append(candidate)
    if len(unique) > 18:
        raise BudgetError(
            f"exhaustive search over {len(unique)} candidates is "
            "intractable; this oracle is for small instances")
    best_patterns: Sequence[Pattern] = ()
    best_score = 0.0
    evaluations = 0
    scorer.reset()
    stack: List[Pattern] = []
    try:
        for k in range(1, budget.max_patterns + 1):
            for combo in combinations(unique, k):
                prefix = combo[:-1]
                shared = 0
                while (shared < len(stack) and shared < len(prefix)
                       and stack[shared] is prefix[shared]):
                    shared += 1
                while len(stack) > shared:
                    scorer.rollback()
                    stack.pop()
                for pattern in prefix[shared:]:
                    scorer.commit(pattern)
                    stack.append(pattern)
                score = scorer.marginal_score(combo[-1])
                evaluations += 1
                if score > best_score:
                    best_score = score
                    best_patterns = combo
    finally:
        scorer.reset()
    metrics.inc("patterns.exhaustive.evaluations", evaluations)
    return SelectionResult(PatternSet(best_patterns), best_score, [],
                           considered=len(unique),
                           evaluations=evaluations)
