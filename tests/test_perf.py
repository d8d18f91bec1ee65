"""Tests for repro.perf: deterministic pmap and the match cache.

The two contracts under test are the ones the performance layer is
allowed to exist by (DESIGN.md):

* **parallel == serial** — ``pmap`` at any worker count returns
  exactly what a serial comprehension returns, including for seeded
  randomized work, because seeds are split per item, not shared;
* **warm == cold** — pipelines produce identical pattern sets and
  scores on a cold match cache and on one a previous run filled,
  while performing strictly fewer VF2 searches on the warm one.
"""

import random
import sys
import threading

import pytest

from repro import obs
from repro.core import PipelineConfig, run_catapult, run_tattoo
from repro.datasets import (
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
)
from repro.graph import Graph, build_graph
from repro.matching import canonical_code, covered_edges
from repro.patterns import PatternBudget
from repro.patterns.base import Pattern
from repro.patterns.index import CoverageIndex
from repro.patterns.selection import SetScorer, greedy_select
from repro.perf import (
    MatchCache,
    cached_canonical_code,
    cached_covered_edges,
    cached_is_subgraph,
    derive_seed,
    derive_seeds,
    get_match_cache,
    graph_fingerprint,
    pmap,
    resolve_workers,
)
from repro.perf.executor import WORKERS_ENV


def _square(x):
    return x * x


def _seeded_walk(task):
    """Draw a few values from a per-task seed (must be module-level
    so process pools can pickle it)."""
    seed, steps = task
    rng = random.Random(seed)
    return [rng.randrange(1000) for _ in range(steps)]


#: Events ordering the two threads of the cache-binding test.
_GATES = {}


def _gated_access(tag):
    """One cache access, ordered so that thread "a" enters first and
    leaves first while thread "b" is still inside its item."""
    cache = get_match_cache()
    if tag == "a":
        _GATES["a_in"].set()
        _GATES["b_in"].wait(10)
    else:
        _GATES["b_in"].set()
        _GATES["a_out"].wait(10)
    key = ("pmap-binding-test", tag)
    if not cache.lookup(key)[0]:
        cache.store(key, tag)
    return tag


def _probe_subgraph(task):
    pattern, target, code = task
    return cached_is_subgraph(pattern, target, pattern_code=code)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_per_index_and_root(self):
        seeds = {derive_seed(root, i) for root in (0, 1) for i in range(50)}
        assert len(seeds) == 100

    def test_fits_in_signed_64_bits(self):
        for i in range(20):
            assert 0 <= derive_seed(123, i) < 2 ** 63

    def test_derive_seeds_matches_elementwise(self):
        assert derive_seeds(7, 5) == [derive_seed(7, i) for i in range(5)]


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(None) == 4

    def test_unset_and_malformed_mean_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert resolve_workers(None) == 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1


class TestPmap:
    def test_serial_matches_comprehension(self):
        items = list(range(25))
        assert pmap(_square, items, workers=1) == [_square(x) for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(25))
        assert pmap(_square, items, workers=4) == \
            pmap(_square, items, workers=1)

    def test_order_preserved(self):
        items = [9, 1, 7, 3, 0, 12]
        assert pmap(_square, items, workers=2) == [x * x for x in items]

    def test_empty_input(self):
        assert pmap(_square, [], workers=4) == []

    def test_seeded_randomness_identical_across_worker_counts(self):
        tasks = [(seed, 6) for seed in derive_seeds(99, 8)]
        serial = pmap(_seeded_walk, tasks, workers=1)
        parallel = pmap(_seeded_walk, tasks, workers=3)
        assert serial == parallel

    def test_unpicklable_fn_falls_back_to_serial(self):
        # a lambda cannot cross a process boundary; pmap must degrade
        # gracefully and still return the right answers in order
        items = list(range(10))
        assert pmap(lambda x: x + 1, items, workers=2) == \
            [x + 1 for x in items]


class TestPmapCacheMerge:
    def test_overlapping_in_process_calls_keep_the_global_cache(self):
        original = get_match_cache()
        before = original.hits + original.misses
        _GATES.update(a_in=threading.Event(), b_in=threading.Event(),
                      a_out=threading.Event())
        threads = {tag: threading.Thread(
            target=pmap, args=(_gated_access, [tag]),
            kwargs={"workers": 1})
            for tag in "ab"}
        threads["a"].start()
        assert _GATES["a_in"].wait(10)
        threads["b"].start()
        threads["a"].join(10)
        _GATES["a_out"].set()
        threads["b"].join(10)
        assert not any(thread.is_alive() for thread in threads.values())
        assert get_match_cache() is original
        assert original.hits + original.misses == before + 2

    def test_in_process_items_see_the_whole_cache(self):
        pattern = _triangle()
        target = generate_chemical_repository(1, seed=3)[0]
        code = canonical_code(pattern)
        obs.reset(clear_cache_entries=True)
        cache = get_match_cache()
        expected = cached_is_subgraph(pattern, target, pattern_code=code)
        # bury the answer below the 512 hottest entries a pool worker
        # would be seeded with
        for filler in range(600):
            cache.store(("filler", filler), filler)
        obs.reset()
        assert pmap(_probe_subgraph, [(pattern, target, code)],
                    workers=1) == [expected]
        assert obs.matching_snapshot()["vf2_calls"] == 0
        assert (cache.hits, cache.misses) == (1, 0)


class TestMatchCache:
    def test_lru_eviction_and_bounds(self):
        cache = MatchCache(max_entries=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        cache.lookup(("a",))  # refresh "a": "b" is now the LRU entry
        cache.store(("c",), 3)
        assert len(cache) == 2
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert cache.evictions == 1

    def test_stats_counters(self):
        cache = MatchCache(max_entries=10)
        cache.store(("k",), "v")
        found, value = cache.lookup(("k",))
        assert found and value == "v"
        found, _ = cache.lookup(("missing",))
        assert not found
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_rejects_unusable_bound(self):
        with pytest.raises(ValueError):
            MatchCache(max_entries=0)

    def test_concurrent_access_is_exact(self):
        # two slots, five keys, eight threads switching every
        # microsecond: evictions land between every other thread's
        # steps, so an unlocked lookup or store raises KeyError
        cache = MatchCache(max_entries=2)
        errors = []

        def hammer(offset):
            try:
                for step in range(50_000):
                    key = ("k", (step + offset) % 5)
                    cache.lookup(key)
                    cache.store(key, step)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == 400_000
        assert len(cache) == 2


def _triangle(labels=("C", "C", "O")):
    g = Graph(name="tri")
    for i, lab in enumerate(labels):
        g.add_node(i, label=lab)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


class TestFingerprint:
    def test_content_equality(self):
        assert graph_fingerprint(_triangle()) == \
            graph_fingerprint(_triangle())

    def test_label_sensitivity(self):
        assert graph_fingerprint(_triangle()) != \
            graph_fingerprint(_triangle(("C", "C", "N")))

    def test_labels_cannot_forge_records(self):
        # one node labeled like a second record vs. two real nodes
        forged = build_graph([(1, "A;n2:B")])
        pair = build_graph([(1, "A"), (2, "B")])
        assert graph_fingerprint(forged) != graph_fingerprint(pair)

    def test_in_place_mutation_invalidates_memo(self):
        g = _triangle()
        before = graph_fingerprint(g)
        g.set_node_label(2, "N")
        assert graph_fingerprint(g) != before
        g.set_node_label(2, "O")
        assert graph_fingerprint(g) == before


class TestCachedMatchers:
    def test_covered_edges_agrees_with_uncached(self):
        pattern = _triangle()
        repo = generate_chemical_repository(6, seed=3)
        obs.reset(clear_cache_entries=True)
        for graph in repo:
            direct = frozenset(covered_edges(pattern, graph,
                                             max_embeddings=50))
            first = cached_covered_edges(pattern, graph,
                                         max_embeddings=50)
            again = cached_covered_edges(pattern, graph,
                                         max_embeddings=50)
            assert first == direct
            assert again == direct

    def test_cache_hit_skips_vf2(self):
        pattern = _triangle()
        target = generate_chemical_repository(1, seed=3)[0]
        obs.reset(clear_cache_entries=True)
        cached_covered_edges(pattern, target)
        assert obs.matching_snapshot()["vf2_calls"] == 1
        cached_covered_edges(pattern, target)
        # answered from the cache
        assert obs.matching_snapshot()["vf2_calls"] == 1

    def test_canonical_code_agrees(self):
        g = _triangle()
        obs.reset(clear_cache_entries=True)
        assert cached_canonical_code(g) == canonical_code(g)
        assert cached_canonical_code(g) == canonical_code(g)

    def test_a_capped_answer_is_a_function_of_the_key(self):
        # a covered-edge set cut short by max_embeddings is enumerated
        # on the pattern's canonical form, so the answer the cache
        # keeps does not depend on which isomorphic pattern (numbering
        # and insertion order) asked first
        network = generate_network(NetworkConfig(
            nodes=120, cliques=3, petals=2, flowers=2), seed=4)
        rng = random.Random(5)
        nodes = sorted(network.nodes())
        for _ in range(12):
            chosen = [rng.choice(nodes)]
            while len(chosen) < 5:
                chosen.append(rng.choice(sorted(
                    {v for u in chosen for v in network.neighbors(u)}
                    - set(chosen))))
            answers = set()
            for seed in range(4):
                order = list(chosen)
                random.Random(seed).shuffle(order)
                ids = random.Random(seed + 10).sample(range(100), 5)
                renumbered = Graph()
                for node, new_id in zip(order, ids):
                    renumbered.add_node(new_id,
                                        label=network.node_label(node))
                mapping = dict(zip(order, ids))
                for u, v in network.edges():
                    if u in mapping and v in mapping:
                        renumbered.add_edge(mapping[u], mapping[v],
                                            label=network.edge_label(u, v))
                obs.reset(clear_cache_entries=True)
                answers.add(cached_covered_edges(renumbered, network,
                                                 max_embeddings=5))
            assert len(answers) == 1


@pytest.fixture(scope="module")
def small_repo():
    return generate_chemical_repository(16, seed=5)


@pytest.fixture(scope="module")
def small_network():
    return generate_network(NetworkConfig(nodes=120, cliques=3,
                                          petals=2, flowers=2), seed=4)


def _catapult(repo, **overrides):
    return run_catapult(repo, PipelineConfig(
        budget=PatternBudget(4, min_size=4, max_size=7), seed=7,
        options={"walks_per_cluster": 10}, **overrides))


def _tattoo(network, **overrides):
    return run_tattoo(network, PipelineConfig(
        budget=PatternBudget(4, min_size=4, max_size=8), seed=7,
        **overrides))


class TestPipelineEquivalence:
    def test_catapult_cache_transparent(self, small_repo):
        obs.reset(clear_cache_entries=True)
        cold = _catapult(small_repo)
        obs.reset()
        warm = _catapult(small_repo)
        # the rerun is answered entirely from the cache
        assert obs.matching_snapshot()["vf2_calls"] == 0
        assert warm.patterns.codes() == cold.patterns.codes()
        assert warm.selection.score == pytest.approx(cold.selection.score)

    def test_catapult_workers_transparent(self, small_repo):
        serial = _catapult(small_repo, workers=1)
        parallel = _catapult(small_repo, workers=2)
        assert [c.code for c in serial.candidates] == \
            [c.code for c in parallel.candidates]
        assert serial.patterns.codes() == parallel.patterns.codes()
        assert serial.selection.score == \
            pytest.approx(parallel.selection.score)

    def test_tattoo_cache_transparent(self, small_network):
        obs.reset(clear_cache_entries=True)
        cold = _tattoo(small_network)
        obs.reset()
        warm = _tattoo(small_network)
        assert obs.matching_snapshot()["vf2_calls"] == 0
        assert warm.patterns.codes() == cold.patterns.codes()
        assert warm.selection.score == pytest.approx(cold.selection.score)

    def test_tattoo_workers_transparent(self, small_network):
        serial = _tattoo(small_network, workers=1)
        parallel = _tattoo(small_network, workers=2)
        assert serial.patterns.codes() == parallel.patterns.codes()
        assert serial.selection.score == \
            pytest.approx(parallel.selection.score)


class TestVf2CallReduction:
    """The acceptance property: caching strictly reduces VF2 work."""

    def _greedy_twice(self, repo, candidates, budget, cold):
        """Two back-to-back selections, as MIDAS's scans do; ``cold``
        empties the cache before each."""
        obs.reset(clear_cache_entries=True)
        selections = []
        for _ in range(2):
            if cold:
                get_match_cache().clear()
            index = CoverageIndex(repo, max_embeddings=20)
            selections.append(greedy_select(candidates, budget,
                                            SetScorer(index)))
        return selections, obs.matching_snapshot()["vf2_calls"]

    def test_fewer_vf2_calls_with_cache(self, small_repo):
        result = _catapult(small_repo)
        candidates = result.candidates
        assert candidates, "pipeline produced no candidates"
        budget = PatternBudget(3, min_size=4, max_size=7)
        uncached_sel, uncached_calls = self._greedy_twice(
            small_repo, candidates, budget, cold=True)
        cached_sel, cached_calls = self._greedy_twice(
            small_repo, candidates, budget, cold=False)
        assert cached_calls < uncached_calls
        # the second cached pass is answered entirely from the cache,
        # so at most half the uncached VF2 searches can remain
        assert cached_calls <= uncached_calls // 2
        assert [s.patterns.codes() for s in cached_sel] == \
            [s.patterns.codes() for s in uncached_sel]
