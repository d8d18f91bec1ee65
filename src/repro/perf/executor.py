"""Deterministic parallel execution.

:func:`pmap` is the only place in the library where worker processes
are created.  Its contract is that parallel execution is
*observationally identical* to serial execution:

* results are returned in input order regardless of completion order;
* randomized work items must not share an RNG — callers split one
  seed per item from a root seed with :func:`derive_seed`, which is a
  pure SHA-256 derivation and therefore identical in every process,
  on every platform, at every worker count;
* when the pool cannot be used (``workers <= 1``, a sandboxed
  environment without process support, an unpicklable task) the exact
  same function is applied in-process instead.

Worker functions must be module-level (picklable) and pure: they
receive one picklable item and return one picklable result.

Every item runs through one attempt runner, in one of two legs.  In
the *pool* leg each item is one future; its trace subtree, every
match-cache access of all its attempts (one :class:`repro.perf.cache.
CacheDelta`) and the metrics-registry counters they made ship back
with the result, and the coordinator re-attaches them, replays the
delta into the process's match cache (:func:`repro.perf.cache.
get_match_cache`) and adds the counters, in input order.  In the
*in-process* leg spans attach in place, and counters and cache
accesses go straight to the registry and the process cache.  Either
way the merged trace is identical to a serial one up to wall-clock
fields, and the cache and work counters are identical at every worker
count.

A failing item climbs one deterministic ladder at every worker count:
attempts ``0..max_retries`` run where the item runs, with seeded
exponential backoff between them; then one in-process re-run at
attempt ``max_retries+1``.  If that fails too, policy ``"raise"``
propagates the re-run's own exception and policy ``"skip"`` puts an
:class:`ItemFailure` in the item's result slot, so input-order
determinism survives partial failure.  Because attempt numbering is
global across the ladder, an item's fate under a :mod:`repro.
resilience.chaos` fault plan is identical at every worker count.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, \
    TypeVar

from repro.errors import OptionError, WorkerFailure
from repro.obs.metrics import inc as _metric_inc, registry
from repro.perf.cache import CacheDelta, get_match_cache
from repro.obs.tracing import SpanRecord, attach_record, capture, span, \
    tracing_enabled
from repro.resilience.chaos import (
    FaultPlan as _FaultPlan,
    active_plan as _active_plan,
    install as _install_plan,
    is_corrupt as _is_corrupt,
    site as _chaos_site,
)

T = TypeVar("T")
R = TypeVar("R")

#: Failure policies: ``raise`` propagates the failing item's own
#: exception once the ladder is exhausted, ``skip`` records the item
#: as an :class:`ItemFailure` in its result slot and moves on.
FAILURE_POLICIES = ("raise", "skip")

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"

#: Set in pool workers so nested ``pmap`` calls stay in-process
#: (a worker forking its own pool would oversubscribe and deadlock
#: risk on constrained machines).
_IN_WORKER_ENV = "_REPRO_PMAP_WORKER"

#: Pool-infrastructure failures that trigger the in-process fallback.
#: AttributeError is how CPython's multiprocessing reducer reports an
#: unpicklable closure/lambda.  Exceptions raised *by the mapped
#: function* never reach the coordinator this way: the worker's
#: attempt runner catches them.
_POOL_ERRORS = (OSError, ImportError, AttributeError, BrokenProcessPool,
                pickle.PicklingError, TypeError)

#: Backoff scale between in-place retries (see :func:`backoff_s`).
_RETRY_BASE_S = 0.001

#: Bound on the hot-entry snapshot pool workers are seeded with.
_CACHE_SEED_LIMIT = 512

#: ``(status, attempts_used, value, trace_record, delta, counters)``.
_Outcome = Tuple[str, int, object, Optional[SpanRecord],
                 Optional[CacheDelta], Optional[Dict[str, float]]]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``.

    Unset, empty, or malformed environment values resolve to 1
    (serial).  The result is always >= 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(raw)
        except ValueError:
            workers = 1
    return max(1, workers)


def derive_seed(root_seed: int, index: int) -> int:
    """Split an independent per-item seed from a root seed.

    SHA-256 of ``"root:index"`` truncated to 63 bits — deterministic
    across processes and platforms (unlike ``hash``), and statistically
    independent across indices (unlike ``root + index``, whose streams
    a ``random.Random`` can correlate).
    """
    payload = f"{root_seed}:{index}".encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_seeds(root_seed: int, count: int) -> List[int]:
    """``count`` independent seeds split from ``root_seed``."""
    return [derive_seed(root_seed, index) for index in range(count)]


def _mark_worker(seed_pairs) -> None:
    os.environ[_IN_WORKER_ENV] = "1"
    # warm the worker's process cache from the coordinator's hot
    # snapshot; seeding is silent, so it can only save compute —
    # merged hit/miss accounting is replayed on the coordinator and
    # never sees the seed
    get_match_cache().seed(seed_pairs)


class ItemFailure:
    """The result-slot record of an item skipped after the failure
    ladder was exhausted (``on_item_failure="skip"``).

    Occupying the failed item's slot keeps ``pmap``'s input-order
    contract intact under partial failure; callers filter with
    ``isinstance`` and report the skip in their completion report.
    """

    __slots__ = ("index", "site", "attempts", "error")

    def __init__(self, index: int, site: str, attempts: int,
                 error: str) -> None:
        self.index = index
        self.site = site
        self.attempts = attempts
        self.error = error

    def __repr__(self) -> str:
        return (f"<ItemFailure #{self.index} site={self.site} "
                f"attempts={self.attempts} {self.error!r}>")


def backoff_s(base_s: float, attempt: int, seed: int,
              index: int) -> float:
    """Deterministic exponential backoff with seeded jitter.

    ``base_s * 2**attempt`` scaled by a jitter factor in [1, 2) split
    from ``(seed, index, attempt)`` via :func:`derive_seed` — the
    same wait on every run, every platform, every worker count.
    """
    jitter = derive_seed(seed, (index << 8) | (attempt & 0xFF))
    return base_s * (2 ** attempt) * (1.0 + jitter / float(2 ** 63))


def _failure_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def failure_policy(max_retries: int = 0,
                   deadline_s: Optional[float] = None) -> str:
    """The ``on_item_failure`` policy a pipeline stage should use.

    ``"skip"`` (degrade and record) whenever the run opted into
    resilience — retries, a wall-clock budget, or an installed chaos
    plan — and ``"raise"`` otherwise, so a fault-free run surfaces a
    failing item's own exception instead of a degraded result.
    """
    if (max_retries > 0 or deadline_s is not None
            or _active_plan() is not None):
        return "skip"
    return "raise"


def _run_attempts(fn: Callable, index: int, item: object,
                  first_attempt: int, attempts: int, seed: int,
                  site_name: str, plan: Optional[_FaultPlan],
                  ship_record: bool = False, reraise: bool = False
                  ) -> Tuple[str, int, object, Optional[SpanRecord]]:
    """Run one item for up to ``attempts`` attempts, numbered from
    ``first_attempt``.  Returns ``(status, attempts_used, value,
    record)`` where status is ``"ok"`` or ``"fail"`` and value is the
    result or the failure text; with ``reraise`` the last attempt's
    exception propagates instead.

    Each call installs a fresh zero-counter copy of the fault plan,
    so chaos decisions depend only on (key, attempt, within-item call
    count) — never on which process ran the item.  With
    ``ship_record`` the item's trace subtree is captured and returned
    for the coordinator to re-attach (pool workers of a traced call);
    otherwise a plain span attaches into the open trace in place.
    """
    previous = _install_plan(plan.fresh()) if plan is not None else None
    scope = (capture("pmap.item", force=True, index=index) if ship_record
             else span("pmap.item", index=index))
    status, used, value = "fail", 0, None
    try:
        with scope:
            for offset in range(attempts):
                attempt = first_attempt + offset
                used = offset + 1
                try:
                    corrupt = _chaos_site(site_name, key=index,
                                          attempt=attempt)
                    result = fn(item)
                    if corrupt or _is_corrupt(result):
                        raise WorkerFailure(
                            site_name, key=index, attempt=attempt,
                            kind="corrupt",
                            cause="corrupted result detected in transit")
                    status, value = "ok", result
                    break
                except Exception as exc:  # noqa: BLE001 - ladder boundary
                    _metric_inc("perf.pmap.item_errors")
                    scope.add("errors", 1)
                    if used < attempts:
                        _metric_inc("perf.pmap.retries")
                        time.sleep(backoff_s(_RETRY_BASE_S, attempt,
                                             seed, index))
                    else:
                        scope.add("failed", "true")
                        if reraise:
                            raise
                    value = _failure_text(exc)
    finally:
        if plan is not None:
            _install_plan(previous)
    return status, used, value, scope.record if ship_record else None


def _pool_entry(payload) -> _Outcome:
    """Pool-worker entry: run all of an item's attempts with every
    cache access recorded into one delta and every count into the
    registry, zeroed first (it holds the fork's copy of the
    coordinator's counts, or the previous item's), and ship the
    outcome, trace record, delta and counters back — every component
    picklable by construction."""
    fn, index, item, attempts, seed, site_name, plan, traced = payload
    delta = CacheDelta()
    registry().reset()
    with get_match_cache().recording(delta):
        outcome = _run_attempts(fn, index, item, 0, attempts, seed,
                                site_name, plan, ship_record=traced)
    return outcome + (delta, registry().snapshot()["counters"])


def _pool_outcomes(fn: Callable, work: List, workers: int,
                   attempts: int, seed: int, site_name: str,
                   plan: Optional[_FaultPlan], traced: bool,
                   item_timeout_s: Optional[float]
                   ) -> List[Optional[_Outcome]]:
    """Run every item in a process pool, one future each, so a single
    stuck item can time out without blocking the batch.

    A slot stays ``None`` for an item the pool did not resolve (a
    pool failure, or an item behind a timed-out one); the coordinator
    runs those in-process.  Workers are seeded with the hottest
    entries of the process cache.  Once every future has resolved the
    pool is joined; a timeout instead abandons it —
    ``shutdown(wait=False, cancel_futures=True)`` — after salvaging
    siblings that already finished.
    """
    outcomes: List[Optional[_Outcome]] = [None] * len(work)
    seeds = get_match_cache().hot_entries(_CACHE_SEED_LIMIT)
    pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
    abandon = False
    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(work)),
            initializer=_mark_worker, initargs=(seeds,))
        futures = [
            pool.submit(_pool_entry,
                        (fn, index, item, attempts, seed, site_name,
                         plan, traced))
            for index, item in enumerate(work)]
        for index, future in enumerate(futures):
            try:
                outcomes[index] = future.result(timeout=item_timeout_s)
            except concurrent.futures.TimeoutError:
                _metric_inc("perf.pmap.timeouts")
                outcomes[index] = (
                    "timeout", attempts,
                    f"WorkerFailure: item {index} exceeded "
                    f"{item_timeout_s}s timeout", None, None, None)
                for later in range(index + 1, len(futures)):
                    other = futures[later]
                    if (other.done() and not other.cancelled()
                            and other.exception() is None):
                        outcomes[later] = other.result()
                abandon = True
                break
        _metric_inc("perf.pmap.parallel_calls")
    except _POOL_ERRORS:
        _metric_inc("perf.pmap.fallback_calls")
    finally:
        if pool is not None:
            # cancel only when abandoning: cancelling after a pickling
            # failure can leave CPython 3.11's pool manager thread
            # waiting forever on the failed item
            pool.shutdown(wait=not abandon, cancel_futures=abandon)
    return outcomes


def pmap(fn: Callable[[T], R], items: Sequence[T],
         workers: Optional[int] = None, *,
         max_retries: int = 0,
         on_item_failure: str = "raise",
         retry_seed: int = 0,
         item_timeout_s: Optional[float] = None,
         site: str = "pmap.item") -> List[R]:
    """Map ``fn`` over ``items``, in parallel, preserving input order.

    Parameters
    ----------
    fn:
        A module-level (picklable) pure function of one item.
    items:
        The work items; consumed eagerly.
    workers:
        Process count; ``None`` reads ``REPRO_WORKERS`` (default 1).
        ``workers <= 1`` runs in-process with no pool at all.
    max_retries:
        In-place retries per failing item before the in-process
        re-run, with deterministic seeded backoff (:func:`backoff_s`).
    on_item_failure:
        ``"raise"`` (default) propagates the exception of an item
        whose in-process re-run failed too (a timed-out item raises
        :class:`repro.errors.WorkerFailure` of kind ``"hang"``);
        ``"skip"`` replaces its result slot with an
        :class:`ItemFailure` record and keeps going.
    retry_seed:
        Backoff jitter seed — the same waits on every run.
    item_timeout_s:
        Per-item wall-clock limit for pool workers.  On expiry the
        pool is abandoned (never joined) and unfinished items are
        resolved in-process; the stuck item itself fails with kind
        ``"hang"`` and is not re-run.
    site:
        Failure-site name for error records and for
        :mod:`repro.resilience.chaos` fault plans targeting this call.

    Every item's match-cache accesses land in the process cache
    (:func:`repro.perf.cache.get_match_cache`).  In-process items
    read and count against it directly.  Pool workers are seeded
    with its hottest entries and record each item's accesses, over
    all of its attempts, into a :class:`repro.perf.cache.CacheDelta`
    that the coordinator replays into it in input order — so its
    hit/miss counters move identically at every worker count.  The
    registry counters a pool item makes ship home the same way and
    are added in input order.

    The return value is exactly ``[fn(item) for item in items]``; the
    pool is an implementation detail that can never change the result.
    With ``on_item_failure="skip"`` the contract weakens per failed
    item only: that item's slot holds an :class:`ItemFailure`.
    """
    if on_item_failure not in FAILURE_POLICIES:
        raise OptionError(
            f"unknown on_item_failure {on_item_failure!r}; expected "
            f"one of {FAILURE_POLICIES}")
    if max_retries < 0:
        raise OptionError("max_retries must be >= 0")
    work = list(items)
    workers = resolve_workers(workers)
    plan = _active_plan()
    attempts = max_retries + 1
    _metric_inc("perf.pmap.calls")
    _metric_inc("perf.pmap.items", len(work))
    if workers > 1 and len(work) > 1 and not os.environ.get(_IN_WORKER_ENV):
        outcomes = _pool_outcomes(fn, work, workers, attempts, retry_seed,
                                  site, plan, tracing_enabled(),
                                  item_timeout_s)
    else:
        _metric_inc("perf.pmap.serial_calls")
        outcomes = [None] * len(work)
    results: List = []
    for index, item in enumerate(work):
        outcome = outcomes[index]
        if outcome is None:
            status, used, value, _ = _run_attempts(
                fn, index, item, 0, attempts, retry_seed, site, plan)
        else:
            status, used, value, record, delta, counts = outcome
            if record is not None:
                attach_record(record)
            if delta is not None:
                get_match_cache().merge_delta(delta)
            for name, count in (counts or {}).items():
                _metric_inc(name, count)
        if status == "fail":
            # one in-process re-run, continuing the global attempt
            # numbering (a timed-out fn is assumed genuinely stuck
            # and is never re-run)
            _metric_inc("perf.pmap.serial_reruns")
            status, rerun_used, value, _ = _run_attempts(
                fn, index, item, attempts, 1, retry_seed, site, plan,
                reraise=on_item_failure == "raise")
            used += rerun_used
        if status == "ok":
            results.append(value)
        elif on_item_failure == "skip":
            _metric_inc("perf.pmap.items_skipped")
            results.append(ItemFailure(index, site, used, str(value)))
        else:
            raise WorkerFailure(site, key=index, attempt=max_retries,
                                kind="hang", cause=value)
    return results
