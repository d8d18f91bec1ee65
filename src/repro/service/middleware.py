"""The middleware chain every service request passes through.

Order (outermost first), the contract DESIGN.md documents:

1. **request-id** — mint a deterministic id (``r-1``, ``r-2``, ...),
   time the request, and stamp total request/status/latency counters.
2. **request-log** — append the finished exchange to the JSONL
   request log (after the response exists, so the logged status is
   the mapped one and the logged body is the enveloped one).
3. **envelope** — stamp the ``repro/v1`` schema tag, the request id,
   and the ``X-Repro-Request`` header onto the response; sits inside
   the log layer so logged bodies equal served bodies.
4. **error-map** — translate the typed :class:`repro.errors.
   ReproError` taxonomy into HTTP statuses with structured bodies;
   anything else becomes a structured 500 and bumps
   ``service.errors.unhandled``.
5. **rate-limit** — the shared token bucket; empty bucket raises
   :class:`repro.errors.RateLimited` (→ 429 + ``Retry-After``).
6. **route-resolve** — match the router table; no match raises
   :class:`repro.errors.RouteNotFound` (→ 404).
7. **admission** — load-shedding for routes marked ``heavy``: an
   already-expired request deadline (``X-Repro-Deadline`` header) or
   a full build slot raises :class:`repro.errors.Overloaded` (→ 503
   with a :class:`repro.resilience.CompletionReport` body showing
   zero work done).
8. **metrics** — per-route request counters and latency timers in
   the :mod:`repro.obs` registry, then the handler itself.

Rate limiting and admission are *policy* layers: a request-log
replay runs with ``policed=False`` and skips both, because a replay
verifies handler determinism, not load behaviour.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Mapping, Optional

from repro.errors import Overloaded, RateLimited, ReproError
from repro.obs import metrics as obs_metrics
from repro.resilience.deadline import CompletionReport, Deadline
from repro.service import wire

#: Request header carrying the client's wall-clock budget in seconds.
DEADLINE_HEADER = "x-repro-deadline"

#: Response header carrying the request id.
REQUEST_ID_HEADER = "X-Repro-Request"


class Request:
    """One in-flight request as the middleware chain sees it."""

    __slots__ = ("method", "path", "body", "headers", "request_id",
                 "deadline", "route", "params", "policed")

    def __init__(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 headers: Optional[Mapping[str, str]] = None,
                 policed: bool = True) -> None:
        self.method = method.upper()
        self.path = path
        self.body = body if body is not None else {}
        self.headers = {key.lower(): value
                        for key, value in (headers or {}).items()}
        self.request_id = ""
        raw = self.headers.get(DEADLINE_HEADER)
        try:
            seconds = float(raw) if raw is not None else None
        except ValueError:
            seconds = None
        if seconds is not None and math.isnan(seconds):
            seconds = None  # NaN is unparsable, like "abc"
        if seconds is not None and seconds < 0:
            seconds = 0.0  # a negative budget is already spent
        self.deadline = Deadline.start(seconds)
        self.route = None
        self.params: Dict[str, str] = {}
        self.policed = policed

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.path}>"


class Response:
    """Status, JSON body, and extra headers of one exchange."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: Dict[str, object],
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.status = status
        self.body = body
        self.headers = headers or {}

    def __repr__(self) -> str:
        return f"<Response {self.status}>"


Next = Callable[[Request], Response]


def request_id_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        request.request_id = service.next_request_id()
        started = time.perf_counter()
        response = call_next(request)
        elapsed = time.perf_counter() - started
        obs_metrics.inc("service.requests")
        obs_metrics.inc(f"service.status.{response.status}")
        obs_metrics.observe("service.latency", elapsed)
        return response
    return middleware


def envelope_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        response = call_next(request)
        response.body.setdefault("schema", wire.WIRE_SCHEMA)
        response.body.setdefault("request_id", request.request_id)
        response.headers.setdefault(REQUEST_ID_HEADER,
                                    request.request_id)
        return response
    return middleware


def request_log_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        response = call_next(request)
        if service.request_log is not None:
            service.request_log.append(request, response)
        return response
    return middleware


def error_map_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        try:
            return call_next(request)
        except ReproError as error:
            status = status_for(error)
            obs_metrics.inc("service.errors.typed")
            obs_metrics.inc(f"service.errors.{type(error).__name__}")
            headers: Dict[str, str] = {}
            retry_after = getattr(error, "retry_after_s", None)
            if retry_after is not None:
                headers["Retry-After"] = f"{retry_after:.3f}"
            return Response(status,
                            wire.error_body(error, status,
                                            request.request_id),
                            headers)
        except Exception as error:  # noqa: BLE001 - the last resort
            obs_metrics.inc("service.errors.unhandled")
            return Response(500,
                            wire.error_body(error, 500,
                                            request.request_id))
    return middleware


def rate_limit_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        if request.policed:
            retry_after = service.bucket.acquire()
            if retry_after is not None:
                obs_metrics.inc("service.rate_limited")
                raise RateLimited(retry_after)
        return call_next(request)
    return middleware


def route_resolve_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        request.route, request.params = service.router.resolve(
            request.method, request.path)
        return call_next(request)
    return middleware


def admission_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        route = request.route
        if not request.policed or route is None or not route.heavy:
            return call_next(request)
        if request.deadline.check(f"service.{route.name}"):
            obs_metrics.inc("service.shed.deadline")
            raise Overloaded(
                "request deadline expired before work began",
                _shed_report(route.name, "deadline expired"))
        if not service.heavy_slots.acquire(blocking=False):
            obs_metrics.inc("service.shed.load")
            raise Overloaded(
                f"all {service.config.max_inflight} build slot(s) "
                "are busy",
                _shed_report(route.name, "no free build slot"))
        try:
            return call_next(request)
        finally:
            service.heavy_slots.release()
    return middleware


def metrics_middleware(service, call_next: Next) -> Next:
    def middleware(request: Request) -> Response:
        route = request.route
        name = route.name if route is not None else "unrouted"
        obs_metrics.inc(f"service.requests.{name}")
        started = time.perf_counter()
        try:
            return call_next(request)
        finally:
            obs_metrics.observe(f"service.latency.{name}",
                                time.perf_counter() - started)
    return middleware


#: The documented chain, outermost first.
MIDDLEWARE_CHAIN = (
    request_id_middleware,
    request_log_middleware,
    envelope_middleware,
    error_map_middleware,
    rate_limit_middleware,
    route_resolve_middleware,
    admission_middleware,
    metrics_middleware,
)


def build_chain(service, terminal: Next) -> Next:
    """Compose the documented middleware order around ``terminal``."""
    chain = terminal
    for factory in reversed(MIDDLEWARE_CHAIN):
        chain = factory(service, chain)
    return chain


def status_for(error: ReproError) -> int:
    """The HTTP status a typed library error maps to.

    Service errors carry their own ``status``; the library taxonomy
    maps by meaning: malformed input and invalid options are 400,
    missing things are 404, state conflicts are 409, exhausted
    budgets are 503, and worker crashes surface as 502 (the engine
    acted as a gateway to a failing worker pool).
    """
    from repro.errors import (
        BudgetError,
        BudgetExceeded,
        FormatError,
        GraphError,
        MaintenanceError,
        OptionError,
        PipelineError,
        ServiceError,
        UnknownNameError,
        WorkerFailure,
    )

    if isinstance(error, ServiceError):
        return error.status
    if isinstance(error, UnknownNameError):
        return 404
    if isinstance(error, MaintenanceError):
        return 409
    if isinstance(error, BudgetExceeded):
        return 503
    if isinstance(error, WorkerFailure):
        return 502
    if isinstance(error, (BudgetError, FormatError, GraphError,
                          OptionError, PipelineError)):
        return 400
    return 500


def _shed_report(stage: str, note: str) -> Dict[str, object]:
    report = CompletionReport()
    report.record(stage, 0, 1, complete=False, note=note)
    return report.as_dict()
