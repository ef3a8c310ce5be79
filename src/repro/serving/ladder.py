"""The request ladder, written once for both servers.

:class:`RequestLadder` is everything :class:`~repro.serving.pool.WorkerPool`
and :class:`~repro.aio.server.AsyncServer` do between dispatching a
request and answering it.  Dataflow of one request::

    cache lookup ── hit ──► response
    └─ miss: circuit breaker allow?
          │  attempt (seed from the request seed and attempt number)
          │  bounded retries (reseeded, deterministic backoff)
          │  reflexion rung (optional)
          │  exhausted → forced direct answer (§3.3)
          │  even that failed → classified error (taxonomy)
          ▼
       cache store ──► response

Every request ends with a **classified outcome** on the degradation
ladder (``ok`` → ``retried`` → ``reflected`` → ``degraded`` →
``deadline_exceeded`` / ``error_transient`` / ``error_permanent``; see
:data:`repro.serving.request.OUTCOMES`).  The reflexion rung
(``reflect=ReflectPolicy(...)``; see
:class:`~repro.serving.policy.ReflectionRung`) harvests the failure,
reflects verbally and re-runs the chains with the reflection injected.
A per-backend :class:`~repro.serving.breaker.CircuitBreaker`
(``breakers=BreakerConfig(...)``) fails requests fast while the backend
is down instead of queueing retries behind it.

The ladder is sans-IO, like :class:`~repro.engine.ChainEngine`:
:meth:`RequestLadder._steps` is a generator that yields an effect
whenever it needs the substrate, and a server's pump performs it and
sends back its value or throws back its exception:

* :class:`Attempt` — run one seeded attempt;
* :class:`Backoff` — wait between attempts;
* :class:`Blocking` — a blocking call (the reflexion and degraded rungs).

The pump must throw back every ``BaseException``, so that a cancelled
request closes its spans in its own context.  Both servers run the same
ladder, so they return equal responses for equal requests
(``tests/aio/test_parity.py``).

Lifecycle events (``cache_hit``, ``cache_miss``, ``timeout``, ``retry``,
``backoff``, ``breaker_reject``, ``breaker_transition``, ``degraded``,
``error``, ``deadline_unattached``) go to an optional
:class:`~repro.tracing.ChainTracer`, next to each server's own.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.errors import CircuitOpenError, ServingTimeoutError, is_retryable
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache, CachedAnswer
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import (
    DeadlineModel,
    ReflectionRung,
    ReflectPolicy,
    RetryPolicy,
    classify_failure,
)
from repro.serving.request import TQARequest, TQAResponse
from repro.telemetry.spans import Telemetry, activate, span

__all__ = ["RequestLadder", "Attempt", "Backoff", "Blocking"]


@dataclass(frozen=True)
class Attempt:
    """Run one attempt of ``request`` under ``seed``; send its result."""

    request: TQARequest
    seed: int


@dataclass(frozen=True)
class Backoff:
    """Wait ``delay`` seconds before the next attempt."""

    delay: float


@dataclass(frozen=True)
class Blocking:
    """Call ``call()``, which may block; send its return value."""

    call: Callable[[], Any]


class RequestLadder:
    """The serving ladder both servers drive.

    ``spec`` is an :class:`~repro.serving.spec.AgentSpec` (or any object
    with ``build(seed)`` / ``build_forced(seed)`` / ``config_key``).
    Optional collaborators: an :class:`AnswerCache`, a
    :class:`RetryPolicy`, a :class:`ServingMetrics` aggregator, a
    :class:`~repro.tracing.ChainTracer`, a
    :class:`~repro.serving.breaker.BreakerConfig` (``breakers=``) that
    arms a circuit breaker for the spec's backend, a span store, and a
    :class:`ReflectPolicy` (``True`` for the default one; ``None`` or
    ``False`` leaves the reflexion rung off).
    """

    def __init__(self, spec, *, cache: AnswerCache | None,
                 policy: RetryPolicy | None,
                 metrics: ServingMetrics | None, tracer,
                 breakers: BreakerConfig | None,
                 telemetry: Telemetry | None,
                 reflect: ReflectPolicy | bool | None):
        self.spec = spec
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.metrics = metrics or ServingMetrics()
        self.tracer = tracer
        # Span store for the request/attempt/agent tree.  Defaults to the
        # tracer's store so flat serving events and hierarchical spans
        # land in one trace file.
        if telemetry is None and tracer is not None:
            telemetry = getattr(tracer, "telemetry", None)
        self.telemetry = telemetry
        if reflect is True:
            reflect = ReflectPolicy()
        self.reflect_policy = reflect or None
        self._reflect_rung: ReflectionRung | None = None
        if self.reflect_policy is not None:
            self._reflect_rung = ReflectionRung(
                spec, self.policy, self.reflect_policy, metrics=self.metrics)
        self._breaker: CircuitBreaker | None = None
        if breakers is not None:
            backend = getattr(spec, "profile", None) or "default"
            self._breaker = CircuitBreaker(
                backend, config=breakers,
                on_transition=self._on_breaker_transition)

    @property
    def breaker(self) -> CircuitBreaker | None:
        """The spec backend's circuit breaker (``None`` when disabled)."""
        return self._breaker

    # --- tracing ------------------------------------------------------------

    def _trace(self, chain: int, kind: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit_for(chain, f"serving_{kind}", 0, **data)

    def _on_breaker_transition(self, backend: str, old_state: str,
                               new_state: str) -> None:
        self.metrics.record_breaker_transition(old_state, new_state)
        self._trace(0, "breaker_transition", backend=backend,
                    old_state=old_state, new_state=new_state)

    @staticmethod
    def _failure_response(uid: str, exc: BaseException) -> TQAResponse:
        """The last-resort response for a request that failed outside
        the ladder: never drop a caller without an answer."""
        return TQAResponse(uid=uid, answer=[],
                           error=f"{type(exc).__name__}: {exc}",
                           outcome=classify_failure(exc))

    # --- the ladder ---------------------------------------------------------

    def _steps(self, chain: int, uid: str, key: str | None,
               request: TQARequest):
        """The ladder of one request: yields effects, returns the response.

        One ``request`` span roots the request's tree: the attempts, the
        runners inside them and the SQL/Python stages below all nest
        under it, and their token totals fold into it.
        """
        with activate(self.telemetry), \
                span("request", trace_id=chain, uid=uid) as request_span:
            response = yield from self._ladder(chain, uid, key, request)
            if request_span is not None:
                request_span.set(outcome=response.outcome,
                                 cached=response.cached,
                                 degraded=response.degraded,
                                 attempts=response.attempts)
            return response

    def _ladder(self, chain: int, uid: str, key: str | None,
                request: TQARequest):
        started = time.perf_counter()
        if key is not None:
            cached = self.cache.get(key)
            hit = cached is not None
            self.metrics.record_cache(hit)
            self._trace(chain, "cache_hit" if hit else "cache_miss",
                        uid=uid)
            if hit:
                return cached.to_response(
                    uid, latency=time.perf_counter() - started)
        result, attempts, last_exc, last_error = yield from self._attempts(
            chain, uid, request)
        reflections = 0
        reflected = False
        if self._reflect_rung is not None:
            # The reflexion rung: harvest the failure, reflect verbally,
            # re-run the chains with the reflection injected.
            (result, reflections, reflected, last_exc,
             last_error) = yield Blocking(partial(
                 self._reflect_rung.attempt, request, result, last_exc,
                 last_error=last_error, attempts=attempts,
                 breaker=self._breaker,
                 trace=lambda kind, **data: self._trace(
                     chain, kind, uid=uid, **data)))
        degraded = False
        if result is None and self.policy.degrade_on_exhaustion:
            # The §3.3 fallback rung: one-iteration forced direct answer,
            # request seed, no deadline.
            degraded = True
            self._trace(chain, "degraded", uid=uid)
            try:
                with span("degraded_attempt"):
                    runner = self.spec.build_forced(request.seed)
                    result = yield Blocking(partial(
                        runner.run, request.table, request.question))
            except Exception as exc:
                last_exc = exc
                last_error = f"{type(exc).__name__}: {exc}"
                result = None
        if result is None:
            # The final rung: a terminal error, classified.
            return TQAResponse(uid=uid, answer=[], degraded=degraded,
                               attempts=attempts, reflections=reflections,
                               error=last_error,
                               latency=time.perf_counter() - started,
                               outcome=classify_failure(last_exc))
        outcome = ("degraded" if degraded
                   else "reflected" if reflected
                   else "retried" if attempts > 1 else "ok")
        response = TQAResponse(
            uid=uid, answer=list(result.answer),
            iterations=getattr(result, "iterations", 0),
            forced=bool(getattr(result, "forced", False)) or degraded,
            handling_events=list(
                getattr(result, "handling_events", ()) or ()),
            degraded=degraded, attempts=attempts, reflections=reflections,
            error=last_error,
            latency=time.perf_counter() - started, outcome=outcome)
        # Only clean first-class results are reusable; degraded answers
        # depend on wall-clock luck and must not poison the cache.
        if key is not None and not degraded:
            self.cache.put(key, CachedAnswer.from_response(response))
        return response

    def _attempts(self, chain: int, uid: str, request: TQARequest):
        """The retry rungs; returns ``(result, attempts, last_exc,
        last_error)``, with ``result`` ``None`` when no attempt
        succeeded."""
        result = None
        last_error = ""
        last_exc: Exception | None = None
        attempts = 0
        breaker = self._breaker
        for attempt in range(self.policy.max_attempts):
            if breaker is not None and not breaker.allow():
                # Fail fast: no point burning reseeded attempts against
                # an open circuit — drop to the degradation rung.
                last_exc = CircuitOpenError(
                    f"backend {breaker.backend!r} circuit is open")
                last_error = str(last_exc)
                self.metrics.record_breaker_rejection()
                self._trace(chain, "breaker_reject", uid=uid,
                            attempt=attempt + 1,
                            backend=breaker.backend)
                break
            attempts = attempt + 1
            seed = self.policy.attempt_seed(request.seed, attempt)
            try:
                with span("attempt", index=attempts):
                    result = yield Attempt(request, seed)
                if breaker is not None:
                    breaker.record_success()
                break
            except ServingTimeoutError as exc:
                last_exc = exc
                last_error = str(exc)
                self.metrics.record_timeout()
                self._trace(chain, "timeout", uid=uid, attempt=attempts)
            except CircuitOpenError as exc:
                # A circuit opened *mid-attempt* (e.g. a nested serving
                # layer): account it as a rejection, not a fresh backend
                # failure, and stop burning attempts — same treatment as
                # the pre-attempt allow() refusal above.
                last_exc = exc
                last_error = str(exc)
                self.metrics.record_breaker_rejection()
                self._trace(chain, "breaker_reject", uid=uid,
                            attempt=attempts, mid_attempt=True)
                break
            except Exception as exc:
                last_exc = exc
                last_error = f"{type(exc).__name__}: {exc}"
                self._trace(chain, "error", uid=uid, attempt=attempts,
                            error=last_error,
                            retryable=is_retryable(exc))
            if breaker is not None:
                breaker.record_failure()
            if attempt + 1 < self.policy.max_attempts:
                self.metrics.record_retry()
                self._trace(chain, "retry", uid=uid,
                            next_attempt=attempts + 1)
                delay = self.policy.backoff_delay(request.seed, attempt)
                if delay > 0:
                    self.metrics.record_backoff(delay)
                    self._trace(chain, "backoff", uid=uid,
                                delay=round(delay, 6))
                    yield Backoff(delay)
        return result, attempts, last_exc, last_error

    # --- blocking runners ---------------------------------------------------

    def _run_blocking(self, runner, request: TQARequest, deadline):
        """Run ``runner`` to completion, its model under ``deadline``."""
        if deadline is not None:
            if hasattr(runner, "model"):
                runner.model = DeadlineModel(runner.model, deadline)
            else:
                # A configured timeout that cannot be enforced must not
                # pass silently: the request would run unbounded.  Count
                # it (alarmable) and trace it, then run anyway — shedding
                # the request entirely would be worse than running it.
                self.metrics.record_deadline_unattached()
                self._trace(0, "deadline_unattached", uid=request.uid,
                            runner=type(runner).__name__)
        return runner.run(request.table, request.question)
