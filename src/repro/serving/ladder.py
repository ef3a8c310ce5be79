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
(``reflect=ReflectPolicy(...)``; see :class:`ReflectionRung`) harvests
the failure, reflects verbally and re-runs the chains with the
reflection injected.  A per-backend
:class:`~repro.serving.breaker.CircuitBreaker`
(``breakers=BreakerConfig(...)``) fails requests fast while the backend
is down instead of queueing retries behind it.

The ladder is sans-IO, like :class:`~repro.engine.ChainEngine`:
:meth:`RequestLadder._steps` is a generator that yields an effect
whenever it needs the substrate, and a server's pump performs it and
sends back its value or throws back its exception.  There are two:

* :class:`Run` — pump a step body (an attempt's runner, a reflexion
  cycle, the degraded runner; see :mod:`repro.engine.driver`) through a
  handler over a model, a registry, an exception envelope and the
  attempt deadline.  The pool calls the handler's ``pump``, the async
  server awaits it; either way each round trip is one ``model_batch``
  and the deadline is checked there;
* :class:`Backoff` — wait between attempts.

The pump must throw back every ``BaseException``, so that a cancelled
request closes its spans in its own context.  Both servers run the same
ladder, so they return equal responses for equal requests
(``tests/aio/test_parity.py``).

Lifecycle events (``cache_hit``, ``cache_miss``, ``timeout``, ``retry``,
``backoff``, ``breaker_reject``, ``breaker_transition``, ``degraded``,
``error``, ``reflect``) go to an optional
:class:`~repro.tracing.ChainTracer`, next to each server's own.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.errors import (
    CircuitOpenError,
    ReflectionUnsupportedError,
    ServingTimeoutError,
    is_retryable,
)
from repro.reflect import (
    ReflectEngine,
    ReflectionMemory,
    harvest_exception,
    harvest_result,
)
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache, CachedAnswer
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import ReflectPolicy, RetryPolicy, classify_failure
from repro.serving.request import TQARequest, TQAResponse
from repro.telemetry.spans import Telemetry, activate, span

__all__ = ["RequestLadder", "ReflectionRung", "Run", "Backoff"]


@dataclass(frozen=True)
class Run:
    """Pump ``steps(handler)`` through a handler over ``model`` and
    ``registry``, with the executor envelope ``catch`` and the absolute
    ``deadline``; send its result."""

    steps: Callable[[Any], Any]
    model: Any
    registry: Any
    catch: tuple
    deadline: float | None = None

    @classmethod
    def over(cls, runner, steps, deadline: float | None = None) -> "Run":
        """``steps`` under ``runner``'s model, registry and envelope."""
        return cls(steps, runner.model, runner.registry,
                   runner.handler_catch, deadline)

    def perform(self, handler_class):
        """Pump the body through a fresh ``handler_class``: its result,
        or, for an awaitable handler, an awaitable of it."""
        handler = handler_class(self.model, self.registry,
                                catch=self.catch, deadline=self.deadline)
        return handler.pump(self.steps(handler))


@dataclass(frozen=True)
class Backoff:
    """Wait ``delay`` seconds before the next attempt."""

    delay: float


class RequestLadder:
    """The serving ladder both servers drive.

    ``spec`` is an :class:`~repro.serving.spec.AgentSpec` (or any object
    with ``build(seed)`` / ``build_forced(seed)`` / ``config_key``); its
    runners have a step body, ``steps(table, question, handler)``, and
    ``model``, ``registry`` and ``handler_catch``.  Optional
    collaborators: an :class:`AnswerCache`, a :class:`RetryPolicy`, a
    :class:`ServingMetrics` aggregator, a
    :class:`~repro.tracing.ChainTracer`, a
    :class:`~repro.serving.breaker.BreakerConfig` (``breakers=``) that
    arms a circuit breaker for the spec's backend, a span store, and a
    :class:`ReflectPolicy` (``True`` for the default one; ``None`` or
    ``False`` leaves the reflexion rung off).
    """

    #: Run an s-vote attempt's chains as one tick loop (``True``) or one
    #: loop per chain; each server sets its own packing.
    batch_scheduler = False

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
             last_error) = yield from self._reflect_rung.attempt(
                 request, result, last_exc,
                 last_error=last_error, attempts=attempts,
                 breaker=self._breaker,
                 trace=lambda kind, **data: self._trace(
                     chain, kind, uid=uid, **data))
        degraded = False
        if result is None and self.policy.degrade_on_exhaustion:
            # The §3.3 fallback rung: one-iteration forced direct answer,
            # request seed, no deadline.
            degraded = True
            self._trace(chain, "degraded", uid=uid)
            try:
                with span("degraded_attempt"):
                    runner = self.spec.build_forced(request.seed)
                    result = yield Run.over(runner, partial(
                        runner.steps, request.table, request.question))
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
                    runner = self.spec.build(seed)
                    if self.batch_scheduler and hasattr(runner,
                                                        "use_scheduler"):
                        runner.use_scheduler = True
                    result = yield Run.over(
                        runner, partial(runner.steps, request.table,
                                        request.question),
                        self.policy.deadline())
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


class ReflectionRung:
    """The reflexion rung of the request ladder (both servers run it).

    Sits between the retry ladder and the degradation rung: given
    whatever the attempts left behind (a weak result, or the exception
    that exhausted them), harvest a :class:`FailureReport`, run up to
    ``max_reflections`` reflect-and-re-run cycles through
    :class:`~repro.reflect.engine.ReflectEngine`, and hand back either an
    improved result or the originals untouched.  All accounting — the
    breaker, timeout/error metrics, lifecycle traces — mirrors a
    first-class attempt so dashboards need no special casing.

    :meth:`attempt` is the rung's part of the ladder's steps: it yields
    one :class:`Run` per reflection cycle and returns ``(result,
    reflections, improved, last_exc, last_error)``.  When no cycle
    improves on the original, the original result *and* its error fields
    come back bit-identical — reflection failures must not perturb what
    the ladder would have returned anyway (the lone exception: when the
    ladder had *no* result at all, a weak reflected result beats none,
    and a reflection-cycle exception replaces the retry ladder's so
    ``deadline_exceeded`` during reflection classifies truthfully).
    """

    def __init__(self, spec, retry_policy: RetryPolicy,
                 reflect_policy: ReflectPolicy, *, metrics=None):
        self.spec = spec
        self.retry_policy = retry_policy
        self.reflect_policy = reflect_policy
        self.metrics = metrics
        self._shared_memory = (
            ReflectionMemory(per_key=reflect_policy.memory_per_key)
            if reflect_policy.shared_memory else None)

    def _memory(self) -> ReflectionMemory:
        if self._shared_memory is not None:
            return self._shared_memory
        return ReflectionMemory(per_key=self.reflect_policy.memory_per_key)

    def attempt(self, request, result, last_exc, *, last_error: str = "",
                attempts: int = 0, breaker=None, trace=None):
        """The rung's steps; see the class docstring for the return
        tuple."""
        orig = (result, last_exc, last_error)
        if result is not None:
            report = harvest_result(result, question=request.question,
                                    attempts=attempts)
        elif last_exc is not None:
            report = harvest_exception(last_exc, question=request.question,
                                       attempts=attempts)
        else:
            report = None
        if report is None or self.reflect_policy.max_reflections < 1:
            return result, 0, False, orig[1], orig[2]
        engine = ReflectEngine(self.spec, memory=self._memory())
        used = 0
        fallback = None
        for index in range(self.reflect_policy.max_reflections):
            if breaker is not None and not breaker.allow():
                if self.metrics is not None:
                    self.metrics.record_breaker_rejection()
                if trace is not None:
                    trace("breaker_reject", backend=breaker.backend,
                          rung="reflect")
                if result is None:
                    last_exc = CircuitOpenError(
                        f"backend {breaker.backend!r} circuit is open")
                break
            used += 1
            if self.metrics is not None:
                self.metrics.record_reflection()
            if trace is not None:
                trace("reflect", index=used, category=report.category)
            seed = self.reflect_policy.reflection_seed(request.seed, index)
            deadline = self.retry_policy.deadline()
            try:
                runner = engine.runner(seed)
                candidate = yield Run.over(runner, partial(
                    engine.steps, runner, request.table, request.question,
                    report=report, index=used), deadline)
            except ServingTimeoutError as exc:
                last_exc = exc
                if self.metrics is not None:
                    self.metrics.record_timeout()
                if trace is not None:
                    trace("timeout", rung="reflect", index=used)
                if breaker is not None:
                    breaker.record_failure()
                continue
            except ReflectionUnsupportedError:
                # The spec's runner has no chain-engine seam; the rung
                # is a no-op for this configuration.
                used -= 1
                break
            except Exception as exc:
                last_exc = exc
                if trace is not None:
                    trace("error", rung="reflect", index=used,
                          error=f"{type(exc).__name__}: {exc}",
                          retryable=is_retryable(exc))
                if breaker is not None:
                    breaker.record_failure()
                continue
            if breaker is not None:
                breaker.record_success()
            candidate_report = harvest_result(
                candidate, question=request.question, attempts=attempts)
            if candidate_report is None:
                return candidate, used, True, None, ""
            # Still weak: remember it as better-than-nothing and reflect
            # again on the *new* failure evidence.
            fallback = candidate
            report = candidate_report
        if orig[0] is None and fallback is not None:
            return fallback, used, True, None, ""
        if orig[0] is None and result is None and last_exc is not orig[1]:
            # No result anywhere and the reflection cycles died on their
            # own exception (e.g. the deadline): classify that one.
            error = (str(last_exc)
                     if isinstance(last_exc, ServingTimeoutError)
                     else f"{type(last_exc).__name__}: {last_exc}")
            return None, used, False, last_exc, error
        return orig[0], used, False, orig[1], orig[2]
