"""The worker pool: N concurrent agents behind one bounded queue.

Dataflow of one request::

    submit ──► [coalesce onto identical in-flight request?]
           ──► RequestQueue ──► worker thread ──► request ladder ──► response

The pool is a thin shell over :class:`~repro.serving.ladder.RequestLadder`
(cache, breaker, retries, reflexion and degraded rungs, classification).
It keeps only its own substrate: the bounded queue, the worker threads,
listener-based coalescing, and a pump that performs the ladder's effects
inline on the worker thread — each ``Run`` through an
:class:`~repro.engine.EffectHandler`'s ``pump``, backoff as ``sleep``.

Determinism: each attempt builds a fresh runner from the spec with a seed
derived only from the request seed and attempt number, so responses do not
depend on worker count or dispatch order.  No exception escapes a worker.

Lifecycle events (``enqueue``, ``dispatch``, ``coalesce``, ``complete``
here; the ladder's own in :mod:`repro.serving.ladder`) are emitted to an
optional :class:`~repro.tracing.ChainTracer`.
"""

from __future__ import annotations

import threading
import time

from repro.engine.driver import EffectHandler
from repro.errors import QueueClosedError, ServingError
from repro.serving.breaker import BreakerConfig
from repro.serving.cache import AnswerCache, request_fingerprint
from repro.serving.ladder import Backoff, RequestLadder
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import ReflectPolicy, RetryPolicy
from repro.serving.request import (
    PendingResponse,
    RequestQueue,
    TQARequest,
    TQAResponse,
)
from repro.table.frame import DataFrame
from repro.telemetry.spans import Telemetry

__all__ = ["WorkerPool"]


class WorkerPool(RequestLadder):
    """Serve TQA requests over ``workers`` concurrent agent threads.

    The collaborators (``spec``, ``cache``, ``policy``, ``metrics``,
    ``tracer``, ``breakers``, ``telemetry``, ``reflect``) are the
    :class:`~repro.serving.ladder.RequestLadder`'s; an ``AnswerCache``
    also enables in-flight request coalescing.  ``batch_scheduler=True``
    runs each s-vote attempt's chains as one tick loop (coalesced model
    calls) instead of one loop per chain.

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`.
    """

    def __init__(self, spec, *, workers: int = 4,
                 cache: AnswerCache | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None, queue_capacity: int = 256,
                 breakers: BreakerConfig | None = None,
                 telemetry: Telemetry | None = None,
                 batch_scheduler: bool = False,
                 reflect: ReflectPolicy | bool | None = None,
                 sleep=time.sleep):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(spec, cache=cache, policy=policy, metrics=metrics,
                         tracer=tracer, breakers=breakers,
                         telemetry=telemetry, reflect=reflect)
        self.workers = workers
        self.batch_scheduler = batch_scheduler
        self.queue = RequestQueue(queue_capacity)
        self._sleep = sleep
        self._threads: list[threading.Thread] = []
        self._inflight: dict[str, PendingResponse] = {}
        self._inflight_lock = threading.Lock()
        self._request_counter = 0
        self._started = False

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"tqa-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """Close the queue; with ``wait``, join workers after it drains."""
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads.clear()
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # --- submission ---------------------------------------------------------

    def submit(self, table: DataFrame, question: str, *, seed: int = 0,
               uid: str = "") -> PendingResponse:
        """Enqueue one question; returns a :class:`PendingResponse`."""
        return self.submit_request(
            TQARequest(table=table, question=question, seed=seed, uid=uid))

    def submit_request(self, request: TQARequest) -> PendingResponse:
        if not self._started:
            raise ServingError("pool is not running (call start())")
        with self._inflight_lock:
            self._request_counter += 1
            chain = self._request_counter
        uid = request.uid or f"req-{chain}"
        key = None
        if self.cache is not None:
            key = request_fingerprint(request, config=self.spec.config_key)
            # Coalesce onto an identical in-flight computation: the
            # duplicate never reaches the queue.
            with self._inflight_lock:
                primary = self._inflight.get(key)
                if primary is not None:
                    slot = PendingResponse()
                    primary.add_listener(slot, uid)
                    self.metrics.record_coalesced()
                    self._trace(chain, "coalesce", uid=uid)
                    return slot
                slot = PendingResponse()
                self._inflight[key] = slot
        else:
            slot = PendingResponse()
        self._trace(chain, "enqueue", uid=uid,
                    question=request.question)
        try:
            self.queue.put((chain, uid, key, request, slot))
        except QueueClosedError as exc:
            self._forget_inflight(key)
            # Duplicates coalesced onto this slot while it waited for
            # room must not wait forever.
            slot.set(self._failure_response(uid, exc))
            raise
        self.metrics.record_submit(self.queue.depth)
        return slot

    # --- worker internals ---------------------------------------------------

    def _forget_inflight(self, key: str | None) -> None:
        if key is None:
            return
        with self._inflight_lock:
            self._inflight.pop(key, None)

    def _worker_loop(self) -> None:
        while True:
            try:
                chain, uid, key, request, slot = self.queue.get()
            except QueueClosedError:
                return
            self._trace(chain, "dispatch", uid=uid,
                        queue_depth=self.queue.depth)
            try:
                response = self._answer(chain, uid, key, request)
            except Exception as exc:  # last-resort: never drop a slot
                response = self._failure_response(uid, exc)
            slot.set(response)
            self._forget_inflight(key)
            self.metrics.record_response(response)
            self._trace(chain, "complete", uid=uid,
                        answer=response.answer_text,
                        cached=response.cached,
                        degraded=response.degraded,
                        outcome=response.outcome,
                        latency=round(response.latency, 6))

    def _answer(self, chain: int, uid: str, key: str | None,
                request: TQARequest) -> TQAResponse:
        """Pump the ladder, performing its effects on this thread."""
        steps = self._steps(chain, uid, key, request)
        resume, value = steps.send, None
        while True:
            try:
                effect = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                if isinstance(effect, Backoff):
                    value = self._sleep(effect.delay)
                else:
                    value = effect.perform(EffectHandler)
                resume = steps.send
            except BaseException as exc:
                # Back into the ladder, which handles what it can and
                # re-raises the rest (cancellation too) once its spans
                # are closed.
                resume, value = steps.throw, exc
