"""The async server: the request ladder as a coroutine, with admission.

Dataflow of one request::

    submit ──► [coalesce onto identical in-flight request?]
           ──► admission control
                 ├─ in-flight budget free ──────────────► dispatch
                 ├─ budget full, queue room ── WFQ park ─► dispatch
                 └─ budget full, queue full ──► typed rejection
                                                (AdmissionRejectedError,
                                                 outcome="rejected")
    dispatch ──► request ladder ──► response

The server is a thin shell over
:class:`~repro.serving.ladder.RequestLadder`, the ladder the thread pool
runs too, so the two return equal responses for the same requests
(``tests/aio/test_parity.py``).  It keeps only its own substrate:

* a request is a *coroutine*, not a thread — the in-flight budget
  (``max_inflight``) can be hundreds without hundreds of stacks;
* chain runners (greedy and s-vote) run each attempt as one
  :class:`~repro.aio.driver.AsyncChainDriver` run — the tick loop every
  chain runs through, its round-trips awaited (voted chains coalesce
  their ticks and share their states) — with the runner's exception
  envelope and the deadline on the
  :class:`~repro.aio.handler.AsyncEffectHandler` seam; blocking
  tree/execution voters and the reflexion and degraded rungs run in
  worker threads via ``asyncio.to_thread``;
* admission order under backlog is per-tenant weighted fair queueing
  (:class:`~repro.aio.fairness.WeightedFairQueue`), not FIFO: one chatty
  tenant cannot starve the rest;
* overload is *shed*, not buffered without bound: a full queue raises
  :class:`~repro.errors.AdmissionRejectedError` immediately (retryable —
  the client's signal to back off), and :meth:`answer` folds it into an
  ``outcome="rejected"`` response;
* identical in-flight requests share one future.

Telemetry: each request's span tree (``request`` → ``attempt`` →
``agent_run``/``vote_run`` → ``iteration`` → ``model_call``, as on the
pool) lives in its own asyncio task context, so trees stay correctly
nested while hundreds of requests interleave on one loop.
"""

from __future__ import annotations

import asyncio

from repro.aio.driver import AsyncChainDriver
from repro.aio.fairness import WeightedFairQueue
from repro.aio.handler import AsyncEffectHandler
from repro.errors import (
    AdmissionRejectedError,
    ExecutionError,
    QueueClosedError,
    ServingError,
)
from repro.serving.breaker import BreakerConfig
from repro.serving.cache import AnswerCache, request_fingerprint
from repro.serving.ladder import Attempt, Backoff, RequestLadder
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import ReflectPolicy, RetryPolicy
from repro.serving.request import TQARequest, TQAResponse
from repro.table.frame import DataFrame
from repro.telemetry.spans import Telemetry, span

__all__ = ["AsyncServer"]


class AsyncServer(RequestLadder):
    """Serve TQA requests as coroutines behind admission control.

    ``max_inflight`` bounds concurrently *running* requests;
    ``max_queued`` bounds requests parked in the fair queue behind them
    (``None`` = unbounded queue, never reject).  ``tenant_weights`` maps
    :attr:`TQARequest.tenant` names to WFQ weights.  ``on_complete`` is
    an optional observer called as ``on_complete(chain, request,
    response)`` once per settled primary request (rejections included,
    coalesced replicas excluded) — the seam the observability daemon
    uses to drive SLO accounting and tail sampling with the request's
    chain/trace id in hand.  The remaining collaborators (spec, cache,
    policy, metrics, tracer, breakers, telemetry, reflect) are the
    :class:`~repro.serving.ladder.RequestLadder`'s.

    Use as an async context manager, or call :meth:`close` when done.
    """

    def __init__(self, spec, *, max_inflight: int = 64,
                 max_queued: int | None = 256,
                 cache: AnswerCache | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None,
                 breakers: BreakerConfig | None = None,
                 telemetry: Telemetry | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 reflect: ReflectPolicy | bool | None = None,
                 on_complete=None,
                 sleep=asyncio.sleep):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queued is not None and max_queued < 0:
            raise ValueError("max_queued must be >= 0 (or None)")
        super().__init__(spec, cache=cache, policy=policy, metrics=metrics,
                         tracer=tracer, breakers=breakers,
                         telemetry=telemetry, reflect=reflect)
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        self.queue = WeightedFairQueue(weights=tenant_weights)
        self.on_complete = on_complete
        self._sleep = sleep
        self._active = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._request_counter = 0
        self._closed = False

    @property
    def active(self) -> int:
        """Requests currently running (admitted, not finished)."""
        return self._active

    # --- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "AsyncServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Refuse new submissions and fail every parked waiter."""
        self._closed = True
        while self.queue:
            gate = self.queue.pop()
            if not gate.done():
                gate.set_exception(QueueClosedError("server is closed"))
        # Let the woken waiters run their cleanup before we return.
        await asyncio.sleep(0)

    # --- submission ---------------------------------------------------------

    async def submit(self, table: DataFrame, question: str, *,
                     seed: int = 0, uid: str = "",
                     tenant: str = "default") -> TQAResponse:
        """Answer one question; raises on admission rejection."""
        return await self.submit_request(TQARequest(
            table=table, question=question, seed=seed, uid=uid,
            tenant=tenant))

    async def answer(self, request: TQARequest) -> TQAResponse:
        """:meth:`submit_request`, with rejection folded into the response.

        The evaluation surface: every request yields a classified
        :class:`TQAResponse` (``outcome="rejected"`` for shed ones), so
        batch callers see the full outcome distribution instead of
        exceptions.
        """
        try:
            return await self.submit_request(request)
        except AdmissionRejectedError as exc:
            return exc.response

    async def submit_request(self, request: TQARequest) -> TQAResponse:
        """Admit, run and answer ``request``.

        Raises :class:`AdmissionRejectedError` (carrying a ``.response``
        with ``outcome="rejected"``) when both the in-flight budget and
        the fair queue are full — the typed backpressure signal.
        """
        if self._closed:
            raise ServingError("server is closed")
        self._request_counter += 1
        chain = self._request_counter
        uid = request.uid or f"req-{chain}"
        key = None
        if self.cache is not None:
            key = request_fingerprint(request, config=self.spec.config_key)
            # Coalesce onto an identical in-flight computation.  wait(),
            # not await: a cancelled duplicate must not cancel the shared
            # primary, and a cancelled primary must not cancel its
            # duplicates — the first of them re-submits as the new one.
            primary = self._inflight.get(key)
            if primary is not None:
                self.metrics.record_coalesced()
                self._trace(chain, "coalesce", uid=uid)
                await asyncio.wait((primary,))
                if primary.cancelled():
                    return await self.submit_request(request)
                return primary.result().replica(uid, coalesced=True)
            self._inflight[key] = asyncio.get_running_loop().create_future()
        self._trace(chain, "enqueue", uid=uid, question=request.question)
        # Admission: run now, park fairly, or shed.  All bookkeeping up
        # to an ``await`` is atomic (single event loop, no locks).
        if self._active >= self.max_inflight:
            if (self.max_queued is not None
                    and len(self.queue) >= self.max_queued):
                self.metrics.record_submit(len(self.queue))
                raise self._reject(chain, uid, key, request)
            gate = asyncio.get_running_loop().create_future()
            self.queue.push(request.tenant, gate)
            self.metrics.record_submit(len(self.queue))
            try:
                # Resolved by _pump() once a slot frees (the slot is
                # charged to us before the wake-up).
                await gate
            except BaseException:
                if (gate.done() and not gate.cancelled()
                        and gate.exception() is None):
                    self._release_slot()
                self._drop_inflight(key)
                raise
            self._trace(chain, "admit", uid=uid, tenant=request.tenant,
                        queue_depth=len(self.queue))
        else:
            self._active += 1
            self.metrics.record_submit(len(self.queue))
        self._trace(chain, "dispatch", uid=uid, queue_depth=len(self.queue))
        response: TQAResponse | None = None
        try:
            try:
                response = await self._answer(chain, uid, key, request)
            except Exception as exc:  # last-resort: always classify
                response = self._failure_response(uid, exc)
        finally:
            if key is not None:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    if response is not None:
                        future.set_result(response)
                    else:
                        future.cancel()
            self._release_slot()
        self.metrics.record_response(response)
        self._trace(chain, "complete", uid=uid,
                    answer=response.answer_text,
                    cached=response.cached,
                    degraded=response.degraded,
                    outcome=response.outcome,
                    latency=round(response.latency, 6))
        self._notify_complete(chain, request, response)
        return response

    # --- admission internals ------------------------------------------------

    def _reject(self, chain: int, uid: str, key: str | None,
                request: TQARequest) -> AdmissionRejectedError:
        self._drop_inflight(key)
        message = (f"admission rejected: {self._active} in flight, "
                   f"{len(self.queue)} queued (tenant {request.tenant!r})")
        response = TQAResponse(uid=uid, answer=[], attempts=0,
                               error=message, outcome="rejected")
        self.metrics.record_rejection()
        self.metrics.record_response(response)
        self._trace(chain, "rejected", uid=uid, tenant=request.tenant,
                    queue_depth=len(self.queue))
        self._notify_complete(chain, request, response)
        error = AdmissionRejectedError(message)
        error.response = response
        return error

    def _notify_complete(self, chain: int, request: TQARequest,
                         response: TQAResponse) -> None:
        """Tell the observer; a broken observer never fails a request."""
        if self.on_complete is None:
            return
        try:
            self.on_complete(chain, request, response)
        except Exception:
            self.metrics.record_observer_error()

    def _release_slot(self) -> None:
        self._active -= 1
        self._pump()

    def _pump(self) -> None:
        """Hand freed slots to parked waiters in fair-queue order."""
        while self._active < self.max_inflight and self.queue:
            gate = self.queue.pop()
            if gate.done():        # cancelled while parked: skip
                continue
            self._active += 1      # charge the slot before the wake-up
            gate.set_result(None)

    def _drop_inflight(self, key: str | None) -> None:
        if key is None:
            return
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.cancel()

    # --- the ladder's effects -----------------------------------------------

    async def _answer(self, chain: int, uid: str, key: str | None,
                      request: TQARequest) -> TQAResponse:
        """Pump the ladder, performing its effects on the event loop."""
        steps = self._steps(chain, uid, key, request)
        resume, value = steps.send, None
        while True:
            try:
                effect = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                if isinstance(effect, Attempt):
                    value = await self._run_attempt(effect.request,
                                                    effect.seed)
                elif isinstance(effect, Backoff):
                    value = await self._sleep(effect.delay)
                else:
                    value = await asyncio.to_thread(effect.call)
                resume = steps.send
            except BaseException as exc:
                # Back into the ladder, which handles what it can and
                # re-raises the rest (cancellation too) once its spans
                # are closed.
                resume, value = steps.throw, exc

    async def _run_attempt(self, request: TQARequest, seed: int):
        """One seeded attempt, dispatched by runner capability.

        Chain runners (``chain_engines`` / ``engine_for``) run through
        the batched chain driver, with the runner's exception envelope
        and the deadline on the handler seam; blocking voters
        (tree/execution) run in a worker thread under the ladder's
        ``DeadlineModel`` wrap.
        """
        runner = self.spec.build(seed)
        deadline = self.policy.deadline()
        table, question = request.table, request.question
        if not hasattr(runner, "chain_engines") and not hasattr(
                runner, "engine_for"):
            return await asyncio.to_thread(
                self._run_blocking, runner, request, deadline)
        driver = AsyncChainDriver(handler=AsyncEffectHandler(
            runner.model, runner.registry, deadline=deadline,
            catch=getattr(runner, "handler_catch", (ExecutionError,))))
        if hasattr(runner, "chain_engines"):
            # s-vote: n chains coalescing their ticks.
            with span("vote_run", method="s-vote", n=runner.n):
                results = await driver.run(
                    runner.chain_engines(table, question))
            return runner.tally(results)
        # Greedy single chain.
        with span("agent_run", trace_id=None) as root:
            if root is not None:
                root.set(question=question[:120])
            (result,) = await driver.run(
                [runner.engine_for(table, question)])
            return result
