"""Continuous batching: dynamic ticks over an open population of chains.

A server cannot run chains in lock-step ticks that wait for every chain
until the last one finishes: requests arrive continuously and finish at
different depths.  :class:`ContinuousBatcher` coalesces model calls with
dynamic tick membership:

* **admit** — a chain joins the population at any moment; it is counted
  as *stepping* until it parks its first model call.
* **park** — :meth:`call` files the chain's pending
  :class:`~repro.engine.effects.ModelCall` and suspends the chain on a
  future.  When the last stepping chain parks (or retires), the pending
  set *flushes*: identical ``(prompt, temperature)`` pairs coalesce into
  one :class:`~repro.llm.base.CompletionRequest` with a summed ``n``
  (first-seen order preserved).
* **retire** — a finished chain leaves immediately; nobody waits for it.

The flush runs as its own task, so chains admitted *while a batch is in
flight* form the next tick instead of blocking — round-trips overlap
under continuous load, which lock-step ticks cannot do.

Accounting invariant: ``_stepping`` counts chains that are admitted but
neither parked nor retired.  A flush re-marks each member as stepping
*before* resolving its future, so the next tick cannot fire until every
woken chain has parked again — this is what makes a static population
tick in lock-step, bit for bit (same groups, same order, same draws;
pinned against ``tests/engine/lockstep.py``).

Mis-sized batches (the chaos harness's ``wrong_n`` fault) starve the tail
members of a coalesced group, which absorb the empty slice via the
engine's forcing ladder — the same contract as the sync drivers.
"""

from __future__ import annotations

import asyncio

from repro.aio.handler import AsyncEffectHandler
from repro.engine.effects import ModelCall, ModelResult
from repro.errors import EngineProtocolError
from repro.llm.base import CompletionRequest

__all__ = ["ContinuousBatcher"]


class ContinuousBatcher:
    """Coalesce model calls across a dynamic population of chains."""

    def __init__(self, handler: AsyncEffectHandler):
        self.handler = handler
        #: Parked calls awaiting the next flush: ``(effect, future)``.
        self._pending: list[tuple[ModelCall, asyncio.Future]] = []
        #: Chains admitted but neither parked nor retired.
        self._stepping = 0
        #: Round-trips performed / logical requests inside them — the
        #: coalescing evidence.
        self.ticks = 0
        self.requests = 0
        #: Population accounting and tick-shape high-water marks.
        self.admitted = 0
        self.retired = 0
        self.max_tick_members = 0
        self.max_inflight_ticks = 0
        self._inflight_ticks = 0

    @property
    def population(self) -> int:
        """Chains currently admitted and not yet retired."""
        return self.admitted - self.retired

    # --- population protocol -------------------------------------------------

    def admit(self) -> None:
        """One chain joins: it counts as stepping until it parks."""
        self.admitted += 1
        self._stepping += 1

    def retire(self) -> None:
        """One chain leaves (finished or failed); may complete a tick."""
        self.retired += 1
        self._stepping -= 1
        self._check_balance()
        self._maybe_flush()

    async def call(self, effect: ModelCall) -> ModelResult:
        """Park this chain's model call until a tick resolves it."""
        future = asyncio.get_running_loop().create_future()
        self._pending.append((effect, future))
        self._stepping -= 1
        self._check_balance()
        self._maybe_flush()
        try:
            return await future
        except asyncio.CancelledError:
            # A resolved future already re-marked us as stepping; a
            # cancelled-while-parked one did not — rebalance so the
            # driver's unconditional retire() nets to zero either way.
            if not (future.done() and not future.cancelled()):
                self._stepping += 1
            raise

    # --- tick machinery ------------------------------------------------------

    def _check_balance(self) -> None:
        if self._stepping < 0:
            raise EngineProtocolError(
                "batcher accounting underflow: more parks/retires than "
                "admitted chains (admit() missing?)")

    def _maybe_flush(self) -> None:
        if self._stepping == 0 and self._pending:
            members, self._pending = self._pending, []
            # The tick runs as its own task: chains admitted while the
            # round-trip is in flight park into a fresh pending set and
            # form the next tick instead of waiting for this one.
            asyncio.ensure_future(self._flush(members))

    async def _flush(self,
                     members: list[tuple[ModelCall, asyncio.Future]]) -> None:
        groups: dict[tuple[str, float], list] = {}
        for effect, future in members:
            groups.setdefault(
                (effect.prompt, effect.temperature), []).append(
                    (effect, future))
        requests = [CompletionRequest(prompt=prompt,
                                      temperature=temperature,
                                      n=sum(e.n for e, _ in group))
                    for (prompt, temperature), group in groups.items()]
        self.ticks += 1
        self.requests += len(requests)
        self.max_tick_members = max(self.max_tick_members, len(members))
        self._inflight_ticks += 1
        self.max_inflight_ticks = max(self.max_inflight_ticks,
                                      self._inflight_ticks)
        try:
            batches = await self.handler.model_batch(requests)
        except Exception as exc:
            # The whole tick failed (deadline, backend fault): every
            # parked member re-raises in its own chain, where the serving
            # ladder classifies it.  Re-mark before resolving, as below.
            for _, future in members:
                if not future.done():
                    self._stepping += 1
                    future.set_exception(exc)
            return
        finally:
            self._inflight_ticks -= 1
        # Slice completions back out in collection order.  Each resolved
        # member is re-marked stepping *before* its future resolves so no
        # flush can fire until every woken chain parks again.
        for group, batch in zip(groups.values(), batches):
            offset = 0
            for effect, future in group:
                completions = tuple(batch[offset:offset + effect.n])
                offset += effect.n
                if not future.done():
                    self._stepping += 1
                    future.set_result(ModelResult(completions))
