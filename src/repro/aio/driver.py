"""The chain driver on the event loop.

:class:`AsyncChainDriver` is :class:`repro.engine.ChainDriver` with an
awaited round-trip: the same tick loop (coalesced requests, shared chain
states, ``iteration`` spans), with each tick's ``model_batch`` awaited
on an :class:`~repro.aio.AsyncEffectHandler`.  The async server runs
every greedy and s-vote attempt through it.
"""

from __future__ import annotations

import asyncio

from repro.aio.handler import AsyncEffectHandler
from repro.engine.driver import ChainDriver
from repro.engine.result import AgentResult
from repro.errors import ExecutionError

__all__ = ["AsyncChainDriver"]


class AsyncChainDriver(ChainDriver):
    """Drive engines in lock-step ticks on the event loop.

    Build it from ``model`` + ``registry`` (with the executor envelope
    ``catch``) or from a prebuilt :class:`~repro.aio.AsyncEffectHandler`.
    """

    def __init__(self, model=None, registry=None, *,
                 handler: AsyncEffectHandler | None = None,
                 catch: tuple = (ExecutionError,)):
        if handler is None:
            if model is None or registry is None:
                raise ValueError(
                    "AsyncChainDriver needs model+registry or a handler")
            handler = AsyncEffectHandler(model, registry, catch=catch)
        super().__init__(handler)

    async def run(self, engines) -> list[AgentResult]:
        """Drive every engine to completion; results in input order."""
        ticks = self._ticks(engines)
        resume, value = ticks.send, None
        while True:
            try:
                requests = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                # Yield once per tick, so other requests on the loop step
                # between this run's ticks even when the model answers
                # without suspending.
                await asyncio.sleep(0)
                value = await self.handler.model_batch(requests)
                resume = ticks.send
            except BaseException as exc:
                # Back into the tick loop, which closes its span in this
                # task's context and re-raises (cancellation too).
                resume, value = ticks.throw, exc
