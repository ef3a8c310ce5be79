"""The chain driver on the event loop.

:class:`AsyncChainDriver` is :class:`repro.engine.ChainDriver` with an
awaited round-trip: the same tick loop (coalesced requests, shared chain
states, ``iteration`` spans), pumped by an
:class:`~repro.aio.AsyncEffectHandler`, which awaits each tick's
``model_batch``.
"""

from __future__ import annotations

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
        return await self.handler.pump(self.steps(engines))
