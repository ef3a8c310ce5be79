"""The awaitable effect handler: async model boundary, sync executors.

:class:`AsyncEffectHandler` is :class:`repro.engine.EffectHandler` with
an awaitable model boundary.  It awaits the model inside the sync
handler's own boundary (``EffectHandler._model_boundary``): the same
``model_call`` spans, the same token attribution and the same deadline
seam (checked before each round-trip for cheap refusal and after it for
one-slow-call detection).  Its :meth:`~AsyncEffectHandler.pump` runs any
step body — a chain's tick loop, a voter, a reflexion cycle — on the
loop, awaiting each round trip.  The executor boundary is inherited
unchanged: the SQL/Python sandboxes are local compute measured in
microseconds, and running them inline through the sync handler's
``execute`` preserves the sync drivers' step ordering and error envelope
exactly.

Span correctness under interleaving: ``span()`` reads the ambient
contextvars stack, and each asyncio task carries its own context copy, so
a ``model_call`` span opened here nests under *this request's* attempt
span even while hundreds of other requests' coroutines interleave on the
same loop (pinned by ``tests/aio/test_telemetry_interleave.py``).

With :mod:`repro.aio.adapter`, this module is an allowed home for direct
``complete``/``complete_batch`` calls (``tools/lint_effects.py``).
"""

from __future__ import annotations

import asyncio
import time

from repro.aio.adapter import AsyncLanguageModel, ensure_async_model
from repro.engine.driver import EffectHandler
from repro.errors import ExecutionError
from repro.llm.base import Completion, CompletionRequest

__all__ = ["AsyncEffectHandler"]


class AsyncEffectHandler(EffectHandler):
    """Performs engine effects on the event loop.

    ``model`` may be a sync :class:`~repro.llm.base.LanguageModel`
    (wrapped via :class:`~repro.aio.adapter.SyncModelAdapter`) or an
    :class:`~repro.aio.adapter.AsyncLanguageModel` directly.  ``catch``
    and ``deadline`` have the sync handler's semantics; ``execute``, the
    deadline checks, the ``model_call`` span and the token attribution
    are the sync handler's own.  :meth:`model_batch` and :meth:`pump`
    only await.
    """

    model: AsyncLanguageModel

    def __init__(self, model, registry, *,
                 catch: tuple = (ExecutionError,),
                 deadline: float | None = None,
                 clock=time.monotonic):
        super().__init__(ensure_async_model(model), registry, catch=catch,
                         deadline=deadline, clock=clock)

    # --- model boundary ------------------------------------------------------

    async def model_batch(self,
                          requests: list[CompletionRequest]
                          ) -> list[list[Completion]]:
        """Perform a coalesced batch of prompts in one span."""
        with self._model_boundary(requests,
                                  batched=len(requests)) as batches:
            batches.extend(await self.model.complete_batch(requests))
        return batches

    async def pump(self, steps):
        """Run the step body ``steps`` to its result on the loop.

        Yields to the loop once per round trip, so other requests step
        between this body's round trips even when the model answers
        without suspending.  Exceptions, cancellation included, are
        thrown back into the body, which closes its spans in this task's
        context.
        """
        resume, value = steps.send, None
        while True:
            try:
                requests = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                await asyncio.sleep(0)
                value = await self.model_batch(requests)
                resume = steps.send
            except BaseException as exc:
                resume, value = steps.throw, exc
