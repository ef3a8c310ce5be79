"""The awaitable effect handler: async model boundary, sync executors.

:class:`AsyncEffectHandler` is :class:`repro.engine.EffectHandler` with
an awaitable model boundary — same ``model_call`` spans, same token
attribution, same deadline seam (checked before each round-trip for
cheap refusal and after it for one-slow-call detection).  The executor
boundary is inherited unchanged: the SQL/Python sandboxes are local
compute measured in microseconds, and running them inline through the
sync handler's ``execute`` preserves the sync drivers' step ordering and
error envelope exactly.

Span correctness under interleaving: ``span()`` reads the ambient
contextvars stack, and each asyncio task carries its own context copy, so
a ``model_call`` span opened here nests under *this request's* attempt
span even while hundreds of other requests' coroutines interleave on the
same loop (pinned by ``tests/aio/test_telemetry_interleave.py``).

With :mod:`repro.aio.adapter`, this module is an allowed home for direct
``complete``/``complete_batch`` calls (``tools/lint_effects.py``).
"""

from __future__ import annotations

import time

from repro.aio.adapter import AsyncLanguageModel, ensure_async_model
from repro.engine.driver import EffectHandler
from repro.engine.effects import ModelCall, ModelResult
from repro.errors import ExecutionError
from repro.llm.base import Completion, CompletionRequest
from repro.telemetry.cost import estimate_tokens
from repro.telemetry.spans import span

__all__ = ["AsyncEffectHandler"]


class AsyncEffectHandler(EffectHandler):
    """Performs engine effects on the event loop.

    ``model`` may be a sync :class:`~repro.llm.base.LanguageModel`
    (wrapped via :class:`~repro.aio.adapter.SyncModelAdapter`) or an
    :class:`~repro.aio.adapter.AsyncLanguageModel` directly.  ``catch``
    and ``deadline`` have the sync handler's semantics; ``execute`` and
    ``check_deadline`` are the sync handler's own.
    """

    model: AsyncLanguageModel

    def __init__(self, model, registry, *,
                 catch: tuple = (ExecutionError,),
                 deadline: float | None = None,
                 clock=time.monotonic):
        super().__init__(ensure_async_model(model), registry, catch=catch,
                         deadline=deadline, clock=clock)

    # --- model boundary ------------------------------------------------------

    async def model_call(self, effect: ModelCall) -> ModelResult:
        """Perform one :class:`ModelCall` inside a ``model_call`` span."""
        self.check_deadline("before")
        with span("model_call") as call:
            completions = await self.model.complete(
                effect.prompt, temperature=effect.temperature, n=effect.n)
            if call is not None:
                call.add_tokens(
                    prompt=estimate_tokens(effect.prompt),
                    completion=sum(estimate_tokens(c.text)
                                   for c in completions),
                    calls=1)
        self.check_deadline("after")
        return ModelResult(tuple(completions))

    async def model_batch(self,
                          requests: list[CompletionRequest]
                          ) -> list[list[Completion]]:
        """Perform a coalesced batch of prompts in one span."""
        self.check_deadline("before")
        with span("model_call", batched=len(requests)) as call:
            batches = await self.model.complete_batch(requests)
            if call is not None:
                call.add_tokens(
                    prompt=sum(estimate_tokens(r.prompt) for r in requests),
                    completion=sum(estimate_tokens(c.text)
                                   for batch in batches for c in batch),
                    calls=len(requests))
        self.check_deadline("after")
        return batches
