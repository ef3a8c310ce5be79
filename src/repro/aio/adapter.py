"""Async adapters over the synchronous :class:`LanguageModel` protocol.

Every model in the repo is synchronous (the simulated backends are pure
compute).  The async serving core talks to :class:`AsyncLanguageModel` —
the awaitable twin of the completion protocol — and
:class:`SyncModelAdapter` bridges any sync model into it by calling it
inline on the event loop: correct and deterministic for compute-only
models (microseconds per call, no blocking I/O), and required for
bit-exact parity with the sync drivers — no thread hops, no reordering.
A backend that blocks on the network implements
:class:`AsyncLanguageModel` itself instead of being bridged.

This module is, with :mod:`repro.aio.handler`, an allowed home for
direct ``complete``/``complete_batch`` calls (see
``tools/lint_effects.py``) — it *is* the async model boundary.
"""

from __future__ import annotations

from repro.llm.base import Completion, CompletionRequest, LanguageModel

__all__ = ["AsyncLanguageModel", "SyncModelAdapter", "ensure_async_model"]


class AsyncLanguageModel:
    """The awaitable completion protocol.

    Subclasses implement :meth:`complete`; :meth:`complete_batch` has the
    same default contract as the sync protocol (loop per request) and
    should be overridden by backends with a real batch endpoint.
    """

    @property
    def name(self) -> str:  # pragma: no cover - interface default
        return type(self).__name__

    @property
    def supports_logprobs(self) -> bool:  # pragma: no cover - default
        return False

    async def complete(self, prompt: str, *, temperature: float = 0.0,
                       n: int = 1) -> list[Completion]:
        raise NotImplementedError

    async def complete_batch(
            self, requests: list[CompletionRequest]
    ) -> list[list[Completion]]:
        batches = []
        for request in requests:
            batches.append(await self.complete(
                request.prompt, temperature=request.temperature,
                n=request.n))
        return batches


class SyncModelAdapter(AsyncLanguageModel):
    """Awaitable facade over a synchronous :class:`LanguageModel`.

    Exposes the wrapped model as ``.inner`` so sync collaborators can
    reach the real model, and forwards ``fork`` for per-attempt
    reseeding.
    """

    def __init__(self, inner: LanguageModel):
        self.inner = inner

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def supports_logprobs(self) -> bool:
        return self.inner.supports_logprobs

    def fork(self, seed: int) -> "SyncModelAdapter":
        return SyncModelAdapter(self.inner.fork(seed))

    async def complete(self, prompt: str, *, temperature: float = 0.0,
                       n: int = 1) -> list[Completion]:
        return self.inner.complete(prompt, temperature=temperature, n=n)

    async def complete_batch(
            self, requests: list[CompletionRequest]
    ) -> list[list[Completion]]:
        # One sync batch call, not a per-request loop: the inner model's
        # batch endpoint (and its fault-injection wrappers) sees one call
        # per tick.
        return self.inner.complete_batch(requests)


def ensure_async_model(model) -> AsyncLanguageModel:
    """Coerce ``model`` to the async protocol (idempotent)."""
    if isinstance(model, AsyncLanguageModel):
        return model
    return SyncModelAdapter(model)
