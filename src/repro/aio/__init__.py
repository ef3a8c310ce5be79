"""repro.aio — the asyncio serving core.

The thread-pool serving stack (``repro.serving``) spends one OS thread
per in-flight request; its concurrency ceiling is the worker count.  This
package re-hosts the same sans-IO :class:`~repro.engine.ChainEngine` on
an asyncio event loop, where a *parked coroutine* costs a few hundred
bytes instead of a thread stack — thousands of chains can be mid-flight
at once:

* :class:`AsyncEffectHandler` (:mod:`repro.aio.handler`) — an awaitable
  ``model_batch`` over an :class:`AsyncLanguageModel` (sync models are
  bridged inline by :mod:`repro.aio.adapter`), same spans/tokens/deadline
  seam as the sync :class:`~repro.engine.EffectHandler`, and an awaited
  ``pump`` that runs any step body on the loop.
* :class:`AsyncChainDriver` (:mod:`repro.aio.driver`) — the tick loop
  of :class:`~repro.engine.ChainDriver` (lock-step ticks that coalesce
  identical pending prompts into one round-trip and step each distinct
  chain state once), its round-trips awaited on the loop.
* :class:`WeightedFairQueue` (:mod:`repro.aio.fairness`) — per-tenant
  weighted fair queueing for admission order under backlog.
* :class:`AsyncServer` (:mod:`repro.aio.server`) — the request ladder
  (:mod:`repro.serving.ladder`) pumped as a coroutine, every attempt,
  reflexion cycle and degraded answer on the loop, behind
  backpressure-aware admission control (bounded in-flight budget, typed
  :class:`~repro.errors.AdmissionRejectedError` shedding) and WFQ.
  Nothing in this package hands work to a thread.
* :class:`AsyncBatchEvaluator` (:mod:`repro.aio.evaluate`) — the
  :class:`~repro.serving.batch.BatchEvaluator` twin over the server.

``repro batch --async`` selects this path from the CLI.  Differential
parity with the thread pool — bit-identical answers and outcome
classifications — is pinned by ``tests/aio/test_parity.py``.
"""

from repro.aio.adapter import AsyncLanguageModel, SyncModelAdapter
from repro.aio.driver import AsyncChainDriver
from repro.aio.evaluate import AsyncBatchEvaluator
from repro.aio.fairness import WeightedFairQueue
from repro.aio.handler import AsyncEffectHandler
from repro.aio.server import AsyncServer

__all__ = [
    "AsyncLanguageModel",
    "SyncModelAdapter",
    "AsyncEffectHandler",
    "AsyncChainDriver",
    "WeightedFairQueue",
    "AsyncServer",
    "AsyncBatchEvaluator",
]
