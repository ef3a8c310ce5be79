"""One coroutine per chain: the batched chain driver.

:func:`drive_chain` pumps a single sans-IO
:class:`~repro.engine.ChainEngine` to completion, parking its model calls
in a :class:`~repro.aio.batcher.ContinuousBatcher` and draining execute
effects inline (local compute, same within-step ordering as the sync
drivers).  :class:`AsyncChainDriver` runs a static population: give it
engines, get results in input order.  It is the one batched driver —
the async server's voted attempts, ``SimpleMajorityVoting`` and
``HeterogeneousEnsemble`` with ``use_scheduler=True``, and ``repro
perf``'s draw-sharing check all run their chains through it.

Determinism: with a static engine population the event loop wakes the
chain coroutines in creation order, so they park in input order and the
batcher's groups form in input order.  Every tick is a lock-step tick:
it waits for every unfinished chain, so the same ``complete_batch`` call
sequence reaches the model on every run and even sampled (temperature >
0) chains produce bit-identical results (pinned against the lock-step
reference in ``tests/engine/lockstep.py`` by ``tests/aio/test_driver.py``).
Under a dynamic population (the server) ticks depend on arrival timing —
the thread-pool determinism contract.
"""

from __future__ import annotations

import asyncio

from repro.aio.batcher import ContinuousBatcher
from repro.aio.handler import AsyncEffectHandler
from repro.engine.core import ChainEngine
from repro.engine.result import AgentResult
from repro.errors import ExecutionError

__all__ = ["drive_chain", "AsyncChainDriver"]


async def drive_chain(engine: ChainEngine,
                      batcher: ContinuousBatcher,
                      handler: AsyncEffectHandler | None = None,
                      *, pre_admitted: bool = False) -> AgentResult:
    """Drive ``engine`` to completion through ``batcher``.

    ``handler`` (defaults to the batcher's) performs the synchronous
    execute effects; model calls go through the batcher so they coalesce
    with whatever else is in flight.  Exactly one :meth:`retire` happens
    on every exit path (completion, cancellation, failing tick).

    ``pre_admitted`` means the caller already called :meth:`admit` for
    this engine.  A coroutine only runs when the loop first schedules
    it, so a caller launching *several* chains at once must admit them
    all **before** the first one starts — otherwise the first chain to
    run parks alone, sees itself as the whole population, and flushes a
    premature one-member tick (:class:`AsyncChainDriver` does this
    bookkeeping; standalone callers can leave the default and self-admit).
    """
    if handler is None:
        handler = batcher.handler
    if not pre_admitted:
        batcher.admit()
    try:
        while engine.state != "done":
            result = await batcher.call(engine.next_effect())
            engine.send(result)
            while engine.state == "exec":
                engine.send(handler.execute(engine.next_effect()))
            engine.drain_notes()
    finally:
        batcher.retire()
    return engine.result


class AsyncChainDriver:
    """Run many engines as coroutines over one shared batcher.

    Build it from ``model`` + ``registry`` (with the executor envelope
    ``catch``) or from a prebuilt ``handler``; :meth:`run` awaits all
    engines, :meth:`run_sync` wraps it in ``asyncio.run`` for
    synchronous callers (the voters' batched path, benchmarks, tests).
    """

    def __init__(self, model=None, registry=None, *,
                 handler: AsyncEffectHandler | None = None,
                 catch: tuple = (ExecutionError,)):
        if handler is None:
            if model is None or registry is None:
                raise ValueError(
                    "AsyncChainDriver needs model+registry or a handler")
            handler = AsyncEffectHandler(model, registry, catch=catch)
        self.handler = handler
        self.batcher = ContinuousBatcher(handler)

    @property
    def ticks(self) -> int:
        return self.batcher.ticks

    @property
    def requests(self) -> int:
        return self.batcher.requests

    async def run(self, engines) -> list[AgentResult]:
        """Drive every engine to completion; results in input order."""
        engines = list(engines)
        # Admit the whole population before any chain runs, so the first
        # tick waits for everyone — the lock-step guarantee.
        for _ in engines:
            self.batcher.admit()
        return await asyncio.gather(
            *(drive_chain(engine, self.batcher, self.handler,
                          pre_admitted=True)
              for engine in engines))

    def run_sync(self, engines) -> list[AgentResult]:
        """:meth:`run` on a private event loop, for sync callers."""
        return asyncio.run(self.run(list(engines)))
