"""The batched chain driver: lock-step ticks over shared chain states.

:class:`AsyncChainDriver` drives a fixed set of sans-IO
:class:`~repro.engine.ChainEngine` chains to completion.  It is the one
batched driver: the async server's greedy and voted attempts and
``SimpleMajorityVoting`` with ``use_scheduler=True`` run through it.
The tick loop is written once, as a generator that yields each tick's
requests and is sent their completions; :meth:`run` awaits the
round-trip, :meth:`run_sync` makes it directly, with no event loop.

**A tick.**  Every unfinished chain contributes its engine's pending
model call; identical ``(prompt, temperature)`` pairs coalesce into one
:class:`~repro.llm.base.CompletionRequest` whose ``n`` sums the chains'
(first-seen order), and the tick goes out as one ``model_batch``.
Completions are sliced back to the chains in order (a short slice
reaches the engine's forcing ladder), then each engine takes its reply
and runs its execute effects inline.

**Shared states.**  The chains of an s-vote hold the same state most of
the time.  Fresh engines that can diverge only through their completions
(same class, prompt builder, prompt hook, sampling and iteration
settings, question and T0) run as one engine, which builds one prompt
per tick and executes each step once for all its chains.  When its
chains receive different completions it forks: the first distinct
completion keeps the engine and each other one takes a twin
(:meth:`~repro.engine.ChainEngine.fork`) made before any reply is sent.
Every chain reports its engine's result.

**Order.**  The next tick visits the chains in the order this one handed
out completions, request by request and slot by slot.  The model's
draws follow its call sequence, so with a fixed order the same
``complete_batch`` calls reach it on every run and even sampled
(temperature > 0) chains draw bit-identically (pinned against the
lock-step reference in ``tests/engine/lockstep.py`` by
``tests/aio/test_driver.py``).  Hand-out order rather than input order
keeps the request sequence the pinned results were recorded with.  A
model or executor exception leaves the run; nothing else is left
running.
"""

from __future__ import annotations

import asyncio

from repro.aio.handler import AsyncEffectHandler
from repro.engine.core import ChainEngine
from repro.engine.driver import EffectHandler
from repro.engine.effects import ModelResult
from repro.engine.result import AgentResult
from repro.errors import ExecutionError
from repro.llm.base import CompletionRequest

__all__ = ["AsyncChainDriver"]


def _merge_fresh(engines) -> list:
    """Each chain's engine, with interchangeable fresh engines merged.

    Engines that have not started and agree on everything but their
    future completions become one engine; anything else (a started
    chain, a CoT-family engine) keeps its own.
    """
    merged: dict[tuple, ChainEngine] = {}
    chains = []
    for engine in engines:
        if (isinstance(engine, ChainEngine) and engine.iterations == 0
                and engine.depth == 0):
            t0 = engine.transcript.t0
            key = (type(engine), id(engine.prompt_builder),
                   id(engine.prompt_hook), engine.temperature, engine.n,
                   engine.max_iterations, engine.hard_cap,
                   engine.transcript.question, t0.name,
                   t0.content_digest())
            engine = merged.setdefault(key, engine)
        chains.append(engine)
    return chains


def _fork(chains: list, handed: list) -> list:
    """Split shared engines whose chains got different completions.

    ``handed`` is ``(chain index, completions)`` in hand-out order.  The
    first distinct completion text of an engine keeps it; each other one
    takes a twin, forked before any reply is sent.  Rebinds ``chains``
    and returns one ``(engine, completions)`` reply per state, in
    hand-out order.
    """
    branches: dict[tuple, ChainEngine] = {}
    kept: set[int] = set()
    replies = []
    for index, completions in handed:
        engine = chains[index]
        key = (id(engine), tuple(c.text for c in completions))
        branch = branches.get(key)
        if branch is None:
            branch = engine.fork() if id(engine) in kept else engine
            kept.add(id(engine))
            branches[key] = branch
            replies.append((branch, completions))
        chains[index] = branch
    return replies


class AsyncChainDriver:
    """Drive engines in lock-step ticks, one engine per distinct state.

    Build it from ``model`` + ``registry`` (with the executor envelope
    ``catch``) or from a prebuilt ``handler``: an
    :class:`~repro.aio.AsyncEffectHandler` for :meth:`run`, an
    :class:`~repro.engine.EffectHandler` for :meth:`run_sync`.
    ``ticks`` counts round-trips and ``requests`` the coalesced requests
    inside them — the coalescing evidence.
    """

    def __init__(self, model=None, registry=None, *,
                 handler: EffectHandler | None = None,
                 catch: tuple = (ExecutionError,)):
        if handler is None and (model is None or registry is None):
            raise ValueError(
                "AsyncChainDriver needs model+registry or a handler")
        self.handler = handler
        self._model, self._registry, self._catch = model, registry, catch
        self.ticks = 0
        self.requests = 0

    def _ticks(self, engines, execute):
        """The tick loop: yields each tick's requests, is sent their
        completion lists, returns the results in input order."""
        chains = _merge_fresh(engines)
        order = [index for index, engine in enumerate(chains)
                 if engine.state != "done"]
        while order:
            groups: dict[tuple[str, float], list] = {}
            for index in order:
                effect = chains[index].next_effect()
                groups.setdefault((effect.prompt, effect.temperature),
                                  []).append((index, effect.n))
            requests = [CompletionRequest(prompt=prompt,
                                          temperature=temperature,
                                          n=sum(n for _, n in members))
                        for (prompt, temperature), members in groups.items()]
            self.ticks += 1
            self.requests += len(requests)
            batches = yield requests
            handed = []
            for members, batch in zip(groups.values(), batches):
                offset = 0
                for index, n in members:
                    handed.append((index, tuple(batch[offset:offset + n])))
                    offset += n
            for engine, completions in _fork(chains, handed):
                engine.send(ModelResult(completions))
                while engine.state == "exec":
                    engine.send(execute(engine.next_effect()))
                engine.drain_notes()
            order = [index for index, _ in handed
                     if chains[index].state != "done"]
        return [engine.result for engine in chains]

    async def run(self, engines) -> list[AgentResult]:
        """Drive every engine to completion; results in input order."""
        handler = self.handler or AsyncEffectHandler(
            self._model, self._registry, catch=self._catch)
        ticks, batches = self._ticks(engines, handler.execute), None
        while True:
            try:
                requests = ticks.send(batches)
            except StopIteration as stop:
                return stop.value
            # Yield once per tick, so other requests on the loop step
            # between this run's ticks even when the model answers
            # without suspending.
            await asyncio.sleep(0)
            batches = await handler.model_batch(requests)

    def run_sync(self, engines) -> list[AgentResult]:
        """:meth:`run` for synchronous callers, with no event loop."""
        handler = self.handler or EffectHandler(
            self._model, self._registry, catch=self._catch)
        ticks, batches = self._ticks(engines, handler.execute), None
        while True:
            try:
                requests = ticks.send(batches)
            except StopIteration as stop:
                return stop.value
            batches = handler.model_batch(requests)
