"""Drivers: perform the engine's effects against real models/executors.

The split of responsibilities after the sans-IO refactor:

* :class:`~repro.engine.core.ChainEngine` — *what* happens (step logic);
* :class:`EffectHandler` — *how* one effect is performed (the only place
  in the agent stack that calls ``LanguageModel.complete`` or
  ``CodeExecutor.execute``; ``tools/lint_effects.py`` enforces this);
* :class:`ChainDriver` — *when* effects are performed: every chain, one
  or many, greedy or sampled, of any strategy, steps through its tick
  loop, the only code that calls ``next_effect()``.

**A tick.**  Every unfinished chain contributes its engine's pending
model call; identical ``(prompt, temperature)`` pairs coalesce into one
:class:`~repro.llm.base.CompletionRequest` whose ``n`` sums the chains'
(first-seen order), and the tick goes out as one ``model_batch``.
Completions are sliced back to the chains in order (a short slice
reaches the engine's forcing ladder), then each engine takes its reply
and runs its execute effects inline.  The tick is one ``iteration``
span, and each engine's ``ChainTracer`` notes leave from here.

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
``tests/aio/test_driver.py``).  A model or executor exception leaves
the run; nothing else is left running.

``EffectHandler`` also owns telemetry attribution: every model call —
whether it comes from a chain's tick, a voting branch or the reflection
call — runs inside a ``model_call`` span with prompt/completion token
counts, so cost fold-up works uniformly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.engine.core import ChainEngine
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.engine.result import AgentResult
from repro.errors import ExecutionError, ServingTimeoutError
from repro.llm.base import Completion, CompletionRequest, LanguageModel
from repro.telemetry.cost import estimate_tokens
from repro.telemetry.spans import span

__all__ = ["EffectHandler", "ChainDriver"]


class EffectHandler:
    """Performs effects against a model and an executor registry.

    ``catch`` is the executor exception envelope: the single-chain agent
    absorbs only :class:`~repro.errors.ExecutionError` (anything else is
    a crash the serving ladder classifies), while the voting drivers
    historically swallowed every exception when pruning a branch — they
    pass ``catch=(Exception,)``.

    ``deadline`` (absolute, on ``clock``'s timeline) enforces a request
    timeout at the effect seam itself: every model boundary crossing —
    single call or batched tick — checks it before the round-trip (cheap
    refusal) and after it returns (catches one slow call), raising
    :class:`~repro.errors.ServingTimeoutError`.  This is the same
    contract as :class:`repro.serving.policy.DeadlineModel`, but it works
    for *any* driver holding the handler — scheduler ticks and async
    chains included — without needing a mutable ``runner.model`` to wrap.
    """

    def __init__(self, model: LanguageModel, registry, *,
                 catch: tuple = (ExecutionError,),
                 deadline: float | None = None,
                 clock=time.monotonic):
        self.model = model
        self.registry = registry
        self.catch = tuple(catch)
        self.deadline = deadline
        self._clock = clock

    def check_deadline(self, moment: str) -> None:
        """Raise :class:`ServingTimeoutError` once the deadline passed."""
        if self.deadline is not None and self._clock() >= self.deadline:
            raise ServingTimeoutError(
                f"attempt deadline exceeded ({moment} completion)")

    # --- model boundary ------------------------------------------------------

    @contextmanager
    def _model_boundary(self, requests, **attributes):
        """Deadline checks, ``model_call`` span and token attribution
        around one round-trip; the body appends each request's
        completions to the yielded list.

        Token attribution covers the whole round-trip; ``calls`` counts
        the logical completion requests so cost summaries stay
        comparable between batched and sequential paths.
        """
        self.check_deadline("before")
        batches: list = []
        with span("model_call", **attributes) as call:
            yield batches
            if call is not None:
                call.add_tokens(
                    prompt=sum(estimate_tokens(r.prompt) for r in requests),
                    completion=sum(estimate_tokens(c.text)
                                   for batch in batches for c in batch),
                    calls=len(requests))
        self.check_deadline("after")

    def model_call(self, effect: ModelCall) -> ModelResult:
        """Perform one :class:`ModelCall` inside a ``model_call`` span."""
        with self._model_boundary([effect]) as batches:
            batches.append(self.model.complete(
                effect.prompt, temperature=effect.temperature, n=effect.n))
        return ModelResult(tuple(batches[0]))

    def model_batch(self,
                    requests: list[CompletionRequest]
                    ) -> list[list[Completion]]:
        """Perform a coalesced batch of prompts in one span."""
        with self._model_boundary(requests,
                                  batched=len(requests)) as batches:
            batches.extend(self.model.complete_batch(requests))
        return batches

    # --- executor boundary ----------------------------------------------------

    def execute(self, effect: Execute) -> ExecResult:
        """Perform one :class:`Execute`; failures become data, not raises.

        The executor opens its own stage span (``sql_execute`` /
        ``python_exec``), so no extra wrapper span is paid here.
        """
        try:
            executor = self.registry.get(effect.language)
        except Exception as exc:
            return ExecResult(error=exc, missing_executor=True)
        try:
            outcome = executor.execute(effect.code, list(effect.tables))
        except self.catch as exc:
            return ExecResult(error=exc)
        return ExecResult(outcome=outcome)


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


def _flush_notes(engine, tracer) -> None:
    """Drain the engine's trace notes, forwarding them to ``tracer``."""
    notes = engine.drain_notes()
    if tracer is None:
        return
    for kind, iteration, data in notes:
        if kind == "end":
            tracer.end_chain(iteration, **data)
        else:
            tracer.emit(kind, iteration, **data)


class ChainDriver:
    """Drive engines in lock-step ticks, one engine per distinct state.

    The only code that steps an engine (``tools/lint_effects.py``).
    ``handler`` performs the effects; ``tracer``, an optional
    :class:`~repro.tracing.ChainTracer`, receives every engine's notes.
    :meth:`run` performs each tick's model batch directly;
    :class:`repro.aio.AsyncChainDriver` awaits it instead.  ``ticks``
    counts round-trips and ``requests`` the coalesced requests inside
    them — the coalescing evidence.
    """

    def __init__(self, handler: EffectHandler, *, tracer=None):
        self.handler = handler
        self.tracer = tracer
        self.ticks = 0
        self.requests = 0

    def _ticks(self, engines):
        """The tick loop: yields each tick's requests, is sent their
        completion lists, returns the results in input order.

        Each tick runs in one ``iteration`` span, indexed by tick, and
        the notes go out after the prompts, after each reply and after
        each execution.  A span opened here closes in the pump's
        context, so the pump throws its exceptions back in.
        """
        tracer, execute = self.tracer, self.handler.execute
        chains = list(engines)
        # One chain has nothing to share: skip T0's digest and the
        # completion-text keys.
        single = len(chains) == 1
        if not single:
            chains = _merge_fresh(chains)
        order = [index for index, engine in enumerate(chains)
                 if engine.state != "done"]
        tick = 0
        while order:
            tick += 1
            with span("iteration", index=tick):
                groups: dict[tuple[str, float], list] = {}
                for index in order:
                    engine = chains[index]
                    effect = engine.next_effect()
                    _flush_notes(engine, tracer)       # "prompt"
                    groups.setdefault((effect.prompt, effect.temperature),
                                      []).append((index, effect.n))
                requests = [CompletionRequest(prompt=prompt,
                                              temperature=temperature,
                                              n=sum(n for _, n in members))
                            for (prompt, temperature), members
                            in groups.items()]
                self.ticks += 1
                self.requests += len(requests)
                batches = yield requests
                handed = []
                for members, batch in zip(groups.values(), batches):
                    offset = 0
                    for index, n in members:
                        handed.append(
                            (index, tuple(batch[offset:offset + n])))
                        offset += n
                replies = ([(chains[index], completions)
                            for index, completions in handed]
                           if single else _fork(chains, handed))
                for engine, completions in replies:
                    engine.send(ModelResult(completions))
                    _flush_notes(engine, tracer)   # "action" / "end"
                    while engine.state == "exec":
                        engine.send(execute(engine.next_effect()))
                        _flush_notes(engine, tracer)   # "execution"
            order = [index for index, _ in handed
                     if chains[index].state != "done"]
        return [engine.result for engine in chains]

    def run(self, engines) -> list[AgentResult]:
        """Drive every engine to completion; results in input order."""
        ticks = self._ticks(engines)
        resume, value = ticks.send, None
        while True:
            try:
                requests = resume(value)
            except StopIteration as stop:
                return stop.value
            try:
                value = self.handler.model_batch(requests)
                resume = ticks.send
            except BaseException as exc:
                resume, value = ticks.throw, exc
