"""Drivers: perform the engine's effects against real models/executors.

The split of responsibilities after the sans-IO refactor:

* :class:`~repro.engine.core.ChainEngine` — *what* happens (step logic);
* :class:`EffectHandler` — *how* one effect is performed (the only place
  in the agent stack that calls ``LanguageModel.complete`` or
  ``CodeExecutor.execute``; ``tools/lint_effects.py`` enforces this);
* :func:`run_chain` / :func:`drive` — *when* effects are performed (the
  sequencing policy: one chain at a time here, lock-step ticks of
  coalesced calls in :class:`repro.aio.AsyncChainDriver`).

``EffectHandler`` also owns telemetry attribution: every model call —
whether it comes from the greedy agent, a voting branch or a batched
tick — runs inside a ``model_call`` span with prompt/completion token
counts, so cost fold-up works uniformly (voted runs used to bypass the
spans and under-report tokens).
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

__all__ = ["EffectHandler", "run_chain", "drive"]


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


def _flush_notes(engine: ChainEngine, tracer) -> None:
    notes = engine.drain_notes()
    if tracer is None:
        return
    for kind, iteration, data in notes:
        if kind == "end":
            tracer.end_chain(iteration, **data)
        else:
            tracer.emit(kind, iteration, **data)


def run_chain(engine: ChainEngine, handler: EffectHandler, *,
              tracer=None) -> AgentResult:
    """The trivial sync driver: ``ReActTableAgent``'s chain semantics.

    Opens one ``iteration`` span per pass (prompt assembly happens
    inside it, exactly as the legacy loop did) and forwards the engine's
    buffered trace notes to ``tracer`` at each boundary, preserving the
    original event stream.
    """
    while engine.state != "done":
        with span("iteration", index=engine.next_iteration):
            effect = engine.next_effect()
            _flush_notes(engine, tracer)           # "prompt"
            engine.send(handler.model_call(effect))
            _flush_notes(engine, tracer)           # "action" / faults / "end"
            if engine.state == "exec":
                engine.send(handler.execute(engine.next_effect()))
                _flush_notes(engine, tracer)       # "execution" / "recovery"
    return engine.result


def drive(engine, handler: EffectHandler) -> AgentResult:
    """Minimal effect pump for engines without per-iteration spans.

    Used by drivers whose telemetry shape differs from the agent loop
    (the CoT baseline's single completion, tests).  Model calls still go
    through the handler's ``model_call`` spans.
    """
    while engine.state != "done":
        effect = engine.next_effect()
        if isinstance(effect, ModelCall):
            engine.send(handler.model_call(effect))
        else:
            engine.send(handler.execute(effect))
        engine.drain_notes()
    return engine.result
