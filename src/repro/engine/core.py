"""The sans-IO chain engine: one ReAcTable step core, no I/O.

The paper's Algorithms 1–3 are a single reasoning loop — prompt → LLM →
parse action → execute code → append intermediate table — worn by
different drivers (greedy, voted, batched).  :class:`ChainEngine` owns
that loop as a pure state machine: it assembles prompts, parses actions,
walks the error-forcing ladder of Section 3.3, enforces iteration caps
and keeps the transcript, but *never* calls a model or an executor.
Instead it exposes typed effects (:class:`~repro.engine.effects.ModelCall`,
:class:`~repro.engine.effects.Execute`) and consumes the replies
(:class:`~repro.engine.effects.ModelResult`,
:class:`~repro.engine.effects.ExecResult`) the driver feeds back.

Two usage styles:

* **Ladder mode** — drive the full agent loop: while ``state`` is not
  ``"done"``, take ``next_effect()``, perform it, ``send()`` the reply.
  This replicates ``ReActTableAgent``'s chain semantics bit for bit
  (same forcing ladder, same events, same transcript bookkeeping).
* **Branch mode** — voting drivers that fork the search tree use the
  passive primitives instead: :meth:`prompt_effect`,
  :meth:`execute_effect`, :meth:`apply` and :meth:`clone`.  ``clone``
  copies all mutable chain state (transcript step list, event list),
  so a mutation in one branch is never observed by a sibling.

The engine also buffers *trace notes* — the flat ``ChainTracer`` events
the legacy loop emitted inline ("prompt", "action", "execution", ...).
Drivers with a tracer drain them via :meth:`drain_notes` and forward
them; drivers without one drain and drop them.  Buffering keeps the
engine free of tracer plumbing while preserving the exact event stream.
"""

from __future__ import annotations

from repro.core.actions import Action, ActionKind, parse_action
from repro.core.prompt import PromptBuilder, Transcript, TranscriptStep
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.engine.result import AgentResult
from repro.errors import ActionParseError, EngineProtocolError
from repro.table.frame import DataFrame

__all__ = ["HARD_ITERATION_CAP", "ChainEngine"]

#: Safety net against non-terminating chains, above any realistic limit.
#: Single source of truth — ``repro.core.agent`` re-exports it.
HARD_ITERATION_CAP = 24

# Engine states.
_MODEL = "model"   # waiting for a ModelResult
_EXEC = "exec"     # waiting for an ExecResult
_DONE = "done"     # chain finished; ``result`` is available


class ChainEngine:
    """One reasoning chain as a pure state machine."""

    def __init__(self, transcript: Transcript, *,
                 prompt_builder: PromptBuilder,
                 temperature: float = 0.0,
                 n: int = 1,
                 max_iterations: int | None = None,
                 hard_cap: int = HARD_ITERATION_CAP,
                 prompt_hook=None):
        self.transcript = transcript
        self.prompt_builder = prompt_builder
        self.temperature = temperature
        self.n = n
        self.max_iterations = max_iterations
        self.hard_cap = hard_cap
        #: Optional ``str -> str`` transform applied to every assembled
        #: prompt (ladder and branch mode alike).  The seam the reflexion
        #: tier uses to prepend verbal reflections without the engine
        #: knowing about them; must be deterministic for a given chain.
        self.prompt_hook = prompt_hook
        #: LLM calls made so far (code steps + the final answer call).
        self.iterations = 0
        #: The Section 3.3 handling log (becomes
        #: ``AgentResult.handling_events``).
        self.events: list[str] = []
        self._forced = False        # sticky: next prompt carries "Answer"
        self._forcing = False       # forced-or-at-limit, current iteration
        self._state = _MODEL
        self._pending: ModelCall | Execute | None = None
        self._pending_action: Action | None = None
        self._notes: list[tuple[str, int, dict]] = []
        self._result: AgentResult | None = None

    # --- introspection ------------------------------------------------------

    @property
    def state(self) -> str:
        """``"model"``, ``"exec"`` or ``"done"``."""
        return self._state

    @property
    def result(self) -> AgentResult:
        """The chain's :class:`AgentResult` (only once ``state == "done"``)."""
        if self._result is None:
            raise EngineProtocolError("chain has not finished")
        return self._result

    @property
    def next_iteration(self) -> int:
        """The iteration index the next model call belongs to.

        Valid while waiting for a model call; drivers use it to open the
        ``iteration`` telemetry span *before* the prompt is built.
        """
        if isinstance(self._pending, ModelCall):
            return self._pending.iteration
        return self.iterations + 1

    @property
    def depth(self) -> int:
        """Number of transcript steps taken (branch drivers' tree depth)."""
        return len(self.transcript.steps)

    # --- ladder mode (the full agent loop) ----------------------------------

    def next_effect(self) -> ModelCall | Execute:
        """The effect the engine is waiting on.

        Model-call effects are built lazily here (prompt assembly happens
        inside the driver's ``iteration`` span); execute effects were
        staged by the preceding :meth:`send`.  Idempotent until the reply
        is sent.
        """
        if self._state == _DONE:
            raise EngineProtocolError("chain already finished")
        if self._pending is None:
            # Only the model state builds lazily; an exec effect is
            # always staged before the state flips to "exec".
            self._pending = self._next_model_call()
        return self._pending

    def send(self, reply: ModelResult | ExecResult) -> None:
        """Feed back the observation for the pending effect."""
        if self._state == _DONE:
            raise EngineProtocolError("chain already finished")
        if isinstance(reply, ModelResult):
            if self._state != _MODEL or not isinstance(self._pending,
                                                       ModelCall):
                raise EngineProtocolError(
                    "engine is not waiting for a model call")
            self._on_model(reply)
        elif isinstance(reply, ExecResult):
            if self._state != _EXEC:
                raise EngineProtocolError(
                    "engine is not waiting for an execution")
            self._on_exec(reply)
        else:
            raise EngineProtocolError(
                f"unknown reply type {type(reply).__name__!r}")

    def _next_model_call(self) -> ModelCall:
        self.iterations += 1
        at_limit = (
            (self.max_iterations is not None
             and self.iterations >= self.max_iterations)
            or self.iterations >= self.hard_cap
        )
        self._forcing = self._forced or at_limit
        prompt = self.prompt_builder.build(
            self.transcript, force_answer=self._forcing)
        if self.prompt_hook is not None:
            prompt = self.prompt_hook(prompt)
        self._note("prompt", self.iterations,
                   chars=len(prompt), forced=self._forcing)
        return ModelCall(prompt=prompt, temperature=self.temperature,
                         n=self.n, iteration=self.iterations,
                         forced=self._forcing)

    def _on_model(self, reply: ModelResult) -> None:
        self._pending = None
        iteration = self.iterations
        completions = reply.completions
        if not completions:
            self._note("model_fault", iteration,
                       error="empty completion batch")
            if self._forcing:
                # Even the forced answer came back empty: give up.
                self._finish([], forced=True)
                return
            self.events.append("empty completion batch; forcing answer")
            self._forced = True
            return
        try:
            action = parse_action(completions[0].text)
        except ActionParseError:
            if self._forcing:
                # Even the forced answer is unparseable: give up empty.
                self._finish([], forced=True)
                return
            self.events.append("unparseable completion; forcing answer")
            self._forced = True
            return
        self._note("action", iteration,
                   action=action.kind, payload=action.payload)
        if action.kind == ActionKind.ANSWER or self._forcing:
            answer = (action.answer_values
                      if action.kind == ActionKind.ANSWER else [])
            self.transcript.steps.append(TranscriptStep(action))
            self._note("end", iteration, answer="|".join(answer),
                       forced=self._forcing)
            self._finish(answer, forced=self._forcing)
            return
        # Code action: stage the executor effect over the table history.
        self._stage(action)

    def _stage(self, action: Action) -> None:
        """Stage the execute effect for a non-answer action.

        The seam subclass engines override to *lower* their action
        vocabulary into executable code (the chain-of-table engine turns
        typed operators into SQL/Python here) while inheriting the whole
        forcing ladder, transcript bookkeeping and clone semantics.
        """
        self._pending_action = action
        self._pending = Execute(language=action.kind, code=action.payload,
                                tables=tuple(self.transcript.tables),
                                iteration=self.iterations)
        self._state = _EXEC

    def _on_exec(self, reply: ExecResult) -> None:
        action = self._pending_action
        self._pending = None
        self._pending_action = None
        self._state = _MODEL
        iteration = self.iterations
        if reply.missing_executor:
            self.events.append(
                f"no executor for {action.kind!r}; forcing answer")
            self._forced = True
            return
        if reply.outcome is None:
            # The paper's "other exceptions" path: force an answer.
            error_name = type(reply.error).__name__
            self.events.append(
                f"{action.kind} execution failed "
                f"({error_name}); forcing answer")
            self._note("execution", iteration, language=action.kind,
                       failed=True, error=error_name)
            self._forced = True
            return
        outcome = reply.outcome
        self.events.extend(outcome.handling_notes)
        self._note("execution", iteration, language=action.kind,
                   failed=False, rows=outcome.table.num_rows,
                   recovered=outcome.recovered)
        for note in outcome.handling_notes:
            self._note("recovery", iteration, note=note)
        self.apply(action, outcome.table, notes=outcome.handling_notes)

    def _finish(self, answer: list[str], *, forced: bool) -> None:
        self._state = _DONE
        self._result = AgentResult(answer, self.transcript, self.iterations,
                                   forced=forced,
                                   handling_events=self.events)

    # --- branch mode (voting drivers) ----------------------------------------

    def prompt_effect(self, *, force: bool = False,
                      n: int | None = None) -> ModelCall:
        """A model call for the chain's current prompt (no state change)."""
        prompt = self.prompt_builder.build(self.transcript,
                                           force_answer=force)
        if self.prompt_hook is not None:
            prompt = self.prompt_hook(prompt)
        return ModelCall(prompt=prompt, temperature=self.temperature,
                         n=self.n if n is None else n,
                         iteration=self.depth + 1, forced=force)

    def execute_effect(self, action: Action) -> Execute:
        """An execute effect for ``action`` over the table history."""
        return Execute(language=action.kind, code=action.payload,
                       tables=tuple(self.transcript.tables),
                       iteration=self.depth + 1)

    def apply(self, action: Action, table: DataFrame,
              notes=()) -> None:
        """Commit a code step: name the table ``T<k>`` and append it."""
        named = table.with_name(f"T{self.transcript.num_code_steps + 1}")
        self.transcript.steps.append(
            TranscriptStep(action, named, list(notes)))

    def clone(self) -> "ChainEngine":
        """An independent copy for tree branches.

        The transcript's step list and the event/note buffers are copied,
        so appending a step (or an event) to one branch is invisible to
        its siblings.  Tables and completed steps are immutable history
        and stay shared.  Cloning while an execute effect is pending is a
        protocol error — fork between steps, not mid-step.
        """
        if self._state == _EXEC or self._pending_action is not None:
            raise EngineProtocolError(
                "cannot clone mid-step (execution pending)")
        # ``type(self)``: subclass engines (chain-of-table) clone to their
        # own class, keeping their action lowering on every branch.
        twin = type(self)(
            self.transcript.fork(),
            prompt_builder=self.prompt_builder,
            temperature=self.temperature, n=self.n,
            max_iterations=self.max_iterations, hard_cap=self.hard_cap,
            prompt_hook=self.prompt_hook)
        twin.iterations = self.iterations
        twin.events = list(self.events)
        twin._forced = self._forced
        twin._forcing = self._forcing
        twin._state = self._state
        twin._notes = list(self._notes)
        twin._result = None
        # A pending (unsent) ModelCall is stale for the twin: its prompt
        # snapshot belongs to the original.  The twin rebuilds it on the
        # next next_effect(); roll back the iteration the build consumed.
        if isinstance(self._pending, ModelCall):
            twin.iterations -= 1
        return twin

    def fork(self) -> "ChainEngine":
        """:meth:`clone`, keeping a pending model call.

        The twin waits on the same call, so it can take a different reply
        to it: the batched driver forks a state shared by several chains
        once their completions differ.
        """
        twin = self.clone()
        twin._pending = self._pending
        twin.iterations = self.iterations
        return twin

    # --- trace notes ----------------------------------------------------------

    def _note(self, kind: str, iteration: int, **data) -> None:
        self._notes.append((kind, iteration, data))

    def drain_notes(self) -> list[tuple[str, int, dict]]:
        """Pop buffered ``(kind, iteration, data)`` tracer notes.

        The ``"end"`` note maps to ``ChainTracer.end_chain``; every other
        kind maps to ``ChainTracer.emit``.  Drivers without a tracer
        still call this (or ignore it — the buffer is also cleared by
        :meth:`clone` copies going out of scope) to keep memory flat.
        """
        notes = self._notes
        self._notes = []
        return notes
