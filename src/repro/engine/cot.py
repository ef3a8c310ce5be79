"""Sans-IO core for the Codex-CoT ablation baseline (Section 4.3.1).

One model call produces the whole action sequence; the engine then
yields one :class:`~repro.engine.effects.Execute` effect per code block,
tolerating block failures ("the generated code is executed to obtain the
final answer" — a failed block is noted and skipped, never forced).
Driven by :class:`repro.engine.driver.ChainDriver`, whose tick runs
the execute effects of one reply in turn.
"""

from __future__ import annotations

from repro.core.actions import Action, ActionKind, parse_action
from repro.core.prompt import Transcript, TranscriptStep, build_cot_prompt
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.engine.result import AgentResult
from repro.errors import ActionParseError, EngineProtocolError

__all__ = ["CoTEngine"]


class CoTEngine:
    """Single-completion chain-of-thought state machine."""

    def __init__(self, transcript: Transcript, *,
                 languages: tuple[str, ...] = ("sql", "python"),
                 temperature: float = 0.0,
                 prompt_hook=None):
        self.transcript = transcript
        self.languages = languages
        self.temperature = temperature
        #: Optional ``str -> str`` transform applied to the assembled
        #: prompt — the same reflexion seam :class:`ChainEngine` exposes.
        self.prompt_hook = prompt_hook
        self.events: list[str] = []
        self._state = "model"
        self._queue: list[Action] = []
        self._pending: ModelCall | Execute | None = None
        self._pending_action: Action | None = None
        self._answer: list[str] = []
        self._result: AgentResult | None = None

    @property
    def state(self) -> str:
        return self._state

    def drain_notes(self) -> list[tuple[str, int, dict]]:
        """Trace-note protocol stub: the CoT chain emits no flat events."""
        return []

    @property
    def result(self) -> AgentResult:
        if self._result is None:
            raise EngineProtocolError("chain has not finished")
        return self._result

    def _prompt(self) -> str:
        """Assemble the single prompt — the seam subclass engines override
        to swap in another single-shot template (the commented-code engine
        substitutes its own instruction here)."""
        return build_cot_prompt(self.transcript.t0,
                                self.transcript.question,
                                languages=self.languages)

    def _parse_completion(self, text: str) -> list[Action]:
        """Parse the completion into the action queue.

        Line-based: each line either parses as an action or is dropped
        (free-form reasoning text between blocks).  Subclasses override
        to speak richer completion shapes.
        """
        actions: list[Action] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                actions.append(parse_action(line))
            except ActionParseError:
                continue
        return actions

    def next_effect(self) -> ModelCall | Execute:
        if self._state == "done":
            raise EngineProtocolError("chain already finished")
        if self._pending is None:
            # Only reachable in the initial model state.
            prompt = self._prompt()
            if self.prompt_hook is not None:
                prompt = self.prompt_hook(prompt)
            self._pending = ModelCall(prompt=prompt,
                                      temperature=self.temperature,
                                      n=1, iteration=1)
        return self._pending

    def send(self, reply: ModelResult | ExecResult) -> None:
        if self._state == "model":
            if not isinstance(reply, ModelResult):
                raise EngineProtocolError("expected a ModelResult")
            self._pending = None
            # Mirrors the legacy ``complete(...)[0]``: an empty batch is
            # a backend contract violation here, not a forcing event.
            completion = reply.completions[0]
            self._queue.extend(self._parse_completion(completion.text))
            self._advance()
        elif self._state == "exec":
            if not isinstance(reply, ExecResult):
                raise EngineProtocolError("expected an ExecResult")
            action = self._pending_action
            self._pending = None
            self._pending_action = None
            if reply.outcome is None:
                self.events.append(
                    f"{action.kind} block failed "
                    f"({type(reply.error).__name__}); continuing")
                self.transcript.steps.append(TranscriptStep(action))
            else:
                outcome = reply.outcome
                self.events.extend(outcome.handling_notes)
                new_table = outcome.table.with_name(
                    f"T{self.transcript.num_code_steps + 1}")
                self.transcript.steps.append(
                    TranscriptStep(action, new_table,
                                   list(outcome.handling_notes)))
            self._advance()
        else:
            raise EngineProtocolError("chain already finished")

    def _advance(self) -> None:
        """Consume queued actions until an execute effect or the end."""
        while self._queue:
            action = self._queue.pop(0)
            if action.kind == ActionKind.ANSWER:
                self._answer = action.answer_values
                self.transcript.steps.append(TranscriptStep(action))
                self._queue.clear()
                self._finish()
                return
            self._pending_action = action
            self._pending = Execute(language=action.kind,
                                    code=action.payload,
                                    tables=tuple(self.transcript.tables))
            self._state = "exec"
            return
        self._finish()

    def _finish(self) -> None:
        self._state = "done"
        self._result = AgentResult(
            answer=self._answer,
            transcript=self.transcript,
            iterations=1,   # one LLM call, by construction
            handling_events=self.events,
        )
