"""Unit tests for the sans-IO ChainEngine, driven with hand-fed effects.

No model, no executor: replies are constructed directly, so every branch
of the step logic (forcing ladder, caps, give-up paths, protocol misuse)
is reachable without I/O plumbing.
"""

import pytest

from repro.core.actions import ActionKind
from repro.core.prompt import PromptBuilder, Transcript
from repro.engine import (
    HARD_ITERATION_CAP,
    ChainDriver,
    ChainEngine,
    EffectHandler,
    Execute,
    ModelCall,
)
from repro.engine.effects import ExecResult, ModelResult
from repro.errors import EngineProtocolError, SQLExecutionError
from repro.executors.registry import default_registry
from repro.llm.base import Completion, ScriptedModel


def make_engine(table, question="who ranked first?", **kwargs):
    return ChainEngine(
        Transcript(table.with_name("T0"), question),
        prompt_builder=PromptBuilder(languages=("sql", "python")),
        **kwargs)


def reply(*texts):
    return ModelResult(tuple(Completion(t) for t in texts))


ANSWER = "ReAcTable: Answer: ```42```."
SQL = "ReAcTable: SQL: ```SELECT * FROM T0;```."


class TestLadder:
    def test_direct_answer(self, cyclists):
        engine = make_engine(cyclists)
        effect = engine.next_effect()
        assert isinstance(effect, ModelCall)
        assert effect.n == 1 and effect.iteration == 1
        assert not effect.forced
        engine.send(reply(ANSWER))
        assert engine.state == "done"
        result = engine.result
        assert result.answer == ["42"]
        assert result.iterations == 1
        assert not result.forced
        # The answer action is appended to the transcript, per the
        # legacy loop.
        assert result.transcript.steps[-1].action.kind == ActionKind.ANSWER

    def test_code_step_then_answer(self, cyclists):
        engine = make_engine(cyclists)
        engine.next_effect()
        engine.send(reply(SQL))
        assert engine.state == "exec"
        effect = engine.next_effect()
        assert isinstance(effect, Execute)
        assert effect.language == "sql"
        assert effect.tables[0].name == "T0"
        outcome = default_registry().get("sql").execute(
            "SELECT * FROM T0;", [cyclists.with_name("T0")])
        engine.send(ExecResult(outcome=outcome))
        assert engine.state == "model"
        assert engine.transcript.steps[-1].table.name == "T1"
        engine.next_effect()
        engine.send(reply(ANSWER))
        assert engine.result.iterations == 2

    def test_unparseable_forces_then_gives_up(self, cyclists):
        engine = make_engine(cyclists)
        engine.next_effect()
        engine.send(reply("nonsense"))
        assert engine.state == "model"
        effect = engine.next_effect()
        assert effect.forced
        assert "ReAcTable: Answer:" in effect.prompt.splitlines()[-1]
        engine.send(reply("still nonsense"))
        assert engine.state == "done"
        result = engine.result
        assert result.answer == [] and result.forced
        assert result.handling_events == [
            "unparseable completion; forcing answer"]

    def test_empty_batch_forces(self, cyclists):
        engine = make_engine(cyclists)
        engine.next_effect()
        engine.send(ModelResult(()))
        assert engine.next_effect().forced
        assert engine.events == ["empty completion batch; forcing answer"]

    def test_execution_error_forces(self, cyclists):
        engine = make_engine(cyclists)
        engine.next_effect()
        engine.send(reply(SQL))
        engine.send(ExecResult(
            error=SQLExecutionError("boom", code="SELECT")))
        assert engine.next_effect().forced
        assert engine.events == [
            "sql execution failed (SQLExecutionError); forcing answer"]

    def test_missing_executor_forces(self, cyclists):
        engine = make_engine(cyclists)
        engine.next_effect()
        engine.send(reply(SQL))
        engine.send(ExecResult(missing_executor=True,
                               error=KeyError("sql")))
        assert engine.next_effect().forced
        assert engine.events == ["no executor for 'sql'; forcing answer"]

    def test_max_iterations_forces_first_prompt(self, cyclists):
        engine = make_engine(cyclists, max_iterations=1)
        assert engine.next_effect().forced
        engine.send(reply(SQL))   # a code action while forcing → forced end
        result = engine.result
        assert result.answer == [] and result.forced
        # Legacy loop appends the (ignored) action as a step.
        assert result.transcript.steps[-1].action.kind == ActionKind.SQL

    def test_hard_cap_backstop(self, cyclists):
        engine = make_engine(cyclists, hard_cap=3)
        registry = default_registry()
        for index in (1, 2):
            effect = engine.next_effect()
            assert effect.iteration == index and not effect.forced
            engine.send(reply(SQL))
            exec_effect = engine.next_effect()
            outcome = registry.get("sql").execute(
                exec_effect.code, list(exec_effect.tables))
            engine.send(ExecResult(outcome=outcome))
        effect = engine.next_effect()
        assert effect.iteration == 3 and effect.forced
        engine.send(reply(ANSWER))
        result = engine.result
        assert result.forced and result.answer == ["42"]
        assert HARD_ITERATION_CAP == 24

    def test_protocol_misuse_raises(self, cyclists):
        engine = make_engine(cyclists)
        with pytest.raises(EngineProtocolError):
            engine.send(ExecResult(outcome=None))   # not waiting for exec
        engine.next_effect()
        engine.send(reply(ANSWER))
        with pytest.raises(EngineProtocolError):
            engine.next_effect()                     # already done
        with pytest.raises(EngineProtocolError):
            engine.send(reply(ANSWER))               # already done

    def test_result_before_done_raises(self, cyclists):
        engine = make_engine(cyclists)
        with pytest.raises(EngineProtocolError):
            engine.result


class TestDrivers:
    def test_handler_envelope_controls_absorption(self, cyclists):
        registry = default_registry()
        handler = EffectHandler(
            ScriptedModel(["ReAcTable: SQL: ```no such sql```.", ANSWER]),
            registry)
        (result,) = ChainDriver(handler).run([make_engine(cyclists)])
        # The broken SQL was absorbed as an ExecutionError and forced.
        assert result.forced and result.answer == ["42"]
        assert any("execution failed" in e for e in result.handling_events)
