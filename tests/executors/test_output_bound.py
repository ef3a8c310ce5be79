"""Generated Python prints into a bounded per-execution buffer.

A ``print`` flood stops at ``MAX_OUTPUT_CHARS`` with a non-retryable
:class:`SandboxViolationError`, which the chain's forcing path absorbs;
nothing the code prints reaches the process's stdout.
"""

import asyncio

import pytest

from repro.aio import AsyncServer
from repro.core import ReActTableAgent
from repro.errors import SandboxViolationError, is_retryable
from repro.executors import PythonExecutor
from repro.executors.sandbox import MAX_OUTPUT_CHARS
from repro.llm.base import ScriptedModel
from repro.serving import TQARequest, WorkerPool

FLOOD = "for i in range(10 ** 7):\n    print('row', i)"


def _flood_then_answer() -> ScriptedModel:
    return ScriptedModel([f"ReAcTable: Python: ```{FLOOD}```.",
                          "ReAcTable: Answer: ```42```."])


class FloodSpec:
    """Agents whose first step floods stdout, then answer when forced."""

    config_key = "print-flood"

    def build(self, seed):
        return ReActTableAgent(_flood_then_answer())

    def build_forced(self, seed):
        return ReActTableAgent(
            ScriptedModel(["ReAcTable: Answer: ```degraded```."]),
            max_iterations=1)


class TestExecutor:
    def test_small_print_leaves_the_result_unchanged(self, cyclists,
                                                     capsys):
        code = "T1 = T0.head(2)"
        quiet = PythonExecutor().execute(code, [cyclists])
        loud = PythonExecutor().execute(
            "print(T0.columns, sep=', ', end='')\nprint('x', 1)\n" + code,
            [cyclists])
        assert loud.table.to_rows() == quiet.table.to_rows()
        assert loud.table.columns == quiet.table.columns
        assert loud.handling_notes == quiet.handling_notes
        assert capsys.readouterr().out == ""

    def test_flood_stops_at_the_budget(self, cyclists, capsys):
        with pytest.raises(SandboxViolationError) as caught:
            PythonExecutor().execute(FLOOD, [cyclists])
        assert f"{MAX_OUTPUT_CHARS} characters" in str(caught.value)
        assert not is_retryable(caught.value)
        assert capsys.readouterr().out == ""

    def test_every_print_past_the_budget_raises(self, cyclists):
        # 11 characters a line: the first line past the budget and every
        # later one raise, so swallowing the error cannot grow the buffer.
        code = ("raised = 0\n"
                "for i in range(20000):\n"
                "    try:\n"
                "        print('x' * 10)\n"
                "    except Exception:\n"
                "        raised += 1\n"
                "result = DataFrame({'raised': [raised]})")
        outcome = PythonExecutor().execute(code, [cyclists])
        assert outcome.table.to_rows() == [
            (20000 - MAX_OUTPUT_CHARS // 11,)]

    def test_each_execution_gets_a_fresh_buffer(self, cyclists):
        executor = PythonExecutor()
        half = MAX_OUTPUT_CHARS // 2
        for rows in (1, 2, 3):
            executor.execute(f"print('x' * {half})\nT1 = T0.head({rows})",
                             [cyclists])
        with pytest.raises(SandboxViolationError):
            executor.execute(f"print('x' * {MAX_OUTPUT_CHARS})", [cyclists])


class TestServing:
    def test_worker_pool(self, cyclists, capsys):
        with WorkerPool(FloodSpec(), workers=1) as pool:
            response = pool.submit(cyclists, "how many rows?",
                                   uid="flood").result(timeout=60)
        assert response.outcome == "ok"
        assert response.forced
        assert response.answer == ["42"]
        assert any("SandboxViolationError" in event
                   for event in response.handling_events)
        assert capsys.readouterr().out == ""

    def test_async_server(self, cyclists, capsys):
        async def scenario():
            async with AsyncServer(FloodSpec(), max_inflight=2) as server:
                return await server.answer(TQARequest(
                    table=cyclists, question="how many rows?", uid="flood"))

        response = asyncio.run(scenario())
        assert response.outcome == "ok"
        assert response.forced
        assert response.answer == ["42"]
        assert any("SandboxViolationError" in event
                   for event in response.handling_events)
        assert capsys.readouterr().out == ""
