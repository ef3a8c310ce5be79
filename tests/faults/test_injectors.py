"""Tests for the model and executor fault injectors."""

import pytest

from repro.core.agent import ReActTableAgent
from repro.engine import ChainDriver, EffectHandler
from repro.errors import (
    PythonExecutionError,
    SandboxViolationError,
    SQLExecutionError,
    TransientModelError,
)
from repro.executors.base import CodeExecutor, ExecutionOutcome
from repro.executors.registry import default_registry
from repro.faults import FaultConfig, FaultPlan, FaultyExecutor, FaultyModel
from repro.llm import SimulatedTQAModel, get_profile
from repro.llm.base import Completion, LanguageModel
from repro.table import DataFrame


class EchoModel(LanguageModel):
    """Returns a fixed batch; records calls for pass-through asserts."""

    name = "echo"
    supports_logprobs = True

    def __init__(self, text="ReAcTable: Answer: ```42```."):
        self.text = text
        self.calls = 0

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.calls += 1
        return [Completion(self.text, -1.0) for _ in range(n)]


class EchoExecutor(CodeExecutor):
    """Returns the last table unchanged; records calls."""

    language = "sql"

    def __init__(self, language="sql"):
        self.language = language
        self.calls = 0

    def execute(self, code, tables):
        self.calls += 1
        return ExecutionOutcome(table=tables[-1],
                                executed_against=tables[-1].name)


def plan_for(kind: str, seed: int = 1) -> FaultPlan:
    """A plan that injects exactly ``kind`` on every call."""
    return FaultPlan(FaultConfig(**{kind: 1.0}), seed=seed)


@pytest.fixture
def frame():
    return DataFrame({"a": [1, 2, 3]}, name="T1")


class TestFaultyModelPassThrough:
    def test_rate_zero_delegates_untouched(self):
        inner = EchoModel()
        model = FaultyModel(inner, FaultPlan(FaultConfig(), seed=1))
        batch = model.complete("p", n=2)
        assert inner.calls == 1
        assert [c.text for c in batch] == [inner.text, inner.text]
        assert [c.logprob for c in batch] == [-1.0, -1.0]

    def test_identity_delegated(self):
        model = FaultyModel(EchoModel(), FaultPlan(FaultConfig()))
        assert model.name == "echo"
        assert model.supports_logprobs is True

    def test_fork_forks_inner_and_plan(self):
        model = FaultyModel(EchoModel(),
                            FaultPlan(FaultConfig.uniform(0.5), seed=1))
        forked = model.fork(9)
        assert isinstance(forked, FaultyModel)
        assert forked.plan.seed == 9
        assert forked.plan.config is model.plan.config


class TestFaultyModelKinds:
    def test_transient_raises_before_backend(self):
        inner = EchoModel()
        seen = []
        model = FaultyModel(inner, plan_for("model_transient"),
                            on_fault=lambda *a: seen.append(a))
        with pytest.raises(TransientModelError):
            model.complete("p")
        assert inner.calls == 0
        assert seen == [("model", "transient", 0)]

    def test_latency_sleeps_then_delegates(self):
        slept = []
        inner = EchoModel()
        plan = FaultPlan(FaultConfig(model_latency=1.0,
                                     latency_seconds=0.7), seed=1)
        model = FaultyModel(inner, plan, sleep=slept.append)
        batch = model.complete("p")
        assert slept == [0.7]
        assert inner.calls == 1
        assert batch[0].text == inner.text

    def test_truncate_halves_each_completion(self):
        inner = EchoModel(text="0123456789")
        model = FaultyModel(inner, plan_for("model_truncate"))
        assert model.complete("p")[0].text == "01234"

    def test_truncate_keeps_at_least_one_char(self):
        inner = EchoModel(text="x")
        model = FaultyModel(inner, plan_for("model_truncate"))
        assert model.complete("p")[0].text == "x"

    def test_garbage_replaces_text_keeps_logprob(self):
        model = FaultyModel(EchoModel(), plan_for("model_garbage"))
        completion = model.complete("p")[0]
        assert "\x00" in completion.text
        assert completion.logprob == -1.0

    def test_wrong_n_returns_short_batch(self):
        model = FaultyModel(EchoModel(), plan_for("model_wrong_n"))
        assert len(model.complete("p", n=3)) == 2
        assert model.complete("p", n=1) == []

    def test_call_counter_advances_schedule(self):
        # ~Half the calls fault under a 0.5 schedule; the counter (plus
        # salt) must advance so verdicts vary call to call.
        inner = EchoModel()
        plan = FaultPlan(FaultConfig(model_transient=0.5), seed=3)
        model = FaultyModel(inner, plan)
        verdicts = []
        for _ in range(40):
            try:
                model.complete("p")
                verdicts.append(False)
            except TransientModelError:
                verdicts.append(True)
        assert any(verdicts) and not all(verdicts)


class TestFaultyExecutor:
    def test_rate_zero_delegates_untouched(self, frame):
        inner = EchoExecutor()
        executor = FaultyExecutor(inner, FaultPlan(FaultConfig()))
        outcome = executor.execute("SELECT 1", [frame])
        assert inner.calls == 1
        assert outcome.table is frame

    def test_site_and_describe_delegate(self):
        executor = FaultyExecutor(EchoExecutor("python"),
                                  FaultPlan(FaultConfig()))
        assert executor.site == "executor:python"
        assert executor.language == "python"
        assert "python" in executor.describe()

    def test_error_kind_matches_language(self, frame):
        sql = FaultyExecutor(EchoExecutor("sql"),
                             plan_for("executor_error"))
        with pytest.raises(SQLExecutionError):
            sql.execute("SELECT 1", [frame])
        py = FaultyExecutor(EchoExecutor("python"),
                            plan_for("executor_error"))
        with pytest.raises(PythonExecutionError):
            py.execute("x = 1", [frame])

    def test_sandbox_violation(self, frame):
        seen = []
        executor = FaultyExecutor(EchoExecutor(),
                                  plan_for("executor_sandbox"),
                                  on_fault=lambda *a: seen.append(a))
        with pytest.raises(SandboxViolationError):
            executor.execute("SELECT 1", [frame])
        assert seen == [("executor:sql", "sandbox", 0)]

    def test_corrupt_drops_last_row_keeps_name(self, frame):
        inner = EchoExecutor()
        executor = FaultyExecutor(inner, plan_for("executor_corrupt"))
        outcome = executor.execute("SELECT 1", [frame])
        assert inner.calls == 1          # the code really ran
        assert outcome.table.num_rows == frame.num_rows - 1
        assert outcome.table.name == frame.name

    def test_corrupt_empty_table_survives(self):
        empty = DataFrame({"a": []}, name="T1")
        executor = FaultyExecutor(EchoExecutor(),
                                  plan_for("executor_corrupt"))
        assert executor.execute("SELECT 1",
                                [empty]).table.num_rows == 0


class TestBatchedFaults:
    """The chain driver injects through the model: ``FaultyModel``'s
    default ``complete_batch`` takes one fault draw per logical
    request."""

    @staticmethod
    def chains(bench, config, count):
        model = FaultyModel(
            SimulatedTQAModel(bench.bank, get_profile("codex-sim"), seed=9),
            FaultPlan(config, seed=4), sleep=lambda _seconds: None)
        registry = default_registry()
        agent = ReActTableAgent(model, registry=registry)
        example = bench.examples[0]
        engines = [agent.engine_for(example.table, example.question)
                   for _ in range(count)]
        return ChainDriver(EffectHandler(model, registry)), engines

    def test_wrong_n_starves_batched_chains(self, wikitq_small):
        """Under the chain driver, a wrong-sized batch starves its
        logical request; the affected chains absorb it via the forcing
        ladder."""
        driver, engines = self.chains(
            wikitq_small, FaultConfig(model_wrong_n=1.0), 2)
        results = driver.run(engines)
        # Every tick loses one completion: each n=1 request comes back
        # empty, so both chains force and then give up empty-handed.
        for result in results:
            assert result.forced and result.answer == []
            assert ("empty completion batch; forcing answer"
                    in result.handling_events)

    def test_transient_fails_the_whole_tick(self, wikitq_small):
        driver, engines = self.chains(
            wikitq_small, FaultConfig(model_transient=1.0), 1)
        with pytest.raises(TransientModelError):
            driver.run(engines)
