"""FaultyEffectHandler vs the wrapper injectors: one schedule, two seams.

The effect-boundary injector must reproduce the wrapper pair
(``FaultyModel`` + ``FaultyExecutor``) *exactly*: same plan, same
per-site call counters, same salts — therefore the same faults on the
same calls and bit-identical chain results.  If the two styles drift,
chaos experiments stop being comparable across the sequential and
batched drivers.
"""

import pytest

from repro.core.agent import ReActTableAgent
from repro.aio import AsyncChainDriver
from repro.engine import EffectHandler, run_chain
from repro.errors import TransientModelError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.faults import (
    FaultConfig,
    FaultPlan,
    FaultyEffectHandler,
    FaultyExecutor,
    FaultyModel,
)
from repro.llm import SimulatedTQAModel, get_profile

#: Every fault kind at a rate that fires regularly but leaves most calls
#: clean, so chains exercise both the injected and the happy paths.
CHAOS = FaultConfig(
    model_transient=0.05, model_latency=0.05, model_truncate=0.08,
    model_garbage=0.08, model_wrong_n=0.05,
    executor_error=0.15, executor_sandbox=0.05, executor_corrupt=0.10)


def fresh_model(bench, seed=9):
    return SimulatedTQAModel(bench.bank, get_profile("codex-sim"),
                             seed=seed)


def noop_sleep(seconds):
    pass


def run_wrapper_style(bench, example, plan, faults):
    """The pre-engine chaos stack: injectors wrapped around the model
    and every executor."""
    model = FaultyModel(fresh_model(bench), plan, sleep=noop_sleep,
                        on_fault=lambda *a: faults.append(a))
    registry = ExecutorRegistry([
        FaultyExecutor(executor, plan,
                       on_fault=lambda *a: faults.append(a))
        for executor in default_registry()])
    agent = ReActTableAgent(model, registry=registry)
    return agent.run(example.table, example.question)


def run_effect_style(bench, example, plan, faults):
    """The engine-era chaos stack: one decorator on the effect seam."""
    model = fresh_model(bench)
    registry = default_registry()
    agent = ReActTableAgent(model, registry=registry)
    handler = FaultyEffectHandler(
        EffectHandler(model, registry), plan, sleep=noop_sleep,
        on_fault=lambda *a: faults.append(a))
    return run_chain(agent.engine_for(example.table, example.question),
                     handler)


def outcome_key(result):
    return (result.answer, result.iterations, result.forced,
            result.handling_events,
            [(s.action.kind, s.action.payload,
              None if s.table is None else s.table.num_rows)
             for s in result.transcript.steps])


class TestScheduleDifferential:
    def test_identical_faults_and_results_across_seams(self,
                                                       wikitq_small):
        """Across many seeded questions, both injection styles fire the
        same (site, kind, index) faults and land on identical results —
        including the questions where the injected transient escapes."""
        mismatches = []
        raised = 0
        injected = 0
        for question_seed, example in enumerate(
                wikitq_small.examples[:40]):
            keys, fault_logs = [], []
            for style in (run_wrapper_style, run_effect_style):
                plan = FaultPlan(CHAOS, seed=question_seed)
                faults = []
                try:
                    key = ("ok", outcome_key(
                        style(wikitq_small, example, plan, faults)))
                except TransientModelError as exc:
                    key = ("raised", str(exc))
                keys.append(key)
                fault_logs.append(faults)
            if keys[0] != keys[1] or fault_logs[0] != fault_logs[1]:
                mismatches.append(example.question)
            raised += keys[0][0] == "raised"
            injected += len(fault_logs[0])
        assert not mismatches
        # Sanity: the chaos config actually exercised both paths.
        assert injected > 20
        assert 0 < raised < 40

    def test_zero_rate_plan_is_inert(self, wikitq_small):
        example = wikitq_small.examples[0]
        plan = FaultPlan(FaultConfig(), seed=1)
        faults = []
        chaotic = run_effect_style(wikitq_small, example, plan, faults)
        agent = ReActTableAgent(fresh_model(wikitq_small))
        clean = agent.run(example.table, example.question)
        assert faults == []
        assert outcome_key(chaotic) == outcome_key(clean)


class TestBatchedFaults:
    """The batched driver injects through the model: ``FaultyModel``'s
    default ``complete_batch`` takes one fault draw per logical
    request."""

    def test_wrong_n_starves_batched_chains(self, wikitq_small):
        """Under the batched driver, a wrong-sized batch starves its
        logical request; the affected chains absorb it via the forcing
        ladder."""
        model = FaultyModel(
            fresh_model(wikitq_small),
            FaultPlan(FaultConfig(model_wrong_n=1.0), seed=4),
            sleep=noop_sleep)
        registry = default_registry()
        agent = ReActTableAgent(model, registry=registry)
        example = wikitq_small.examples[0]
        engines = [agent.engine_for(example.table, example.question)
                   for _ in range(2)]
        results = AsyncChainDriver(model, registry).run_sync(engines)
        # Every tick loses one completion: each n=1 request comes back
        # empty, so both chains force and then give up empty-handed.
        for result in results:
            assert result.forced and result.answer == []
            assert ("empty completion batch; forcing answer"
                    in result.handling_events)

    def test_transient_fails_the_whole_tick(self, wikitq_small):
        model = FaultyModel(
            fresh_model(wikitq_small),
            FaultPlan(FaultConfig(model_transient=1.0), seed=4),
            sleep=noop_sleep)
        registry = default_registry()
        agent = ReActTableAgent(model, registry=registry)
        example = wikitq_small.examples[0]
        engines = [agent.engine_for(example.table, example.question)]
        with pytest.raises(TransientModelError):
            AsyncChainDriver(model, registry).run_sync(engines)
