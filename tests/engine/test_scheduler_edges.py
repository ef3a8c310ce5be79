"""Batched-driver edge cases: coalescing keys, retirement, chaos.

Companions to ``test_scheduler.py``'s happy-path equivalence suite for
``ChainDriver.run``; these pin its tick-boundary contracts — a
tick whose members all share one ``(prompt, temperature)`` key is a
single logical request, finished chains leave the tick population
immediately, and a :class:`FaultyModel` (one fault draw per logical
request) and faulty executors inject through the batched seam exactly
as scheduled.
"""

import pytest

from repro.core.agent import ReActTableAgent
from repro.engine import ChainDriver, EffectHandler
from repro.errors import TransientModelError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.faults import FaultConfig, FaultPlan, FaultyExecutor, FaultyModel
from repro.llm import SimulatedTQAModel, get_profile
from repro.llm.base import LanguageModel, ScriptedModel

ANSWER = "ReAcTable: Answer: ```42```."
SQL = "ReAcTable: SQL: ```SELECT * FROM T0;```."


class TrackingModel(LanguageModel):
    """Records batched round-trips."""

    name = "tracking"
    supports_logprobs = False

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def complete(self, prompt, *, temperature=0.0, n=1):
        return self.inner.complete(prompt, temperature=temperature, n=n)

    def complete_batch(self, requests):
        self.batches.append(list(requests))
        return super().complete_batch(requests)


def engines_for(model, table, question, count):
    agent = ReActTableAgent(model)
    return [agent.engine_for(table, question) for _ in range(count)]


class TestSingleKeyTicks:
    def test_all_members_on_one_key_is_one_logical_request(self,
                                                           cyclists):
        """Five identical chains: the tick carries exactly one
        CompletionRequest with the summed n, never five."""
        model = TrackingModel(ScriptedModel([ANSWER] * 5))
        driver = ChainDriver(EffectHandler(model, default_registry()))
        results = driver.run(
            engines_for(model, cyclists, "who ranked first?", 5))
        assert [r.answer for r in results] == [["42"]] * 5
        assert driver.ticks == 1 and driver.requests == 1
        (request,) = model.batches[0]
        assert request.n == 5

    def test_temperature_splits_the_key(self, cyclists):
        """Same prompt at different temperatures must not coalesce."""
        model = TrackingModel(ScriptedModel([ANSWER, ANSWER]))
        hot = ReActTableAgent(model, temperature=0.6)
        cold = ReActTableAgent(model)
        driver = ChainDriver(EffectHandler(model, default_registry()))
        results = driver.run([
            cold.engine_for(cyclists, "who ranked first?"),
            hot.engine_for(cyclists, "who ranked first?")])
        assert [r.answer for r in results] == [["42"], ["42"]]
        assert driver.ticks == 1 and driver.requests == 2
        assert len(model.batches[0]) == 2


class TestRetirement:
    def test_finished_chain_leaves_the_tick_population(self, cyclists):
        """One chain answers on tick 1 and retires; tick 2 goes out with
        only the survivor — the retiree's slot is not re-polled."""
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        driver = ChainDriver(EffectHandler(model, default_registry()))
        results = driver.run(
            engines_for(model, cyclists, "who ranked first?", 2))
        assert [r.answer for r in results] == [["42"], ["42"]]
        assert results[0].iterations == 2 and results[1].iterations == 1
        assert model.batches[0][0].n == 2      # both chains, coalesced
        assert sum(r.n for r in model.batches[1]) == 1   # survivor only

    def test_pre_finished_engines_are_skipped_but_reported(self,
                                                           cyclists):
        model = TrackingModel(ScriptedModel([ANSWER, ANSWER]))
        done, fresh = engines_for(model, cyclists, "who ranked first?", 2)
        # Drive the first engine to completion outside the driver.
        ChainDriver(EffectHandler(model, default_registry())).run([done])
        assert done.state == "done"
        results = ChainDriver(
            EffectHandler(model, default_registry())).run([done, fresh])
        assert len(results) == 2
        assert [r.answer for r in results] == [["42"], ["42"]]


class TestFaultyHandlerThroughTheScheduler:
    """Chaos through the batched seam: faulty model and executors."""

    CHAOS = FaultConfig(
        model_transient=0.0, model_latency=0.0, model_truncate=0.1,
        model_garbage=0.1, model_wrong_n=0.1,
        executor_error=0.15, executor_corrupt=0.1)

    def test_transient_fault_fails_the_whole_tick(self, wikitq_small):
        plan = FaultPlan(FaultConfig(model_transient=1.0), seed=1)
        faults = []
        model = FaultyModel(
            SimulatedTQAModel(wikitq_small.bank,
                              get_profile("codex-sim"), seed=1),
            plan, on_fault=lambda *a: faults.append(a))
        driver = ChainDriver(EffectHandler(model, default_registry()))
        agent = ReActTableAgent(model)
        example = wikitq_small.examples[0]
        engines = [agent.engine_for(example.table, example.question)
                   for _ in range(3)]
        with pytest.raises(TransientModelError):
            driver.run(engines)
        assert faults and faults[0][1] == "transient"

    def test_chaos_plan_is_deterministic_through_the_batch_seam(
            self, wikitq_small):
        """The same seeded plan over the same engines yields identical
        results and the identical (site, kind, index) fault schedule."""

        def run_once(seed):
            plan = FaultPlan(self.CHAOS, seed=seed)
            faults = []

            def record(*fault):
                faults.append(fault)

            model = FaultyModel(
                SimulatedTQAModel(wikitq_small.bank,
                                  get_profile("codex-sim"), seed=3),
                plan, sleep=lambda _s: None, on_fault=record)
            registry = ExecutorRegistry(
                FaultyExecutor(executor, plan, on_fault=record)
                for executor in default_registry())
            driver = ChainDriver(EffectHandler(model, registry))
            agent = ReActTableAgent(model, registry=registry)
            engines = []
            for example in wikitq_small.examples[:6]:
                engines.append(
                    agent.engine_for(example.table, example.question))
            results = driver.run(engines)
            return ([(r.answer, r.iterations, r.forced,
                      tuple(r.handling_events)) for r in results],
                    faults)

        first = run_once(21)
        second = run_once(21)
        assert first == second
        keys, faults = first
        assert len(keys) == 6
        # The chaos actually fired somewhere across the ticks.
        assert faults
