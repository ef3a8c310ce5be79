"""Tests for the chain drivers: lock-step ticks over shared chain states.

``ChainDriver`` (sync) and ``AsyncChainDriver`` (awaited) pump one tick
loop.  Its contract is stronger than "same answers": it must
reproduce the lock-step reference's *ticks* (``tests/engine/lockstep.py``)
— the same ``complete_batch`` call sequence reaching the model — which
makes even sampled (temperature > 0) chains bit-identical across the two
drivers.  Sharing one engine among chains in the same state must not
show either: against one engine per chain, the model sees the same
requests and every chain ends the same.
"""

import asyncio
import copy
import gc

import pytest

from repro.aio import AsyncChainDriver, AsyncEffectHandler, AsyncLanguageModel
from repro.core.agent import ReActTableAgent
from repro.core.prompt import PromptBuilder, Transcript
from repro.core.voting import SimpleMajorityVoting
from repro.datasets import generate_dataset
from repro.datasets.spec import QuestionBank
from repro.engine import (
    ChainDriver,
    ChainEngine,
    ChainOfTableEngine,
    EffectHandler,
)
from repro.errors import TransientModelError
from repro.executors.registry import default_registry
from repro.llm import SimulatedTQAModel, get_profile
from repro.llm.base import Completion, LanguageModel, ScriptedModel
from repro.serving import AgentSpec
from repro.telemetry import Telemetry
from tests.engine.lockstep import LockStepDriver

ANSWER = "ReAcTable: Answer: ```42```."
SQL = "ReAcTable: SQL: ```SELECT * FROM T0;```."
OTHER_SQL = "ReAcTable: SQL: ```SELECT Rank FROM T0;```."
INSTALL_NOTE = "installed module"


def fresh_model(bench, seed):
    return SimulatedTQAModel(bench.bank, get_profile("codex-sim"),
                             seed=seed)


class TrackingModel(LanguageModel):
    """Records every batched round-trip it serves."""

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


class CountingBuilder(PromptBuilder):
    """A prompt builder counting its builds."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def build(self, transcript, *, force_answer=False):
        self.builds += 1
        return super().build(transcript, force_answer=force_answer)


class CountingHandler(EffectHandler):
    """An effect handler counting executions and recording requests."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executions = 0
        self.log = []

    def execute(self, effect):
        self.executions += 1
        return super().execute(effect)

    def model_batch(self, requests):
        self.log.append([(r.prompt, r.temperature, r.n) for r in requests])
        return super().model_batch(requests)


class StallingModel(AsyncLanguageModel):
    """Answers the first round-trip, stalls on the second."""

    def __init__(self):
        self.calls = 0

    async def complete(self, prompt, *, temperature=0.0, n=1):
        self.calls += 1
        if self.calls > 1:
            await asyncio.Event().wait()
        return [Completion(SQL)] * n


def engines_for(model, table, question, count):
    agent = ReActTableAgent(model)
    return [agent.engine_for(table, question) for _ in range(count)]


class TestGreedyEquivalence:
    def test_greedy_chains_bit_identical_to_sequential(self, wikitq_small):
        examples = wikitq_small.examples[:20]
        sequential = ReActTableAgent(fresh_model(wikitq_small, 7))
        expected = [sequential.run(ex.table, ex.question)
                    for ex in examples]

        model = fresh_model(wikitq_small, 7)
        agent = ReActTableAgent(model)
        engines = [agent.engine_for(ex.table, ex.question)
                   for ex in examples]
        results = ChainDriver(EffectHandler(model, default_registry())).run(
            engines)

        for old, new in zip(expected, results):
            assert new.answer == old.answer
            assert new.iterations == old.iterations
            assert new.forced == old.forced
            assert new.handling_events == old.handling_events


class TestSchedulerEquivalence:
    def test_sampled_chains_bit_identical_to_batch_scheduler(
            self, wikitq_small):
        """Temperature 0.6 chains draw from the model's stream; identical
        ticks mean identical draws, so results must match exactly."""
        example = wikitq_small.examples[0]
        registry = default_registry()

        model_a = fresh_model(wikitq_small, 5)
        voter_a = SimpleMajorityVoting(model_a, registry=registry, n=5)
        lockstep = LockStepDriver(model_a, registry)
        expected = lockstep.run(
            voter_a.chain_engines(example.table, example.question))

        model_b = fresh_model(wikitq_small, 5)
        voter_b = SimpleMajorityVoting(model_b, registry=registry, n=5)
        driver = ChainDriver(EffectHandler(model_b, registry))
        results = driver.run(
            voter_b.chain_engines(example.table, example.question))

        assert [r.answer for r in expected] == [r.answer for r in results]
        assert [r.iterations for r in expected] == [
            r.iterations for r in results]
        assert lockstep.ticks == driver.ticks
        assert lockstep.requests == driver.requests

    def test_many_questions_tick_parity(self, wikitq_small):
        examples = wikitq_small.examples[:10]
        registry = default_registry()

        model_a = fresh_model(wikitq_small, 3)
        agent_a = ReActTableAgent(model_a)
        lockstep = LockStepDriver(model_a, registry)
        expected = lockstep.run([
            agent_a.engine_for(ex.table, ex.question) for ex in examples])

        model_b = fresh_model(wikitq_small, 3)
        agent_b = ReActTableAgent(model_b)
        driver = ChainDriver(EffectHandler(model_b, registry))
        results = driver.run([
            agent_b.engine_for(ex.table, ex.question) for ex in examples])

        assert [r.answer for r in expected] == [r.answer for r in results]
        assert lockstep.ticks == driver.ticks
        assert lockstep.requests == driver.requests


class TestDriverSurface:
    def test_requires_model_or_handler(self):
        with pytest.raises(ValueError):
            AsyncChainDriver()

    def test_empty_engine_list(self, wikitq_small):
        driver = ChainDriver(EffectHandler(fresh_model(wikitq_small, 1),
                                           default_registry()))
        assert driver.run([]) == []
        assert driver.ticks == 0

    def test_run_inside_a_running_loop(self, wikitq_small):
        example = wikitq_small.examples[0]
        model = fresh_model(wikitq_small, 1)
        agent = ReActTableAgent(model)
        driver = AsyncChainDriver(model, default_registry())

        async def scenario():
            return await driver.run(
                [agent.engine_for(example.table, example.question)])

        (result,) = asyncio.run(scenario())
        assert isinstance(result.answer, list)


class TestCoalescing:
    def test_identical_prompts_merge_into_one_request(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER] * 3))
        driver = AsyncChainDriver(model, default_registry())
        results = asyncio.run(driver.run(
            engines_for(model, cyclists, "who ranked first?", 3)))
        assert [r.answer for r in results] == [["42"]] * 3
        assert driver.ticks == 1 and driver.requests == 1
        (request,) = model.batches[0]
        assert request.n == 3

    def test_chains_desync_and_recoalesce(self, cyclists):
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        driver = AsyncChainDriver(model, default_registry())
        results = asyncio.run(driver.run(
            engines_for(model, cyclists, "who ranked first?", 2)))
        assert driver.ticks == 2
        assert model.batches[0][0].n == 2     # coalesced first tick
        assert model.batches[1][0].n == 1     # survivor runs alone
        assert [r.answer for r in results] == [["42"], ["42"]]


    def test_next_tick_follows_hand_out_order(self, cyclists):
        """Chains 1 and 3 share tick 1's first request, so tick 2 visits
        them before chain 2, not in input order."""
        model = TrackingModel(ScriptedModel(
            [SQL, OTHER_SQL, SQL] + [ANSWER] * 3))
        first, second = "who ranked first?", "which team won?"
        engines = [ReActTableAgent(model).engine_for(cyclists, question)
                   for question in (first, second, first)]
        ChainDriver(EffectHandler(model, default_registry())).run(engines)
        assert [r.n for r in model.batches[0]] == [2, 1]
        questions = [first, first, second]
        assert all(question in request.prompt for question, request
                   in zip(questions, model.batches[1]))


class TestSharedStates:
    def test_one_build_and_one_execution_per_distinct_state(self,
                                                            cyclists):
        """Five chains: one state on tick 1, two after it (two SQL
        texts), each building one prompt and executing once."""
        builder = CountingBuilder()
        model = ScriptedModel([SQL, OTHER_SQL, SQL, OTHER_SQL, SQL]
                              + [ANSWER] * 5)
        handler = CountingHandler(model, default_registry())
        agent = ReActTableAgent(model, prompt_builder=builder)
        results = ChainDriver(handler).run(
            [agent.engine_for(cyclists, "who ranked first?")
             for _ in range(5)])
        assert builder.builds == 1 + 2      # tick 1, then two states
        assert handler.executions == 2      # one per distinct SQL text
        assert [len(tick) for tick in handler.log] == [1, 2]
        assert [r.answer for r in results] == [["42"]] * 5
        # Chains 1, 3, 5 share one state and chains 2, 4 another.
        assert results[0] is results[2] is results[4]
        assert results[1] is results[3] and results[0] is not results[1]

    def test_forked_twin_keeps_the_pending_call(self, cyclists):
        engine = engines_for(ScriptedModel([]), cyclists,
                             "who ranked first?", 1)[0]
        call = engine.next_effect()
        twin = engine.fork()
        assert twin.next_effect() is call
        assert twin.iterations == engine.iterations == 1
        assert engine.clone().iterations == 0

    def test_differing_engines_are_never_merged(self, cyclists):
        """Another builder, hook or class keeps an engine to itself."""
        builder = CountingBuilder()

        def transcript():
            return Transcript(cyclists.with_name("T0"), "who ranked first?")

        engines = [
            ChainEngine(transcript(), prompt_builder=builder),
            ChainEngine(transcript(), prompt_builder=builder,
                        prompt_hook=lambda prompt: prompt),
            ChainEngine(transcript(), prompt_builder=builder,
                        prompt_hook=lambda prompt: prompt),
            ChainOfTableEngine(transcript(), prompt_builder=builder),
            ChainEngine(transcript(), prompt_builder=CountingBuilder()),
            ChainEngine(transcript(), prompt_builder=builder,
                        temperature=0.6),
        ]
        model = TrackingModel(ScriptedModel([ANSWER] * 6))
        results = ChainDriver(EffectHandler(model, default_registry())).run(
            engines)
        assert builder.builds == 5
        assert len({id(result) for result in results}) == 6

    @pytest.mark.parametrize("samples", [1, 2, 5, 7])
    def test_shared_states_match_one_engine_per_chain(self, samples):
        """52 s-vote attempts per sample count (208 in all), over wikitq
        and tabfact under two model seeds: the same requests, tallies
        and chain results as engines that cannot share, bar the notes of
        runtime module installs (the one chain that installs carries the
        note alone there; all chains of its state carry it when
        shared)."""
        bank = QuestionBank()
        examples = [example for name in ("wikitq", "tabfact")
                    for example in generate_dataset(
                        name, size=13, seed=31, bank=bank).examples]
        spec = AgentSpec(bank=bank, voting="s-vote", samples=samples,
                         sql_backend="native")
        for seed in (3, 4):
            for example in examples:
                runs = []
                for share in (True, False):
                    voter = spec.build(seed)
                    handler = CountingHandler(voter.model, voter.registry,
                                              catch=voter.handler_catch)
                    engines = voter.chain_engines(example.table,
                                                  example.question)
                    if not share:
                        for engine in engines:
                            engine.prompt_builder = copy.copy(
                                engine.prompt_builder)
                    results = ChainDriver(handler).run(engines)
                    runs.append((handler.log, voter.tally(results),
                                 results))
                (log, tally, shared), (own_log, own_tally, own) = runs
                assert log == own_log and tally == own_tally
                for result, own_result in zip(shared, own):
                    assert result.answer == own_result.answer
                    assert result.iterations == own_result.iterations
                    assert result.forced == own_result.forced
                    assert ([e for e in result.handling_events
                             if INSTALL_NOTE not in e]
                            == [e for e in own_result.handling_events
                                if INSTALL_NOTE not in e])


class TestFailureAndCancellation:
    def test_failing_tick_raises_out_of_run(self, cyclists):
        class FailingModel(LanguageModel):
            name = "failing"
            supports_logprobs = False

            def complete(self, prompt, *, temperature=0.0, n=1):
                raise TransientModelError("backend down")

        model = FailingModel()
        driver = AsyncChainDriver(model, default_registry())
        engines = engines_for(model, cyclists, "who ranked first?", 2)
        with pytest.raises(TransientModelError):
            asyncio.run(driver.run(engines))
        with pytest.raises(TransientModelError):
            ChainDriver(EffectHandler(model, default_registry())).run(
                engines_for(model, cyclists, "who ranked first?", 2))

    def test_cancelled_run_leaves_no_task_or_call(self, cyclists):
        model = StallingModel()
        driver = AsyncChainDriver(
            handler=AsyncEffectHandler(model, default_registry()))

        async def scenario():
            task = asyncio.create_task(driver.run(engines_for(
                ScriptedModel([]), cyclists, "who ranked first?", 3)))
            while model.calls < 2:
                await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            for _ in range(5):
                await asyncio.sleep(0)
            return asyncio.all_tasks() - {asyncio.current_task()}

        assert asyncio.run(scenario()) == set()
        assert model.calls == 2 and driver.ticks == 2

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_cancelled_run_closes_its_iteration_span(self, cyclists):
        """The tick a cancellation interrupts closes its ``iteration``
        span with an error, in the run's own task context, before the
        cancellation leaves the run."""
        model = StallingModel()
        driver = AsyncChainDriver(
            handler=AsyncEffectHandler(model, default_registry()))
        telemetry = Telemetry()

        async def traced_run(engines):
            with telemetry.activate():
                return await driver.run(engines)

        async def scenario():
            task = asyncio.create_task(traced_run(engines_for(
                ScriptedModel([]), cyclists, "who ranked first?", 3)))
            while model.calls < 2:
                await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(scenario())
        gc.collect()
        iterations = [s for s in telemetry.spans if s.kind == "iteration"]
        assert [(s.attributes["index"], s.status) for s in iterations] == [
            (1, "ok"), (2, "error")]
        assert iterations[1].attributes["error"] == "CancelledError"


class TestStarvedTail:
    def test_starved_tail_absorbed_by_forcing_ladder(self, cyclists):
        class StarvingModel(LanguageModel):
            """Returns one completion fewer than asked, once."""

            name = "starving"
            supports_logprobs = False

            def __init__(self):
                self.starved = False

            def complete(self, prompt, *, temperature=0.0, n=1):
                if not self.starved and n > 1:
                    self.starved = True
                    n -= 1
                return [Completion(ANSWER)] * n

        model = StarvingModel()
        results = asyncio.run(AsyncChainDriver(
            model, default_registry()).run(
                engines_for(model, cyclists, "who ranked first?", 2)))
        assert results[0].answer == ["42"] and not results[0].forced
        assert results[1].answer == ["42"] and results[1].forced
        assert results[1].handling_events == [
            "empty completion batch; forcing answer"]


class TestRunSync:
    def test_batched_votes_need_no_event_loop(self, wikitq_small,
                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an event loop was started")

        monkeypatch.setattr(asyncio, "run", refuse)
        monkeypatch.setattr(asyncio, "new_event_loop", refuse)
        example = wikitq_small.examples[0]
        voter = SimpleMajorityVoting(fresh_model(wikitq_small, 2),
                                     use_scheduler=True)
        vote = voter.run(example.table, example.question)
        assert vote.num_chains == voter.n
