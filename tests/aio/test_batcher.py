"""Tests for the ContinuousBatcher: dynamic ticks, coalescing, accounting.

The batcher must keep lock-step coalescing semantics (merge identical
pending prompts, slice results back in collection order, starve tails
into the forcing ladder) while allowing what lock-step cannot: chains
joining mid-flight, ticks overlapping with round-trips in flight, and
chains retiring without anyone waiting for them.
"""

import asyncio

import pytest

from repro.aio import AsyncEffectHandler, ContinuousBatcher, drive_chain
from repro.core.agent import ReActTableAgent
from repro.engine.effects import ModelCall
from repro.errors import EngineProtocolError, TransientModelError
from repro.executors.registry import default_registry
from repro.llm.base import Completion, LanguageModel, ScriptedModel

ANSWER = "ReAcTable: Answer: ```42```."
SQL = "ReAcTable: SQL: ```SELECT * FROM T0;```."


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


def batcher_for(model):
    return ContinuousBatcher(
        AsyncEffectHandler(model, default_registry()))


def engines_for(model, table, question, count):
    agent = ReActTableAgent(model)
    return [agent.engine_for(table, question) for _ in range(count)]


async def run_population(batcher, engines):
    for _ in engines:
        batcher.admit()
    return await asyncio.gather(
        *(drive_chain(engine, batcher, pre_admitted=True)
          for engine in engines))


class TestCoalescing:
    def test_identical_prompts_merge_into_one_request(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER] * 3))
        batcher = batcher_for(model)
        results = asyncio.run(run_population(
            batcher, engines_for(model, cyclists, "who ranked first?", 3)))
        assert [r.answer for r in results] == [["42"]] * 3
        assert batcher.ticks == 1 and batcher.requests == 1
        (request,) = model.batches[0]
        assert request.n == 3

    def test_chains_desync_and_recoalesce(self, cyclists):
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        batcher = batcher_for(model)
        results = asyncio.run(run_population(
            batcher, engines_for(model, cyclists, "who ranked first?", 2)))
        assert batcher.ticks == 2
        assert model.batches[0][0].n == 2     # coalesced first tick
        assert model.batches[1][0].n == 1     # survivor runs alone
        assert [r.answer for r in results] == [["42"], ["42"]]

    def test_population_counters(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER] * 2))
        batcher = batcher_for(model)
        asyncio.run(run_population(
            batcher, engines_for(model, cyclists, "who ranked first?", 2)))
        assert batcher.admitted == 2 and batcher.retired == 2
        assert batcher.population == 0
        assert batcher.max_tick_members == 2


class TestMidFlightAdmission:
    def test_late_chain_joins_the_next_tick(self, cyclists):
        """A chain admitted while a tick is in flight batches with the
        *next* tick, not the one already on the wire."""
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        batcher = batcher_for(model)

        async def scenario():
            first = engines_for(model, cyclists, "who ranked first?", 1)[0]
            batcher.admit()
            task = asyncio.create_task(
                drive_chain(first, batcher, pre_admitted=True))
            # Let the first chain park and its tick launch.
            await asyncio.sleep(0)
            late = engines_for(model, cyclists, "who ranked first?", 1)[0]
            late_task = asyncio.create_task(drive_chain(late, batcher))
            return await asyncio.gather(task, late_task)

        results = asyncio.run(scenario())
        assert [r.answer for r in results] == [["42"], ["42"]]
        # First tick: the early chain alone.  Later ticks: the late chain
        # (and the early chain's second iteration) — never retroactively
        # merged into the in-flight round-trip.
        assert model.batches[0][0].n == 1
        assert batcher.ticks >= 2

    def test_retire_completes_a_tick(self, cyclists):
        """When the last stepping chain finishes, parked chains must not
        wait for it — its retirement flushes the tick."""
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        batcher = batcher_for(model)
        engines = engines_for(model, cyclists, "who ranked first?", 2)
        results = asyncio.run(run_population(batcher, engines))
        # Chain 2 answered on tick 1 and retired; chain 1 (the SQL
        # chain) parked its second call, and the retirement of chain 2
        # let that single-member tick flush.
        assert [r.answer for r in results] == [["42"], ["42"]]
        assert results[0].iterations == 2 and results[1].iterations == 1


class TestFailureAndCancellation:
    def test_failing_tick_raises_in_every_parked_chain(self, cyclists):
        class FailingModel(LanguageModel):
            name = "failing"
            supports_logprobs = False

            def complete(self, prompt, *, temperature=0.0, n=1):
                raise TransientModelError("backend down")

        model = FailingModel()
        batcher = batcher_for(model)
        engines = engines_for(model, cyclists, "who ranked first?", 2)

        async def scenario():
            for _ in engines:
                batcher.admit()
            return await asyncio.gather(
                *(drive_chain(e, batcher, pre_admitted=True)
                  for e in engines),
                return_exceptions=True)

        results = asyncio.run(scenario())
        assert all(isinstance(r, TransientModelError) for r in results)
        # Accounting drained cleanly: no stuck steppers.
        assert batcher.population == 0

    def test_cancelled_chain_does_not_wedge_the_population(self, cyclists):
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        batcher = batcher_for(model)

        async def scenario():
            survivor, victim = engines_for(
                model, cyclists, "who ranked first?", 2)
            batcher.admit()
            batcher.admit()
            survivor_task = asyncio.create_task(
                drive_chain(survivor, batcher, pre_admitted=True))
            victim_task = asyncio.create_task(
                drive_chain(victim, batcher, pre_admitted=True))
            await asyncio.sleep(0)          # both park; tick 1 launches
            victim_task.cancel()
            result = await survivor_task
            with pytest.raises(asyncio.CancelledError):
                await victim_task
            return result

        result = asyncio.run(scenario())
        # The survivor still completed its (multi-tick) chain.
        assert result.answer == ["42"]
        assert batcher.population == 0

    def test_underflow_is_a_protocol_error(self):
        batcher = batcher_for(ScriptedModel([]))
        with pytest.raises(EngineProtocolError):
            batcher.retire()


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
        batcher = batcher_for(model)
        results = asyncio.run(run_population(
            batcher, engines_for(model, cyclists, "who ranked first?", 2)))
        assert results[0].answer == ["42"] and not results[0].forced
        assert results[1].answer == ["42"] and results[1].forced
        assert results[1].handling_events == [
            "empty completion batch; forcing answer"]


class TestDirectCalls:
    def test_call_outside_a_population_is_a_tick_of_one(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER]))
        batcher = batcher_for(model)

        async def scenario():
            batcher.admit()
            try:
                return await batcher.call(ModelCall(
                    prompt="who ranked first?", temperature=0.0, n=1,
                    iteration=1, forced=False))
            finally:
                batcher.retire()

        result = asyncio.run(scenario())
        assert len(result.completions) == 1
        assert batcher.ticks == 1
