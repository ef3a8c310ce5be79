"""Tests for drive_chain / AsyncChainDriver: lock-step determinism.

The async driver's contract is stronger than "same answers": with a
static engine population it must reproduce the lock-step reference's
*ticks* (``tests/engine/lockstep.py``) — the same ``complete_batch``
call sequence reaching the model — which makes even sampled
(temperature > 0) chains bit-identical across the two drivers.
"""

import asyncio

import pytest

from repro.aio import AsyncChainDriver
from repro.core.agent import ReActTableAgent
from repro.core.voting import SimpleMajorityVoting
from repro.executors.registry import default_registry
from repro.llm import SimulatedTQAModel, get_profile
from tests.engine.lockstep import LockStepDriver


def fresh_model(bench, seed):
    return SimulatedTQAModel(bench.bank, get_profile("codex-sim"),
                             seed=seed)


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
        results = AsyncChainDriver(model, default_registry()).run_sync(
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
        driver = AsyncChainDriver(model_b, registry)
        results = driver.run_sync(
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
        driver = AsyncChainDriver(model_b, registry)
        results = driver.run_sync([
            agent_b.engine_for(ex.table, ex.question) for ex in examples])

        assert [r.answer for r in expected] == [r.answer for r in results]
        assert lockstep.ticks == driver.ticks
        assert lockstep.requests == driver.requests


class TestDriverSurface:
    def test_requires_model_or_handler(self):
        with pytest.raises(ValueError):
            AsyncChainDriver()

    def test_empty_engine_list(self, wikitq_small):
        driver = AsyncChainDriver(fresh_model(wikitq_small, 1),
                                  default_registry())
        assert driver.run_sync([]) == []
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
