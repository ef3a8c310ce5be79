"""Tests for the batched chain driver, ``AsyncChainDriver.run_sync``.

Covers the coalescing mechanics (identical pending prompts merge into
one request), the greedy-equivalence contract (temperature-0 chains are
bit-identical to the sequential driver), the s-vote ``use_scheduler``
path, the mis-sized-batch absorption contract, and the serving-pool
``batch_scheduler`` wiring.
"""

from repro.aio import AsyncChainDriver
from repro.core.agent import ReActTableAgent
from repro.core.voting import SimpleMajorityVoting
from repro.executors.registry import default_registry
from repro.llm import SimulatedTQAModel, get_profile
from repro.llm.base import Completion, LanguageModel, ScriptedModel
from repro.serving import AgentSpec, WorkerPool

ANSWER = "ReAcTable: Answer: ```42```."
SQL = "ReAcTable: SQL: ```SELECT * FROM T0;```."


class TrackingModel(LanguageModel):
    """Wraps a model and records every batched round-trip it serves."""

    name = "tracking"
    supports_logprobs = False

    def __init__(self, inner):
        self.inner = inner
        self.batches = []          # one list of requests per tick
        self.complete_calls = 0

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.complete_calls += 1
        return self.inner.complete(prompt, temperature=temperature, n=n)

    def complete_batch(self, requests):
        self.batches.append(list(requests))
        return super().complete_batch(requests)


def engines_for(model, table, question, count, **agent_kwargs):
    agent = ReActTableAgent(model, **agent_kwargs)
    return [agent.engine_for(table, question) for _ in range(count)]


class TestCoalescing:
    def test_identical_prompts_merge_into_one_request(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER] * 3))
        driver = AsyncChainDriver(model, default_registry())
        results = driver.run_sync(
            engines_for(model, cyclists, "who ranked first?", 3))
        assert [r.answer for r in results] == [["42"]] * 3
        # Three chains, one tick, ONE coalesced request of n=3.
        assert driver.ticks == 1 and driver.requests == 1
        assert len(model.batches) == 1
        (request,) = model.batches[0]
        assert request.n == 3
        assert model.complete_calls == 1

    def test_distinct_prompts_stay_separate(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER, ANSWER]))
        driver = AsyncChainDriver(model, default_registry())
        agent = ReActTableAgent(model)
        engines = [agent.engine_for(cyclists, "who ranked first?"),
                   agent.engine_for(cyclists, "which team won?")]
        driver.run_sync(engines)
        assert driver.ticks == 1 and driver.requests == 2
        assert [req.n for req in model.batches[0]] == [1, 1]

    def test_chains_desync_and_recoalesce(self, cyclists):
        # One chain takes a code step, the other answers immediately;
        # the survivor keeps running alone on later ticks.
        model = TrackingModel(ScriptedModel([SQL, ANSWER, ANSWER]))
        driver = AsyncChainDriver(model, default_registry())
        results = driver.run_sync(
            engines_for(model, cyclists, "who ranked first?", 2))
        assert driver.ticks == 2
        # Tick 1: one coalesced request (n=2). Tick 2: the SQL chain only.
        assert [len(batch) for batch in model.batches] == [1, 1]
        assert model.batches[0][0].n == 2
        assert model.batches[1][0].n == 1
        assert [r.answer for r in results] == [["42"], ["42"]]
        assert results[0].iterations == 2 and results[1].iterations == 1


class TestGreedyEquivalence:
    def test_greedy_chains_bit_identical_to_sequential(self, wikitq_small):
        """Temperature-0 chains are draw-free: the driver must produce
        exactly the sequential driver's results, question by question."""
        examples = wikitq_small.examples[:20]
        sequential_model = SimulatedTQAModel(
            wikitq_small.bank, get_profile("codex-sim"), seed=7)
        sequential = ReActTableAgent(sequential_model)
        expected = [sequential.run(ex.table, ex.question)
                    for ex in examples]

        batched_model = SimulatedTQAModel(
            wikitq_small.bank, get_profile("codex-sim"), seed=7)
        agent = ReActTableAgent(batched_model)
        engines = [agent.engine_for(ex.table, ex.question)
                   for ex in examples]
        results = AsyncChainDriver(batched_model,
                                   default_registry()).run_sync(engines)

        for old, new in zip(expected, results):
            assert new.answer == old.answer
            assert new.iterations == old.iterations
            assert new.forced == old.forced
            assert new.handling_events == old.handling_events


class TestScheduledVoting:
    def test_svote_scheduler_matches_sequential_at_zero_temp(
            self, wikitq_small):
        examples = wikitq_small.examples[:6]
        for use_scheduler in (False, True):
            model = SimulatedTQAModel(
                wikitq_small.bank, get_profile("codex-sim"), seed=3)
            voter = SimpleMajorityVoting(
                model, n=3, temperature=0.0,
                use_scheduler=use_scheduler)
            run = [voter.run(ex.table, ex.question) for ex in examples]
            if use_scheduler:
                scheduled = run
            else:
                sequential = run
        for old, new in zip(sequential, scheduled):
            assert new.answer == old.answer
            assert new.votes == old.votes
            assert new.num_chains == old.num_chains

    def test_svote_scheduler_batches_calls(self, cyclists):
        model = TrackingModel(ScriptedModel([ANSWER] * 3))
        voter = SimpleMajorityVoting(model, n=3, temperature=0.0,
                                     use_scheduler=True)
        result = voter.run(cyclists, "who ranked first?")
        assert result.answer == ["42"]
        assert result.votes == {"42": 3}
        assert model.complete_calls == 1   # 3 chains, 1 coalesced call


class TestMisSizedBatch:
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
        driver = AsyncChainDriver(model, default_registry())
        results = driver.run_sync(
            engines_for(model, cyclists, "who ranked first?", 2))
        # The first chain got its completion; the starved tail chain fell
        # onto the forcing ladder and recovered on the next tick.
        assert results[0].answer == ["42"] and not results[0].forced
        assert results[1].answer == ["42"] and results[1].forced
        assert results[1].handling_events == [
            "empty completion batch; forcing answer"]


class TestServingWiring:
    def test_pool_flag_enables_scheduler_on_voted_runners(
            self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank, voting="s-vote",
                         samples=3)
        example = wikitq_small.examples[0]
        pool = WorkerPool(spec, workers=1, batch_scheduler=True)
        runner = spec.build(0)
        assert hasattr(runner, "use_scheduler")
        assert runner.use_scheduler is False
        with pool:
            response = pool.submit(example.table,
                                   example.question).result(timeout=30)
        assert response.answer is not None
        assert pool.batch_scheduler is True

    def test_pool_scheduler_results_match_unscheduled(self, wikitq_small):
        examples = wikitq_small.examples[:4]
        spec = AgentSpec(bank=wikitq_small.bank, voting="s-vote",
                         samples=3, temperature=0.0)
        answers = {}
        for flag in (False, True):
            with WorkerPool(spec, workers=1,
                            batch_scheduler=flag) as pool:
                slots = [pool.submit(ex.table, ex.question, seed=2)
                         for ex in examples]
                answers[flag] = [s.result(timeout=30).answer
                                 for s in slots]
        # Greedy chains are draw-free, so the batched pool answers match.
        assert answers[True] == answers[False]
