"""Differential parity: AsyncServer vs WorkerPool, response for response.

The async serving core replaces the thread pool's substrate, not its
semantics.  For every request the two paths must return bit-identical
responses — same answers, iterations, forcing flags, handling events,
attempt counts, error strings and outcome classes — across the whole
outcome taxonomy: ``ok``, ``reflected``, ``degraded``,
``deadline_exceeded`` and both error classes, and across every voter.
(``rejected`` is async-only by design — the pool buffers instead of
shedding — and is pinned separately below.)  Every request runs on the
event loop: none needs a worker thread.
"""

import asyncio

import pytest

from repro.aio import AsyncServer
from repro.core import ReActTableAgent
from repro.datasets import generate_dataset
from repro.errors import TransientModelError
from repro.llm.base import LanguageModel, ScriptedModel
from repro.serving import (
    AgentSpec,
    RetryPolicy,
    TQARequest,
    WorkerPool,
)
from repro.serving.request import OUTCOMES


@pytest.fixture(scope="module")
def wikitq_parity():
    """The 200+ question differential suite (seeded, module-cached)."""
    return generate_dataset("wikitq", size=220, seed=77)


@pytest.fixture(scope="module")
def tabfact_parity():
    return generate_dataset("tabfact", size=120, seed=77)


def pool_responses(spec, bench, *, policy=None, batch_scheduler=False,
                   workers=8, seed=1, reflect=None):
    with WorkerPool(spec, workers=workers, policy=policy,
                    batch_scheduler=batch_scheduler,
                    queue_capacity=1024, reflect=reflect,
                    sleep=lambda _delay: None) as pool:
        slots = [pool.submit(ex.table, ex.question, seed=seed, uid=ex.uid)
                 for ex in bench.examples]
        return [slot.result(timeout=60) for slot in slots]


def async_responses(spec, bench, *, policy=None, max_inflight=16, seed=1,
                    reflect=None):
    async def _sleep(_delay):
        return None

    async def scenario():
        async with AsyncServer(spec, max_inflight=max_inflight,
                               max_queued=None, policy=policy,
                               reflect=reflect, sleep=_sleep) as server:
            tasks = [asyncio.create_task(server.answer(TQARequest(
                table=ex.table, question=ex.question, seed=seed,
                uid=ex.uid))) for ex in bench.examples]
            return await asyncio.gather(*tasks)

    return asyncio.run(scenario())


def assert_bit_identical(pool, async_, *, check_errors=True):
    assert len(pool) == len(async_)
    for old, new in zip(pool, async_):
        assert new.uid == old.uid
        assert new.answer == old.answer, new.uid
        assert new.iterations == old.iterations, new.uid
        assert new.forced == old.forced, new.uid
        assert new.handling_events == old.handling_events, new.uid
        assert new.degraded == old.degraded, new.uid
        assert new.attempts == old.attempts, new.uid
        assert new.outcome == old.outcome, new.uid
        if check_errors:
            assert new.error == old.error, new.uid


class TestHealthyParity:
    def test_greedy_suite_bit_identical(self, wikitq_parity):
        """220 greedy questions: substrate swap, zero drift."""
        spec = AgentSpec(bank=wikitq_parity.bank)
        expected = pool_responses(spec, wikitq_parity)
        actual = async_responses(spec, wikitq_parity)
        assert_bit_identical(expected, actual)
        assert {r.outcome for r in actual} == {"ok"}

    def test_voted_suite_matches_scheduled_pool(self, wikitq_parity):
        """s-vote chains: the async batcher must reproduce the pool's
        ``batch_scheduler=True`` contract (coalesced ticks), which is
        always on in the async server."""
        spec = AgentSpec(bank=wikitq_parity.bank, voting="s-vote",
                         samples=3)
        subset = type(wikitq_parity)(
            name=wikitq_parity.name, examples=wikitq_parity.examples[:40],
            bank=wikitq_parity.bank)
        expected = pool_responses(spec, subset, batch_scheduler=True)
        actual = async_responses(spec, subset)
        assert_bit_identical(expected, actual)


class TestBranchingVoterParity:
    """Tree and execution voting: one round trip per branch or step, in
    the same order on both servers, so the same draws and votes."""

    @pytest.mark.parametrize("voting", ["t-vote", "e-vote"])
    @pytest.mark.parametrize("suite", ["wikitq_parity", "tabfact_parity"])
    def test_suite_bit_identical(self, voting, suite, request):
        bench = request.getfixturevalue(suite)
        spec = AgentSpec(bank=bench.bank, voting=voting)
        expected = pool_responses(spec, bench)
        actual = async_responses(spec, bench)
        assert_bit_identical(expected, actual)
        assert {r.outcome for r in actual} == {"ok"}

    @pytest.mark.parametrize("voting", ["t-vote", "e-vote"])
    @pytest.mark.parametrize("suite", ["wikitq_small", "tabfact_small"])
    def test_expired_deadlines_degrade_identically(self, voting, suite,
                                                   request):
        bench = request.getfixturevalue(suite)
        spec = AgentSpec(bank=bench.bank, voting=voting)
        policy = RetryPolicy(timeout=1e-9, max_retries=1)
        expected = pool_responses(spec, bench, policy=policy, workers=4)
        actual = async_responses(spec, bench, policy=policy,
                                 max_inflight=8)
        assert_bit_identical(expected, actual, check_errors=False)
        assert {r.outcome for r in actual} == {"degraded"}


class TestNothingLeavesTheLoop:
    def test_no_request_needs_a_thread(self, wikitq_small, monkeypatch):
        """Voted, reflected and degraded requests all run on the event
        loop: with ``asyncio.to_thread`` refusing, the async server still
        answers as the pool does."""
        def refuse(*args, **kwargs):
            raise AssertionError("work handed to a thread")

        monkeypatch.setattr(asyncio, "to_thread", refuse)
        bank = wikitq_small.bank
        cases = [
            (AgentSpec(bank=bank, voting="t-vote"), {}, {"ok"}),
            (AgentSpec(bank=bank, voting="e-vote"), {}, {"ok"}),
            (AgentSpec(bank=bank), {"reflect": True}, {"ok", "reflected"}),
            (AgentSpec(bank=bank, voting="t-vote"),
             {"policy": RetryPolicy(timeout=1e-9, max_retries=0)},
             {"degraded"}),
        ]
        for spec, kwargs, outcomes in cases:
            expected = pool_responses(spec, wikitq_small, workers=4,
                                      **kwargs)
            actual = async_responses(spec, wikitq_small, max_inflight=8,
                                     **kwargs)
            assert_bit_identical(expected, actual, check_errors=False)
            assert {r.outcome for r in actual} == outcomes


class TestDegradedParity:
    def test_expired_deadlines_degrade_identically(self, wikitq_small):
        """Every attempt times out on both substrates; both land on the
        same forced direct answer from ``build_forced(request.seed)``."""
        spec = AgentSpec(bank=wikitq_small.bank)
        policy = RetryPolicy(timeout=1e-9, max_retries=1)
        expected = pool_responses(spec, wikitq_small, policy=policy,
                                  workers=4)
        actual = async_responses(spec, wikitq_small, policy=policy,
                                 max_inflight=8)
        # Timeout error strings embed wall-clock remaining time; compare
        # everything else bit-for-bit.
        assert_bit_identical(expected, actual, check_errors=False)
        assert {r.outcome for r in actual} == {"degraded"}
        assert all(r.attempts == 2 for r in actual)

    def test_deadline_exceeded_identically(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        policy = RetryPolicy(timeout=1e-9, max_retries=0,
                             degrade_on_exhaustion=False)
        expected = pool_responses(spec, wikitq_small, policy=policy,
                                  workers=4)
        actual = async_responses(spec, wikitq_small, policy=policy,
                                 max_inflight=8)
        assert_bit_identical(expected, actual, check_errors=False)
        assert {r.outcome for r in actual} == {"deadline_exceeded"}
        assert all(r.answer == [] for r in actual)


class _TransientSpec:
    """Agents whose model always fails with a retryable error."""

    config_key = "transient-stub"

    class _Model(LanguageModel):
        name = "transient"
        supports_logprobs = False

        def complete(self, prompt, *, temperature=0.0, n=1):
            raise TransientModelError("backend down")

    def build(self, seed):
        return ReActTableAgent(self._Model())

    def build_forced(self, seed):
        return ReActTableAgent(self._Model(), max_iterations=1)


class _BrokenSpec:
    """A spec whose builds fail outright (permanent error class)."""

    config_key = "broken-stub"

    def build(self, seed):
        raise RuntimeError("cannot build agent")

    build_forced = build


class TestErrorClassParity:
    def test_transient_errors_classified_identically(self, wikitq_small):
        spec = _TransientSpec()
        policy = RetryPolicy(max_retries=2, degrade_on_exhaustion=False)
        expected = pool_responses(spec, wikitq_small, policy=policy,
                                  workers=4)
        actual = async_responses(spec, wikitq_small, policy=policy,
                                 max_inflight=8)
        assert_bit_identical(expected, actual)
        assert {r.outcome for r in actual} == {"error_transient"}
        assert all(r.attempts == 3 for r in actual)

    def test_permanent_errors_classified_identically(self, wikitq_small):
        spec = _BrokenSpec()
        policy = RetryPolicy(max_retries=0)
        expected = pool_responses(spec, wikitq_small, policy=policy,
                                  workers=4)
        actual = async_responses(spec, wikitq_small, policy=policy,
                                 max_inflight=8)
        assert_bit_identical(expected, actual)
        assert {r.outcome for r in actual} == {"error_permanent"}


class TestRejectedClass:
    def test_rejection_is_a_registered_classified_outcome(self,
                                                          wikitq_small):
        """The async-only outcome still speaks the shared taxonomy: it
        is in OUTCOMES, carries no answer, burned no attempts."""
        assert "rejected" in OUTCOMES
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=1,
                                   max_queued=0) as server:
                tasks = [asyncio.create_task(server.answer(TQARequest(
                    table=ex.table, question=ex.question, seed=1,
                    uid=ex.uid))) for ex in wikitq_small.examples[:8]]
                return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        rejected = [r for r in responses if r.outcome == "rejected"]
        assert rejected
        for r in rejected:
            assert r.answer == [] and r.attempts == 0 and r.error
