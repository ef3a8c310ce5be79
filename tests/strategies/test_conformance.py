"""Strategy conformance: every registered strategy, both serving ladders.

The strategy layer's core claim is substitutability — any registered
strategy rides the full serving stack with no strategy-specific code in
the ladders.  This suite pins that claim on a
40-question seeded WikiTQ slice, per strategy:

* **ok** — the thread-pool ladder (:class:`BatchEvaluator`) and the
  asyncio ladder (:class:`AsyncBatchEvaluator`) return bit-identical
  responses, all classified ``ok``;
* **degraded** — expired deadlines land every request on the forced
  direct answer, identically on both ladders;
* **deadline_exceeded** — with degradation disabled the terminal class
  is reported, with no answer;
* **fault-injected** — under a 20% per-call fault rate every request
  still terminates with a classified outcome on both ladders.
"""

import pytest

from repro.aio import AsyncBatchEvaluator
from repro.faults import FaultConfig, FaultyAgentSpec
from repro.serving import (
    AgentSpec,
    BatchEvaluator,
    RetryPolicy,
)
from repro.serving.request import OUTCOMES
from repro.strategies import strategy_names

#: Every registered strategy — the full vocabulary `AgentSpec.strategy`
#: accepts.
each_strategy = pytest.mark.parametrize("strategy", strategy_names())


def pool_responses(spec, benchmark, *, policy=None, limit=None):
    evaluator = BatchEvaluator(spec, workers=4, seed=1, policy=policy)
    report = evaluator.evaluate(benchmark, limit=limit)
    return report, evaluator.last_responses


def async_responses(spec, benchmark, *, policy=None, limit=None):
    evaluator = AsyncBatchEvaluator(spec, max_inflight=8, seed=1,
                                    policy=policy)
    report = evaluator.evaluate(benchmark, limit=limit)
    return report, evaluator.last_responses


def assert_bit_identical(pool, async_, *, check_errors=True):
    assert len(pool) == len(async_)
    for old, new in zip(pool, async_):
        assert new.uid == old.uid
        assert new.answer == old.answer, new.uid
        assert new.iterations == old.iterations, new.uid
        assert new.forced == old.forced, new.uid
        assert new.degraded == old.degraded, new.uid
        assert new.attempts == old.attempts, new.uid
        assert new.outcome == old.outcome, new.uid
        if check_errors:
            assert new.error == old.error, new.uid


class TestOkOutcomes:
    @each_strategy
    def test_both_ladders_bit_identical(self, wikitq_small, strategy):
        spec = AgentSpec(bank=wikitq_small.bank, strategy=strategy)
        pool_report, pool = pool_responses(spec, wikitq_small)
        async_report, async_ = async_responses(spec, wikitq_small)
        assert_bit_identical(pool, async_)
        assert {r.outcome for r in pool} == {"ok"}
        assert pool_report.accuracy == async_report.accuracy
        # A conformant strategy answers: accuracy above chance, not a
        # silent all-empty run.
        assert pool_report.accuracy > 0
        assert any(r.answer for r in pool)


class TestDegradedOutcomes:
    @each_strategy
    def test_expired_deadlines_degrade_identically(self, wikitq_small,
                                                   strategy):
        spec = AgentSpec(bank=wikitq_small.bank, strategy=strategy)
        policy = RetryPolicy(timeout=1e-9, max_retries=1)
        _, pool = pool_responses(spec, wikitq_small, policy=policy,
                                 limit=10)
        _, async_ = async_responses(spec, wikitq_small, policy=policy,
                                    limit=10)
        # Timeout error strings embed wall-clock remaining time.
        assert_bit_identical(pool, async_, check_errors=False)
        assert {r.outcome for r in pool} == {"degraded"}
        assert all(r.attempts == 2 for r in pool)
        # The forced rung is the react chain regardless of strategy:
        # one iteration, forced direct answer.
        assert all(r.forced for r in pool)


class TestDeadlineExceeded:
    @each_strategy
    def test_terminal_class_with_no_answer(self, wikitq_small, strategy):
        spec = AgentSpec(bank=wikitq_small.bank, strategy=strategy)
        policy = RetryPolicy(timeout=1e-9, max_retries=0,
                             degrade_on_exhaustion=False)
        _, pool = pool_responses(spec, wikitq_small, policy=policy,
                                 limit=10)
        _, async_ = async_responses(spec, wikitq_small, policy=policy,
                                    limit=10)
        assert_bit_identical(pool, async_, check_errors=False)
        assert {r.outcome for r in pool} == {"deadline_exceeded"}
        assert all(r.answer == [] for r in pool)


class TestFaultInjected:
    @each_strategy
    def test_heavy_faults_terminate_classified_on_both_ladders(
            self, wikitq_small, strategy):
        spec = FaultyAgentSpec(
            AgentSpec(bank=wikitq_small.bank, strategy=strategy),
            FaultConfig.uniform(0.2, latency_seconds=0.0),
            model_retries=2)
        policy = RetryPolicy(max_retries=2)
        _, pool = pool_responses(spec, wikitq_small, policy=policy,
                                 limit=10)
        _, async_ = async_responses(spec, wikitq_small, policy=policy,
                                    limit=10)
        assert len(pool) == 10 and len(async_) == 10
        assert all(r.outcome in OUTCOMES for r in pool + async_)
        # Fault plans are seeded per attempt, independent of substrate:
        # both ladders weather the same storm identically.
        assert_bit_identical(pool, async_, check_errors=False)
