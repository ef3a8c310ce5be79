"""Tests for the retry policy and the attempt deadline on the handler."""

import asyncio

import pytest

from repro.aio import AsyncEffectHandler
from repro.engine import EffectHandler
from repro.errors import ServingTimeoutError
from repro.executors import default_registry
from repro.llm.base import Completion, CompletionRequest, LanguageModel
from repro.retry import ExponentialBackoff
from repro.serving import RetryPolicy


class InstantModel(LanguageModel):
    """Answers immediately; records how often it was called."""

    name = "instant"
    supports_logprobs = False

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.calls += 1
        return [Completion("ReAcTable: Answer: ```ok```.")] * n


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.timeout is None
        assert policy.max_attempts == 2
        assert policy.degrade_on_exhaustion

    def test_attempt_seeds_deterministic_and_distinct(self):
        policy = RetryPolicy(max_retries=2)
        seeds = [policy.attempt_seed(5, attempt) for attempt in range(3)]
        assert seeds[0] == 5
        assert len(set(seeds)) == 3
        assert seeds == [policy.attempt_seed(5, a) for a in range(3)]

    def test_deadline_from_timeout(self):
        now = [100.0]
        policy = RetryPolicy(timeout=2.0)
        assert policy.deadline(clock=lambda: now[0]) == 102.0
        assert RetryPolicy().deadline(clock=lambda: now[0]) is None

    def test_attempt_seeds_collision_free_across_requests(self):
        # A batch of adjacent request seeds retrying a few times must
        # never land two attempts on the same effective seed — that
        # would make two "independent" retries identical.
        policy = RetryPolicy(max_retries=3)
        seeds = [policy.attempt_seed(base, attempt)
                 for base in range(64)
                 for attempt in range(policy.max_attempts)]
        assert len(seeds) == len(set(seeds))

    def test_backoff_delay_none_is_zero(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.backoff_delay(5, 0) == 0.0
        assert policy.backoff_delay(5, 1) == 0.0

    def test_backoff_delay_deterministic_and_growing(self):
        backoff = ExponentialBackoff(base=0.1, factor=2.0,
                                     max_delay=10.0, jitter=0.0)
        policy = RetryPolicy(max_retries=3, backoff=backoff)
        delays = [policy.backoff_delay(5, a) for a in range(3)]
        assert delays == [0.1, 0.2, 0.4]
        assert delays == [policy.backoff_delay(5, a) for a in range(3)]

    def test_backoff_delay_jitter_seeded_by_request(self):
        backoff = ExponentialBackoff(base=0.1, jitter=0.5)
        policy = RetryPolicy(max_retries=2, backoff=backoff)
        # Same request seed → same delay; different seeds de-synchronise.
        assert policy.backoff_delay(5, 1) == policy.backoff_delay(5, 1)
        assert policy.backoff_delay(5, 1) != policy.backoff_delay(6, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


def round_trip(handler_class, inner, clock):
    """One ``model_batch`` through a handler whose deadline is 10.0."""
    handler = handler_class(inner, default_registry(), deadline=10.0,
                            clock=clock)
    batches = handler.model_batch([CompletionRequest(prompt="p")])
    if handler_class is AsyncEffectHandler:
        return asyncio.run(batches)
    return batches


@pytest.mark.parametrize("handler_class", [EffectHandler,
                                           AsyncEffectHandler],
                         ids=["sync", "awaited"])
class TestHandlerDeadline:
    def test_passes_through_before_deadline(self, handler_class):
        inner = InstantModel()
        now = [0.0]
        (batch,) = round_trip(handler_class, inner, lambda: now[0])
        assert batch[0].text.endswith("```ok```.")
        assert inner.calls == 1

    def test_refuses_after_deadline(self, handler_class):
        inner = InstantModel()
        now = [11.0]
        with pytest.raises(ServingTimeoutError):
            round_trip(handler_class, inner, lambda: now[0])
        assert inner.calls == 0   # refused before calling the model

    def test_catches_slow_completion(self, handler_class):
        inner = InstantModel()
        ticks = iter([9.0, 12.0])   # before-check passes, after-check fails
        with pytest.raises(ServingTimeoutError):
            round_trip(handler_class, inner, lambda: next(ticks))
        assert inner.calls == 1
