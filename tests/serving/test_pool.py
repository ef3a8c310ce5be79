"""Tests for the worker pool: correctness, caching, coalescing, policy."""

import dataclasses
import threading
import time

import pytest

from repro.core import ReActTableAgent
from repro.datasets.spec import QuestionBank
from repro.errors import QueueClosedError, ServingError, TransientModelError
from repro.executors import default_registry
from repro.llm import SimulatedTQAModel, get_profile
from repro.llm.base import Completion, LanguageModel, ScriptedModel
from repro.retry import ExponentialBackoff
from repro.serving import (
    AgentSpec,
    AnswerCache,
    BreakerConfig,
    RetryPolicy,
    ServingMetrics,
    WorkerPool,
)
from repro.table import DataFrame
from repro.tracing import ChainTracer

ANSWER = "ReAcTable: Answer: ```ok```."


class BlockingModel(LanguageModel):
    """Blocks inside ``complete`` until released; flags when entered."""

    name = "blocking"
    supports_logprobs = False

    def __init__(self, entered: threading.Event,
                 release: threading.Event):
        self.entered = entered
        self.release = release

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.entered.set()
        assert self.release.wait(10)
        return [Completion(ANSWER)] * n


class SleepyModel(LanguageModel):
    """Sleeps longer than any test deadline before answering."""

    name = "sleepy"
    supports_logprobs = False

    def complete(self, prompt, *, temperature=0.0, n=1):
        time.sleep(0.05)
        return [Completion(ANSWER)] * n


class StubSpec:
    """Spec stub whose agents run a caller-provided model factory."""

    def __init__(self, model_factory, config_key="stub"):
        self.model_factory = model_factory
        self.config_key = config_key
        self.built_seeds = []

    def build(self, seed):
        self.built_seeds.append(seed)
        return ReActTableAgent(self.model_factory())

    def build_forced(self, seed):
        return ReActTableAgent(
            ScriptedModel(["ReAcTable: Answer: ```degraded```."]),
            max_iterations=1)


class FailingSpec(StubSpec):
    def build(self, seed):
        raise RuntimeError("cannot build agent")


@pytest.fixture()
def spec(wikitq_small):
    return AgentSpec(bank=wikitq_small.bank)


class TestPoolCorrectness:
    def test_matches_sequential_agent(self, wikitq_small, spec):
        examples = wikitq_small.examples[:8]
        sequential = ReActTableAgent(
            SimulatedTQAModel(wikitq_small.bank,
                              get_profile("codex-sim"), seed=1))
        expected = [sequential.run(ex.table, ex.question)
                    for ex in examples]
        with WorkerPool(spec, workers=4) as pool:
            slots = [pool.submit(ex.table, ex.question, seed=1,
                                 uid=ex.uid) for ex in examples]
            responses = [slot.result(timeout=30) for slot in slots]
        for result, response in zip(expected, responses):
            assert response.answer == result.answer
            assert response.iterations == result.iterations
            assert response.forced == result.forced
            assert response.handling_events == result.handling_events

    def test_responses_keep_request_uids(self, wikitq_small, spec):
        example = wikitq_small.examples[0]
        with WorkerPool(spec, workers=2) as pool:
            slot = pool.submit(example.table, example.question,
                               uid="my-uid")
            assert slot.result(timeout=30).uid == "my-uid"

    def test_submit_before_start_raises(self, wikitq_small, spec):
        pool = WorkerPool(spec, workers=1)
        example = wikitq_small.examples[0]
        with pytest.raises(ServingError):
            pool.submit(example.table, example.question)


class TestPoolCaching:
    def test_resubmission_hits_cache(self, wikitq_small, spec):
        example = wikitq_small.examples[0]
        cache = AnswerCache(16)
        metrics = ServingMetrics()
        with WorkerPool(spec, workers=1, cache=cache,
                        metrics=metrics) as pool:
            first = pool.submit(example.table, example.question,
                                seed=1).result(timeout=30)
            second = pool.submit(example.table, example.question,
                                 seed=1).result(timeout=30)
        assert not first.cached and second.cached
        assert second.answer == first.answer
        assert second.iterations == first.iterations
        assert cache.hits == 1 and cache.misses == 1
        assert metrics.cache_hits == 1

    def test_different_seeds_do_not_share_entries(self, wikitq_small,
                                                  spec):
        example = wikitq_small.examples[0]
        cache = AnswerCache(16)
        with WorkerPool(spec, workers=1, cache=cache) as pool:
            pool.submit(example.table, example.question,
                        seed=1).result(timeout=30)
            second = pool.submit(example.table, example.question,
                                 seed=2).result(timeout=30)
        assert not second.cached
        assert len(cache) == 2

    def test_inflight_duplicates_coalesce(self, tiny_frame):
        entered = threading.Event()
        release = threading.Event()
        spec = StubSpec(lambda: BlockingModel(entered, release))
        metrics = ServingMetrics()
        with WorkerPool(spec, workers=1, cache=AnswerCache(16),
                        metrics=metrics) as pool:
            primary = pool.submit(tiny_frame, "same question?", seed=0)
            assert entered.wait(10)   # worker is inside the chain
            duplicate = pool.submit(tiny_frame, "same question?", seed=0)
            release.set()
            first = primary.result(timeout=30)
            second = duplicate.result(timeout=30)
        assert not first.coalesced
        assert second.coalesced and second.cached
        assert second.answer == first.answer
        assert metrics.coalesced == 1
        # The duplicate never ran a chain of its own.
        assert len(spec.built_seeds) == 1

    def test_duplicate_of_a_primary_refused_at_shutdown_resolves(
            self, tiny_frame):
        """A primary still waiting for queue room is refused when the
        queue closes; a duplicate coalesced onto it gets that refusal
        instead of waiting forever."""
        entered = threading.Event()
        release = threading.Event()
        spec = StubSpec(lambda: BlockingModel(entered, release))
        pool = WorkerPool(spec, workers=1, queue_capacity=1,
                          cache=AnswerCache(16)).start()
        refused = []

        def submit_into_full_queue():
            try:
                pool.submit(tiny_frame, "third?")
            except QueueClosedError as exc:
                refused.append(exc)

        try:
            pool.submit(tiny_frame, "first?")
            assert entered.wait(10)        # the worker is busy
            pool.submit(tiny_frame, "second?")     # the queue is full
            blocked = threading.Thread(target=submit_into_full_queue)
            blocked.start()
            deadline = time.monotonic() + 10
            while len(pool._inflight) < 3:         # "third?" registered
                assert time.monotonic() < deadline
                time.sleep(0.001)
            duplicate = pool.submit(tiny_frame, "third?")
            pool.queue.close()
            blocked.join(10)
            response = duplicate.result(timeout=3)
        finally:
            release.set()
            pool.shutdown(wait=True)
        assert len(refused) == 1
        assert response.coalesced
        assert response.outcome == "error_permanent"
        assert response.error == "QueueClosedError: queue is closed"


class TestPoolPolicy:
    def test_timeout_retries_then_degrades(self, tiny_frame):
        spec = StubSpec(SleepyModel)
        metrics = ServingMetrics()
        policy = RetryPolicy(timeout=0.005, max_retries=2)
        with WorkerPool(spec, workers=1, policy=policy,
                        metrics=metrics) as pool:
            response = pool.submit(tiny_frame,
                                   "slow?").result(timeout=30)
        assert response.degraded and response.forced
        assert response.answer == ["degraded"]
        assert response.attempts == 3
        assert metrics.timeouts == 3
        assert metrics.retries == 2
        assert metrics.degraded == 1
        # Each attempt reseeded deterministically.
        assert spec.built_seeds == [policy.attempt_seed(0, a)
                                    for a in range(3)]

    def test_degraded_answers_are_not_cached(self, tiny_frame):
        spec = StubSpec(SleepyModel)
        cache = AnswerCache(16)
        policy = RetryPolicy(timeout=0.005, max_retries=0)
        with WorkerPool(spec, workers=1, cache=cache,
                        policy=policy) as pool:
            pool.submit(tiny_frame, "slow?").result(timeout=30)
        assert len(cache) == 0

    def test_exhaustion_without_degradation_reports_error(self,
                                                          tiny_frame):
        spec = FailingSpec(SleepyModel)
        policy = RetryPolicy(max_retries=1, degrade_on_exhaustion=False)
        metrics = ServingMetrics()
        with WorkerPool(spec, workers=1, policy=policy,
                        metrics=metrics) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.answer == []
        assert "cannot build agent" in response.error
        assert not response.degraded
        assert metrics.errors == 1


class CrashingModel(LanguageModel):
    """Raises a transient error on every completion."""

    name = "crashing"
    supports_logprobs = False

    def complete(self, prompt, *, temperature=0.0, n=1):
        raise TransientModelError("backend down")


class TestPoolOutcomes:
    def test_clean_request_is_ok(self, tiny_frame):
        spec = StubSpec(lambda: ScriptedModel([ANSWER]))
        with WorkerPool(spec, workers=1) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.outcome == "ok"

    def test_recovered_request_is_retried(self, tiny_frame):
        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            if calls["n"] == 1:
                return CrashingModel()
            return ScriptedModel([ANSWER])

        spec = StubSpec(factory)
        with WorkerPool(spec, workers=1,
                        policy=RetryPolicy(max_retries=2)) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.outcome == "retried"
        assert response.attempts == 2

    def test_degraded_request_is_degraded(self, tiny_frame):
        spec = StubSpec(SleepyModel)
        policy = RetryPolicy(timeout=0.005, max_retries=0)
        with WorkerPool(spec, workers=1, policy=policy) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.outcome == "degraded"

    def test_terminal_failure_classified_by_taxonomy(self, tiny_frame):
        spec = StubSpec(CrashingModel)
        policy = RetryPolicy(max_retries=0,
                             degrade_on_exhaustion=False)
        with WorkerPool(spec, workers=1, policy=policy) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.outcome == "error_transient"
        permanent = FailingSpec(SleepyModel)   # RuntimeError: permanent
        with WorkerPool(permanent, workers=1, policy=policy) as pool:
            response = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert response.outcome == "error_permanent"

    def test_cached_response_outcome(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        example = wikitq_small.examples[0]
        with WorkerPool(spec, workers=1, cache=AnswerCache(4)) as pool:
            first = pool.submit(example.table, example.question,
                                seed=1).result(timeout=30)
            second = pool.submit(example.table, example.question,
                                 seed=1).result(timeout=30)
        assert first.outcome == "ok"
        assert second.outcome == "cached"


class TestPoolBackoff:
    def test_backoff_sleeps_between_attempts(self, tiny_frame):
        slept = []
        metrics = ServingMetrics()
        spec = StubSpec(CrashingModel)
        policy = RetryPolicy(
            max_retries=2,
            backoff=ExponentialBackoff(base=0.1, factor=2.0, jitter=0.0))
        with WorkerPool(spec, workers=1, policy=policy, metrics=metrics,
                        sleep=slept.append) as pool:
            pool.submit(tiny_frame, "q?").result(timeout=30)
        assert slept == [0.1, 0.2]
        snapshot = metrics.snapshot()
        assert snapshot["backoffs"] == 2
        assert snapshot["backoff_seconds"] == pytest.approx(0.3)

    def test_no_backoff_config_never_sleeps(self, tiny_frame):
        slept = []
        spec = StubSpec(CrashingModel)
        with WorkerPool(spec, workers=1,
                        policy=RetryPolicy(max_retries=2),
                        sleep=slept.append) as pool:
            pool.submit(tiny_frame, "q?").result(timeout=30)
        assert slept == []


class TestPoolBreaker:
    def test_disabled_by_default(self, tiny_frame):
        assert WorkerPool(StubSpec(SleepyModel)).breaker is None

    def test_opens_after_consecutive_failures_then_fails_fast(
            self, tiny_frame):
        metrics = ServingMetrics()
        spec = StubSpec(CrashingModel)
        policy = RetryPolicy(max_retries=0)
        with WorkerPool(spec, workers=1, policy=policy, metrics=metrics,
                        breakers=BreakerConfig(failure_threshold=2,
                                               cooldown=60.0)) as pool:
            for _ in range(2):   # two failures open the circuit
                pool.submit(tiny_frame, "q?").result(timeout=30)
            built_before = len(spec.built_seeds)
            rejected = pool.submit(tiny_frame, "q?").result(timeout=30)
        assert pool.breaker.state == "open"
        # The rejected request never built an agent: it fell straight
        # through to the degradation rung.
        assert len(spec.built_seeds) == built_before
        assert rejected.degraded
        assert rejected.attempts == 0
        assert "circuit is open" in rejected.error
        snapshot = metrics.snapshot()
        assert snapshot["breaker_opened"] == 1
        assert snapshot["breaker_rejections"] == 1

    def test_successes_keep_the_circuit_closed(self, tiny_frame):
        spec = StubSpec(lambda: ScriptedModel([ANSWER]))
        with WorkerPool(spec, workers=1,
                        breakers=BreakerConfig(failure_threshold=1,
                                               cooldown=60.0)) as pool:
            for _ in range(3):
                pool.submit(tiny_frame, "q?").result(timeout=30)
            assert pool.breaker.state == "closed"
        assert pool.breaker.snapshot()["times_opened"] == 0

    def test_breaker_uses_spec_profile_as_backend(self, wikitq_small):
        pool = WorkerPool(AgentSpec(bank=wikitq_small.bank),
                          breakers=BreakerConfig())
        assert pool.breaker.backend == "codex-sim"

    def test_breaker_events_traced(self, tiny_frame):
        tracer = ChainTracer()
        spec = StubSpec(CrashingModel)
        policy = RetryPolicy(max_retries=0)
        with WorkerPool(spec, workers=1, policy=policy, tracer=tracer,
                        breakers=BreakerConfig(failure_threshold=1,
                                               cooldown=60.0)) as pool:
            pool.submit(tiny_frame, "q?").result(timeout=30)
            pool.submit(tiny_frame, "q?").result(timeout=30)
        kinds = tracer.counts()
        assert kinds["serving_breaker_transition"] == 1
        assert kinds["serving_breaker_reject"] == 1
        transition = tracer.of_kind("serving_breaker_transition")[0]
        assert transition.data["new_state"] == "open"


class TestPoolTracing:
    def test_lifecycle_events(self, wikitq_small, spec):
        example = wikitq_small.examples[0]
        tracer = ChainTracer()
        with WorkerPool(spec, workers=1, cache=AnswerCache(16),
                        tracer=tracer) as pool:
            pool.submit(example.table, example.question,
                        seed=1).result(timeout=30)
            pool.submit(example.table, example.question,
                        seed=1).result(timeout=30)
        kinds = tracer.counts()
        assert kinds["serving_enqueue"] == 2
        assert kinds["serving_dispatch"] == 2
        assert kinds["serving_cache_miss"] == 1
        assert kinds["serving_cache_hit"] == 1
        assert kinds["serving_complete"] == 2

    def test_timeout_and_retry_events(self, tiny_frame):
        tracer = ChainTracer()
        spec = StubSpec(SleepyModel)
        policy = RetryPolicy(timeout=0.005, max_retries=1)
        with WorkerPool(spec, workers=1, policy=policy,
                        tracer=tracer) as pool:
            pool.submit(tiny_frame, "slow?").result(timeout=30)
        kinds = tracer.counts()
        assert kinds["serving_timeout"] == 2
        assert kinds["serving_retry"] == 1
        assert kinds["serving_degraded"] == 1


class TestLineBreakCells:
    def test_a_carriage_return_in_a_cell_is_answered(self, wikitq_small):
        # Windows CSVs carry "\r"; the prompt codec folds it (and every
        # other line break) to a space, so the model's decode of T0 and
        # of each intermediate table still sees one row per line.
        example = wikitq_small.examples[0]
        table = example.table
        name = next(column for column in table.columns
                    if isinstance(table.cell(1, column), str))
        values = table.column(name).values
        responses = {}
        for separator in ("\r", " "):
            # Row 1, not row 0: the bank keys a table on its first row.
            variant = table.copy()
            variant[name] = [values[0], f"{values[1]}{separator}x",
                             *values[2:]]
            bank = QuestionBank()
            bank.register(dataclasses.replace(example, table=variant))
            with WorkerPool(AgentSpec(bank=bank), workers=1) as pool:
                responses[separator] = pool.submit(
                    variant, example.question, seed=1).result(timeout=30)
        assert responses["\r"].outcome == "ok"
        assert responses["\r"].answer == responses[" "].answer


class SQLBackendSpec(StubSpec):
    """Agents that run one scripted SQL step on a chosen SQL backend."""

    def __init__(self, backend):
        super().__init__(lambda: ScriptedModel([
            "ReAcTable: SQL: ```SELECT k FROM T0 WHERE k = 'b';```.",
            "ReAcTable: Answer: ```b```.",
        ]))
        self.backend = backend

    def build(self, seed):
        self.built_seeds.append(seed)
        return ReActTableAgent(
            self.model_factory(),
            registry=default_registry(sql_backend=self.backend))


class TestCellsSqliteCannotTake:
    @pytest.mark.parametrize("backend", ["sqlite", "native"])
    @pytest.mark.parametrize("cell", [2 ** 70, "\ud800"],
                             ids=["past_64_bits", "lone_surrogate"])
    def test_answered_on_the_first_attempt(self, backend, cell):
        # sqlite cannot bind the cell: its query fails and the chain
        # forces an answer inside the attempt, instead of the attempt
        # raising and the ladder degrading the request.
        table = DataFrame({"k": ["a", "b"], "v": [1, cell]}, name="T0")
        with WorkerPool(SQLBackendSpec(backend), workers=1) as pool:
            response = pool.submit(table, "which k?", seed=1).result(
                timeout=30)
        assert response.outcome == "ok"
        assert response.attempts == 1
        assert response.answer == ["b"]
        assert response.forced == (backend == "sqlite")
