"""The reflexion rung inside both serving ladders.

The rung sits between the retry ladder and the degradation rung, so the
interesting behaviour lives at its edges: an improved re-run flips the
outcome to ``reflected``; an unimproved one must hand back the original
response *bit-identical*; an exhausted budget falls through to the
forced direct answer; reflection-cycle failures (transient errors, the
deadline, an open circuit) classify exactly like first-class attempts.

The shared terminal classification table — including the mid-attempt
``CircuitOpenError`` case both ladders must treat as a breaker
*rejection*, not a fresh backend failure — is pinned here too.
"""

import asyncio

import pytest

from repro.aio import AsyncServer
from repro.core import ReActTableAgent
from repro.errors import (
    CircuitOpenError,
    ExecutionError,
    ServingTimeoutError,
    TransientModelError,
)
from repro.faults import FaultConfig, FaultyAgentSpec
from repro.llm.base import Completion, LanguageModel, ScriptedModel
from repro.serving import (
    AgentSpec,
    BreakerConfig,
    ReflectPolicy,
    RetryPolicy,
    ServingMetrics,
    TQARequest,
    WorkerPool,
    classify_failure,
)

ANSWER = "ReAcTable: Answer: ```ok```."
WEAK = "ReAcTable: Answer: ```weak```."
BAD_SQL = "ReAcTable: SQL: ```SELECT nonsense FROM missing```."
DEGRADED = "ReAcTable: Answer: ```degraded```."


class RaisingModel(LanguageModel):
    """Every completion raises ``exc_type`` — the whole chain fails."""

    name = "raising"
    supports_logprobs = False

    def __init__(self, exc_type):
        self.exc_type = exc_type

    def complete(self, prompt, *, temperature=0.0, n=1):
        raise self.exc_type("injected failure")


class SleepyModel(LanguageModel):
    """Sleeps past every test deadline before answering."""

    name = "sleepy"
    supports_logprobs = False

    def complete(self, prompt, *, temperature=0.0, n=1):
        import time

        time.sleep(0.05)
        return [Completion(ANSWER)] * n


class SequencedSpec:
    """Each ``build()`` consumes the next script, in call order.

    The retry ladder builds one runner per attempt and the reflexion
    rung one per cycle (whose model first answers the reflection prompt,
    then the re-run), so a list of scripts choreographs a whole ladder
    descent.  A script of ``None`` builds a :class:`RaisingModel`; an
    exhausted list keeps raising — no accidental late recoveries.
    """

    config_key = "sequenced"

    def __init__(self, scripts, *, max_iterations=None,
                 exc_type=RuntimeError):
        self.scripts = [None if s is None else list(s) for s in scripts]
        self.max_iterations = max_iterations
        self.exc_type = exc_type
        self.models = []

    def build(self, seed):
        outputs = self.scripts.pop(0) if self.scripts else None
        if outputs is None:
            model = RaisingModel(self.exc_type)
        else:
            model = ScriptedModel(outputs)
        self.models.append(model)
        kwargs = {}
        if self.max_iterations is not None:
            kwargs["max_iterations"] = self.max_iterations
        return ReActTableAgent(model, **kwargs)

    def build_forced(self, seed):
        return ReActTableAgent(ScriptedModel([DEGRADED]),
                               max_iterations=1)


def serve_one(spec, frame, *, policy=None, reflect=None, metrics=None,
              breakers=None, question="q?"):
    with WorkerPool(spec, workers=1, policy=policy, reflect=reflect,
                    metrics=metrics, breakers=breakers,
                    sleep=lambda _d: None) as pool:
        return pool.submit(frame, question).result(timeout=30)


class TestReflectedOutcome:
    def test_reflection_recovers_a_forced_answer(self, tiny_frame):
        # Attempt 1 burns its iteration budget on failing SQL and gets
        # forced; the reflection cycle re-runs clean.
        spec = SequencedSpec([[BAD_SQL, WEAK],
                              ["use the right table", ANSWER]],
                             max_iterations=2)
        metrics = ServingMetrics()
        response = serve_one(spec, tiny_frame,
                             policy=RetryPolicy(max_retries=0),
                             reflect=ReflectPolicy(), metrics=metrics)
        assert response.outcome == "reflected"
        assert response.reflections == 1
        assert response.answer == ["ok"]
        assert not response.forced and not response.degraded
        assert response.error == ""
        assert metrics.reflections == 1
        assert metrics.snapshot()["outcomes"]["reflected"] == 1

    def test_unimproved_reflection_returns_original_bits(self,
                                                         tiny_frame):
        # Both the attempt and the reflected re-run get forced: the
        # original result must come back untouched — same answer, same
        # (empty) error — with only the reflection counter advanced.
        spec = SequencedSpec([[BAD_SQL, WEAK],
                              ["a reflection", BAD_SQL, WEAK]],
                             max_iterations=2)
        response = serve_one(spec, tiny_frame,
                             policy=RetryPolicy(max_retries=0),
                             reflect=ReflectPolicy())
        assert response.outcome == "ok"
        assert response.answer == ["weak"]
        assert response.forced
        assert response.reflections == 1
        assert response.error == ""

    def test_weak_reflected_answer_beats_no_answer(self, tiny_frame):
        # The attempts left nothing; even a forced reflected answer is
        # an improvement over the degradation rung.
        spec = SequencedSpec([None, ["a reflection", BAD_SQL, WEAK]],
                             max_iterations=2)
        response = serve_one(spec, tiny_frame,
                             policy=RetryPolicy(max_retries=0),
                             reflect=ReflectPolicy())
        assert response.outcome == "reflected"
        assert response.answer == ["weak"]
        assert not response.degraded


class TestLadderEdges:
    def test_budget_exhausted_falls_to_forced_direct_answer(self,
                                                            tiny_frame):
        # Every attempt and every reflection cycle dies; the ladder must
        # still terminate through the §3.3 forced direct answer.
        spec = SequencedSpec([None])
        metrics = ServingMetrics()
        response = serve_one(
            spec, tiny_frame, policy=RetryPolicy(max_retries=0),
            reflect=ReflectPolicy(max_reflections=2), metrics=metrics)
        assert response.outcome == "degraded"
        assert response.answer == ["degraded"]
        assert response.forced and response.degraded
        assert response.reflections == 2
        assert metrics.reflections == 2

    def test_transient_reflection_failure_is_classified(self,
                                                        tiny_frame):
        # The reflection model call failing transiently is absorbed and
        # classified — never an escaped exception.
        spec = SequencedSpec([None], exc_type=TransientModelError)
        response = serve_one(
            spec, tiny_frame,
            policy=RetryPolicy(max_retries=0,
                               degrade_on_exhaustion=False),
            reflect=ReflectPolicy())
        assert response.outcome == "error_transient"
        assert response.answer == []
        assert "TransientModelError" in response.error
        assert response.reflections == 1

    def test_deadline_expiry_during_reflection(self, tiny_frame):
        # The reflection cycle rides the same EffectHandler deadline
        # seam as first-class attempts: expiry classifies as
        # ``deadline_exceeded``, and is metered as a timeout.
        spec = SequencedSpec([])
        spec.build = lambda seed: ReActTableAgent(SleepyModel())
        metrics = ServingMetrics()
        response = serve_one(
            spec, tiny_frame,
            policy=RetryPolicy(timeout=0.005, max_retries=0,
                               degrade_on_exhaustion=False),
            reflect=ReflectPolicy(), metrics=metrics)
        assert response.outcome == "deadline_exceeded"
        assert response.reflections == 1
        assert metrics.timeouts == 2   # the attempt and the reflection

    def test_open_circuit_skips_reflection_cycles(self, tiny_frame):
        # With the breaker open the rung must not spend its budget:
        # reflection cycles are admission-checked like attempts.
        spec = SequencedSpec([None, None])
        metrics = ServingMetrics()
        response = serve_one(
            spec, tiny_frame,
            policy=RetryPolicy(max_retries=1,
                               degrade_on_exhaustion=False),
            reflect=ReflectPolicy(), metrics=metrics,
            breakers=BreakerConfig(failure_threshold=1, cooldown=60.0))
        assert response.outcome == "error_permanent"
        assert "circuit is open" in response.error
        assert response.reflections == 0
        assert metrics.reflections == 0
        # One rejection at the attempt ladder, one at the rung.
        assert metrics.breaker_rejections == 2


class TestDisabledBitIdentity:
    def test_default_is_off_and_env_arms_it(self, wikitq_small,
                                            monkeypatch):
        """Only the constructor arms the rung: the retired
        ``REPRO_REFLECT`` variable no longer does."""
        spec = AgentSpec(bank=wikitq_small.bank)
        monkeypatch.setenv("REPRO_REFLECT", "1")
        assert WorkerPool(spec).reflect_policy is None
        assert AsyncServer(spec).reflect_policy is None
        assert WorkerPool(spec, reflect=False).reflect_policy is None
        assert WorkerPool(spec, reflect=True).reflect_policy == (
            ReflectPolicy())
        policy = ReflectPolicy(max_reflections=2)
        assert AsyncServer(spec, reflect=policy).reflect_policy is policy

    def test_inert_rung_is_bit_identical_to_absent_rung(self,
                                                        wikitq_small):
        # ``max_reflections=0`` wires the rung but never lets it run —
        # the overhead-benchmark configuration.  Every response field
        # must match the rung-free pool exactly.
        spec = AgentSpec(bank=wikitq_small.bank)

        def run(reflect):
            with WorkerPool(spec, workers=2, reflect=reflect) as pool:
                slots = [pool.submit(ex.table, ex.question, seed=1,
                                     uid=ex.uid)
                         for ex in wikitq_small.examples[:10]]
                return [s.result(timeout=30) for s in slots]

        absent = run(False)
        inert = run(ReflectPolicy(max_reflections=0))
        for old, new in zip(absent, inert):
            assert (new.uid, new.answer, new.iterations, new.forced,
                    new.handling_events, new.attempts, new.reflections,
                    new.error, new.outcome) == (
                old.uid, old.answer, old.iterations, old.forced,
                old.handling_events, old.attempts, old.reflections,
                old.error, old.outcome)


class TestSeededReproducibility:
    def test_faulty_reflecting_runs_reproduce(self, wikitq_small):
        # Under seeded fault injection with reflection armed, two runs
        # of the same suite must be identical response-for-response.
        def run():
            spec = FaultyAgentSpec(
                AgentSpec(bank=wikitq_small.bank),
                FaultConfig.uniform(0.25, latency_seconds=0.0),
                sleep=lambda _d: None)
            metrics = ServingMetrics()
            with WorkerPool(spec, workers=4,
                            policy=RetryPolicy(max_retries=1),
                            reflect=ReflectPolicy(), metrics=metrics,
                            sleep=lambda _d: None) as pool:
                slots = [pool.submit(ex.table, ex.question, seed=9,
                                     uid=ex.uid)
                         for ex in wikitq_small.examples[:20]]
                return ([s.result(timeout=60) for s in slots], metrics)

        first, first_metrics = run()
        second, second_metrics = run()
        for old, new in zip(first, second):
            assert (new.uid, new.answer, new.outcome, new.attempts,
                    new.reflections, new.error) == (
                old.uid, old.answer, old.outcome, old.attempts,
                old.reflections, old.error)
        assert first_metrics.reflections == second_metrics.reflections


def async_one(spec, frame, *, policy=None, reflect=None, metrics=None,
              breakers=None, question="q?"):
    async def _sleep(_d):
        return None

    async def scenario():
        async with AsyncServer(spec, policy=policy, reflect=reflect,
                               metrics=metrics, breakers=breakers,
                               sleep=_sleep) as server:
            return await server.submit(frame, question)

    return asyncio.run(scenario())


class TestAsyncLadderParity:
    def test_async_reflects_identically(self, tiny_frame):
        def scripts():
            return SequencedSpec([[BAD_SQL, WEAK],
                                  ["use the right table", ANSWER]],
                                 max_iterations=2)

        policy = RetryPolicy(max_retries=0)
        expected = serve_one(scripts(), tiny_frame, policy=policy,
                             reflect=ReflectPolicy())
        actual = async_one(scripts(), tiny_frame, policy=policy,
                           reflect=ReflectPolicy())
        assert actual.outcome == expected.outcome == "reflected"
        assert (actual.answer, actual.reflections, actual.error) == (
            expected.answer, expected.reflections, expected.error)

    def test_async_edge_cases_match_pool(self, tiny_frame):
        # Budget exhaustion and transient reflection failures classify
        # the same through both ladders.
        policy = RetryPolicy(max_retries=0, degrade_on_exhaustion=False)
        for exc_type, outcome in ((TransientModelError,
                                   "error_transient"),
                                  (RuntimeError, "error_permanent")):
            pool_r = serve_one(SequencedSpec([None], exc_type=exc_type),
                               tiny_frame, policy=policy,
                               reflect=ReflectPolicy())
            async_r = async_one(SequencedSpec([None], exc_type=exc_type),
                                tiny_frame, policy=policy,
                                reflect=ReflectPolicy())
            assert pool_r.outcome == async_r.outcome == outcome
            assert pool_r.error == async_r.error
            assert pool_r.reflections == async_r.reflections == 1

    def test_faulty_reflecting_suite_parity(self, wikitq_small):
        # The tentpole's cross-ladder bar: with reflection armed under
        # seeded faults, the async server reproduces the pool bit for
        # bit.
        def spec():
            return FaultyAgentSpec(
                AgentSpec(bank=wikitq_small.bank),
                FaultConfig.uniform(0.25, latency_seconds=0.0),
                sleep=lambda _d: None)

        policy = RetryPolicy(max_retries=1)
        examples = wikitq_small.examples[:15]

        with WorkerPool(spec(), workers=4, policy=policy,
                        reflect=ReflectPolicy(),
                        sleep=lambda _d: None) as pool:
            slots = [pool.submit(ex.table, ex.question, seed=9,
                                 uid=ex.uid) for ex in examples]
            expected = [s.result(timeout=60) for s in slots]

        async def _sleep(_d):
            return None

        async def scenario():
            async with AsyncServer(spec(), max_inflight=4,
                                   policy=policy,
                                   reflect=ReflectPolicy(),
                                   sleep=_sleep) as server:
                tasks = [asyncio.create_task(server.answer(TQARequest(
                    table=ex.table, question=ex.question, seed=9,
                    uid=ex.uid))) for ex in examples]
                return await asyncio.gather(*tasks)

        actual = asyncio.run(scenario())
        for old, new in zip(expected, actual):
            assert (new.uid, new.answer, new.iterations, new.forced,
                    new.degraded, new.attempts, new.reflections,
                    new.error, new.outcome) == (
                old.uid, old.answer, old.iterations, old.forced,
                old.degraded, old.attempts, old.reflections,
                old.error, old.outcome)


class TrippingModel(LanguageModel):
    """A backend client behind its own open circuit breaker."""

    name = "tripping"
    supports_logprobs = False

    def complete(self, prompt, *, temperature=0.0, n=1):
        raise CircuitOpenError("downstream circuit open")


class TrippingSpec:
    """Every attempt trips a *nested* breaker mid-run."""

    config_key = "tripping"

    def build(self, seed):
        return ReActTableAgent(TrippingModel())

    def build_forced(self, seed):
        return ReActTableAgent(ScriptedModel([DEGRADED]),
                               max_iterations=1)


class TestClassification:
    def test_shared_classification_table(self):
        # The taxonomy both ladders dispatch on, pinned value by value.
        assert classify_failure(
            ServingTimeoutError("t")) == "deadline_exceeded"
        assert classify_failure(
            CircuitOpenError("open")) == "error_permanent"
        assert classify_failure(
            TransientModelError("m")) == "error_transient"
        assert classify_failure(ExecutionError("e")) == "error_permanent"
        assert classify_failure(RuntimeError("r")) == "error_permanent"
        assert classify_failure(None) == "error_permanent"

    @pytest.mark.parametrize("ladder", ["pool", "async"])
    def test_mid_attempt_circuit_open_is_a_rejection(self, tiny_frame,
                                                     ladder):
        # A circuit opening *inside* an attempt must be accounted as a
        # breaker rejection — one, no retries burned, and never
        # ``record_failure`` against the pool's own breaker.
        metrics = ServingMetrics()
        kwargs = dict(
            policy=RetryPolicy(max_retries=3,
                               degrade_on_exhaustion=False),
            metrics=metrics,
            breakers=BreakerConfig(failure_threshold=2, cooldown=60.0))
        runner = serve_one if ladder == "pool" else async_one
        response = runner(TrippingSpec(), tiny_frame, **kwargs)
        assert response.outcome == "error_permanent"
        assert "circuit open" in response.error
        assert response.attempts == 1          # the ladder stopped cold
        snapshot = metrics.snapshot()
        assert snapshot["retries"] == 0
        assert snapshot["breaker_rejections"] == 1
        assert snapshot["outcomes"]["error_permanent"] == 1
