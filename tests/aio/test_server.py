"""Tests for AsyncServer: admission control, fairness, ladder behaviour.

The ladder itself (retries, degradation, classification) is pinned
against the thread pool in ``test_parity.py``; here we exercise what the
pool does not have — the bounded in-flight budget, typed rejection,
fair-queue admission order, coalescing on one event loop, and the
deadline on the handler seam.
"""

import asyncio

import pytest

from repro.aio import AsyncLanguageModel, AsyncServer
from repro.errors import AdmissionRejectedError, ServingError, is_retryable
from repro.serving import (
    AgentSpec,
    AnswerCache,
    RetryPolicy,
    ServingMetrics,
    TQARequest,
)
from repro.telemetry import Telemetry


def requests_for(bench, count, *, seed=1, tenant="default"):
    return [TQARequest(table=e.table, question=e.question, seed=seed,
                       uid=e.uid, tenant=tenant)
            for e in bench.examples[:count]]


def run(coro):
    return asyncio.run(coro)


class GatedModel(AsyncLanguageModel):
    """Answers as the sync ``inner`` model once ``release`` is set."""

    def __init__(self, inner, release: asyncio.Event):
        self.inner = inner
        self.release = release

    async def complete(self, prompt, *, temperature=0.0, n=1):
        await self.release.wait()
        return self.inner.complete(prompt, temperature=temperature, n=n)


class GatedSpec:
    """A spec whose runners' model calls await until released."""

    def __init__(self, inner, release: asyncio.Event):
        self.inner = inner
        self.release = release
        self.config_key = inner.config_key

    def build(self, seed):
        runner = self.inner.build(seed)
        runner.model = GatedModel(runner.model, self.release)
        return runner

    def build_forced(self, seed):
        return self.inner.build_forced(seed)


class HangingModel(AsyncLanguageModel):
    """A model call that awaits forever."""

    async def complete(self, prompt, *, temperature=0.0, n=1):
        await asyncio.get_running_loop().create_future()


class FirstHangsSpec:
    """A spec whose first runner's model call never returns."""

    def __init__(self, inner):
        self.inner = inner
        self.config_key = inner.config_key
        self.builds = 0

    def build(self, seed):
        runner = self.inner.build(seed)
        self.builds += 1
        if self.builds == 1:
            runner.model = HangingModel()
        return runner

    def build_forced(self, seed):
        return self.inner.build_forced(seed)


class TestBasicServing:
    def test_answers_and_outcomes(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=4) as server:
                tasks = [asyncio.create_task(server.answer(req))
                         for req in requests_for(wikitq_small, 12)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert len(responses) == 12
        assert all(r.outcome == "ok" for r in responses)
        assert all(r.attempts == 1 for r in responses)

    def test_submit_sugar(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        example = wikitq_small.examples[0]

        async def scenario():
            async with AsyncServer(spec) as server:
                return await server.submit(
                    example.table, example.question, seed=1,
                    tenant="alice")

        response = run(scenario())
        assert response.outcome == "ok"

    def test_closed_server_refuses(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            server = AsyncServer(spec)
            await server.close()
            with pytest.raises(ServingError):
                await server.submit_request(
                    requests_for(wikitq_small, 1)[0])

        run(scenario())

    def test_constructor_validation(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        with pytest.raises(ValueError):
            AsyncServer(spec, max_inflight=0)
        with pytest.raises(ValueError):
            AsyncServer(spec, max_queued=-1)


class TestAdmissionControl:
    def test_overload_sheds_with_typed_rejection(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(spec, max_inflight=1, max_queued=0,
                                   metrics=metrics) as server:
                reqs = requests_for(wikitq_small, 5)
                tasks = [asyncio.create_task(server.submit_request(r))
                         for r in reqs]
                return await asyncio.gather(*tasks,
                                            return_exceptions=True)

        results = run(scenario())
        rejected = [r for r in results
                    if isinstance(r, AdmissionRejectedError)]
        served = [r for r in results
                  if not isinstance(r, BaseException)]
        assert served and rejected
        # The typed error is retryable (clients should back off and
        # retry) and carries the classified response.
        for error in rejected:
            assert is_retryable(error)
            assert error.response.outcome == "rejected"
            assert error.response.error
        assert metrics.rejections == len(rejected)
        assert metrics.outcomes.get("rejected") == len(rejected)

    def test_answer_folds_rejection_into_response(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=1,
                                   max_queued=0) as server:
                tasks = [asyncio.create_task(server.answer(r))
                         for r in requests_for(wikitq_small, 5)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        outcomes = {r.outcome for r in responses}
        assert outcomes == {"ok", "rejected"}
        for r in responses:
            if r.outcome == "rejected":
                assert r.answer == [] and r.attempts == 0

    def test_queue_admits_when_capacity_frees(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(spec, max_inflight=2,
                                   max_queued=64) as server:
                tasks = [asyncio.create_task(server.answer(r))
                         for r in requests_for(wikitq_small, 10)]
                responses = await asyncio.gather(*tasks)
                assert server.active == 0
                return responses

        responses = run(scenario())
        assert all(r.outcome == "ok" for r in responses)

    def test_close_fails_parked_waiters(self, wikitq_small):
        """Closing with requests parked in the fair queue wakes them
        with an error instead of leaving them suspended forever."""
        spec = AgentSpec(bank=wikitq_small.bank)
        release = asyncio.Event()
        gated = GatedSpec(spec, release)

        async def scenario():
            server = AsyncServer(gated, max_inflight=1, max_queued=8,
                                 policy=RetryPolicy(
                                     degrade_on_exhaustion=False))
            first, second = requests_for(wikitq_small, 2)
            running = asyncio.create_task(server.answer(first))
            await asyncio.sleep(0.01)       # first occupies the slot
            parked = asyncio.create_task(
                server.submit_request(second))
            await asyncio.sleep(0.01)       # second parks in the queue
            await server.close()
            with pytest.raises(Exception):
                await parked
            release.set()
            return await running

        response = run(scenario())
        assert response.outcome == "ok"


class TestTenantFairness:
    def test_backlog_drains_in_weighted_order(self, wikitq_small):
        """With one slot and a backlog from two tenants, the weighted
        tenant is admitted more often in any drain prefix."""
        spec = AgentSpec(bank=wikitq_small.bank)
        admitted: list[str] = []

        class Recorder:
            """Tracer stub recording serving_admit tenants."""

            def emit_for(self, chain, kind, iteration, **data):
                if kind == "serving_admit":
                    admitted.append(data["tenant"])

        async def scenario():
            async with AsyncServer(
                    spec, max_inflight=1, max_queued=64,
                    tenant_weights={"gold": 2.0},
                    tracer=Recorder()) as server:
                tasks = []
                # One request takes the slot; the rest park.
                for i, req in enumerate(requests_for(
                        wikitq_small, 1, tenant="warmup")):
                    tasks.append(asyncio.create_task(server.answer(req)))
                await asyncio.sleep(0)
                for req in requests_for(wikitq_small, 6, tenant="gold"):
                    tasks.append(asyncio.create_task(server.answer(req)))
                for req in requests_for(wikitq_small, 6, tenant="bronze"):
                    tasks.append(asyncio.create_task(server.answer(req)))
                await asyncio.gather(*tasks)

        run(scenario())
        assert len(admitted) == 12
        # Weight 2 vs 1: every admitted prefix carries at least as many
        # gold requests as bronze, and gold finishes its backlog first.
        gold_positions = [i for i, t in enumerate(admitted)
                          if t == "gold"]
        bronze_positions = [i for i, t in enumerate(admitted)
                            if t == "bronze"]
        assert sum(1 for t in admitted[:6] if t == "gold") == 4
        assert max(gold_positions) < max(bronze_positions)


class TestCachingAndCoalescing:
    def test_cache_hit_skips_the_ladder(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()
        cache = AnswerCache(64)
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=cache,
                                   metrics=metrics) as server:
                first = await server.answer(request)
                second = await server.answer(request)
                return first, second

        first, second = run(scenario())
        assert first.outcome == "ok" and not first.cached
        assert second.cached and second.outcome == "cached"
        assert metrics.cache_hits == 1 and metrics.cache_misses == 1

    def test_identical_inflight_requests_coalesce(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=AnswerCache(64),
                                   metrics=metrics) as server:
                tasks = [asyncio.create_task(server.answer(request))
                         for _ in range(4)]
                return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert [r.answer for r in responses] == [
            responses[0].answer] * 4
        coalesced = [r for r in responses if r.coalesced]
        assert len(coalesced) == 3
        assert metrics.coalesced == 3
        # Only the primary's response is recorded as completed.
        assert metrics.completed == 1

    def test_duplicates_outlive_a_cancelled_primary(self, wikitq_small):
        """Cancelling the primary's caller does not cancel the callers
        coalesced onto it: the first duplicate becomes the primary."""
        release = asyncio.Event()
        spec = GatedSpec(AgentSpec(bank=wikitq_small.bank), release)
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=AnswerCache(16)) as server:
                primary = asyncio.create_task(server.answer(request))
                await asyncio.sleep(0.01)   # the primary is running
                duplicates = [asyncio.create_task(server.answer(request))
                              for _ in range(2)]
                await asyncio.sleep(0.01)   # both coalesced onto it
                primary.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await primary
                await asyncio.sleep(0.01)
                release.set()
                return await asyncio.gather(*duplicates)

        first, second = run(scenario())
        assert first.outcome == "ok" and not first.coalesced
        assert second.coalesced and second.answer == first.answer

    def test_a_cancelled_duplicate_still_raises(self, wikitq_small):
        release = asyncio.Event()
        spec = GatedSpec(AgentSpec(bank=wikitq_small.bank), release)
        request = requests_for(wikitq_small, 1)[0]

        async def scenario():
            async with AsyncServer(spec, cache=AnswerCache(16)) as server:
                primary = asyncio.create_task(server.answer(request))
                await asyncio.sleep(0.01)
                duplicate = asyncio.create_task(server.answer(request))
                await asyncio.sleep(0.01)
                duplicate.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await duplicate
                release.set()
                return await primary

        assert run(scenario()).outcome == "ok"


class TestDeadlinesAndFailures:
    def test_expired_deadline_degrades(self, wikitq_small):
        """A deadline that expires immediately fails every attempt at
        the model boundary; the degraded rung (no deadline) answers."""
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(
                    spec, metrics=metrics,
                    policy=RetryPolicy(timeout=1e-9,
                                       max_retries=1)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "degraded"
        assert response.degraded and response.forced
        assert metrics.timeouts == 2        # both attempts timed out

    def test_deadline_exceeded_without_degradation(self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)

        async def scenario():
            async with AsyncServer(
                    spec,
                    policy=RetryPolicy(timeout=1e-9, max_retries=0,
                                       degrade_on_exhaustion=False)
                    ) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "deadline_exceeded"
        assert response.answer == []

    def test_voted_chain_runners_carry_deadlines(self, wikitq_small):
        """s-vote attempts run their chains in one tick loop on the
        async server — the handler seam must still enforce the
        deadline."""
        spec = AgentSpec(bank=wikitq_small.bank, voting="s-vote",
                         samples=3)
        metrics = ServingMetrics()

        async def scenario():
            async with AsyncServer(
                    spec, metrics=metrics,
                    policy=RetryPolicy(timeout=1e-9,
                                       max_retries=0)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "degraded"
        assert metrics.timeouts == 1

    def test_cancelled_request_closes_its_spans(self, wikitq_small):
        """Cancel a request while its model call awaits: its caller sees
        the cancellation, its spans close with an error status in its
        own context, and its slot goes to the parked request."""
        spec = FirstHangsSpec(AgentSpec(bank=wikitq_small.bank))
        telemetry = Telemetry()
        first, second = requests_for(wikitq_small, 2)

        async def scenario():
            async with AsyncServer(spec, max_inflight=1,
                                   telemetry=telemetry) as server:
                hanging = asyncio.create_task(server.answer(first))
                await asyncio.sleep(0.01)   # its model call awaits
                parked = asyncio.create_task(server.answer(second))
                await asyncio.sleep(0.01)
                assert server.active == 1 and len(server.queue) == 1
                hanging.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await hanging
                response = await parked
                return response, server.active

        response, active = run(scenario())
        assert response.outcome == "ok"
        assert active == 0
        (root,) = [s for s in telemetry.spans if s.kind == "request"
                   and s.attributes["uid"] == first.uid]
        (attempt,) = [s for s in telemetry.spans if s.kind == "attempt"
                      and s.trace_id == root.trace_id]
        assert root.status == "error" and attempt.status == "error"
        assert attempt.parent_id == root.span_id

    def test_runner_without_a_step_body_degrades(self, wikitq_small):
        """The ladder runs every attempt as its runner's step body; a
        runner with only a blocking ``run`` fails each attempt, and the
        degraded rung answers."""
        spec = AgentSpec(bank=wikitq_small.bank)
        metrics = ServingMetrics()

        class NoSeamSpec:
            config_key = "no-seam"

            def build(self, seed):
                inner = spec.build(seed)

                class Opaque:
                    def run(self, table, question):
                        return inner.run(table, question)

                return Opaque()

            def build_forced(self, seed):
                return spec.build_forced(seed)

        async def scenario():
            async with AsyncServer(
                    NoSeamSpec(), metrics=metrics,
                    policy=RetryPolicy(timeout=30.0)) as server:
                return await server.answer(
                    requests_for(wikitq_small, 1)[0])

        response = run(scenario())
        assert response.outcome == "degraded"
        assert response.attempts == 2 and response.forced
        assert "AttributeError" in response.error
        assert metrics.timeouts == 0
