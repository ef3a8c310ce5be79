"""Async serving core vs the thread pool and the sequential driver.

Not a paper experiment — this measures ``repro.aio`` under the same
simulated API bill as ``bench_batch_scheduler.py`` (a fixed per-round-trip
latency plus a small per-completion cost).  Three comparisons:

* **chain driving** — 200 greedy chains: sequential driver vs
  ``AsyncChainDriver``.  The batched driver must keep its coalescing win
  (at least 4x), with bit-identical answers.
* **serving** — 1000+ concurrent requests, 4 tenants, through a
  16-worker ``WorkerPool`` (threads sleeping out the latency) vs an
  ``AsyncServer`` (coroutines awaiting it).  Both substrates hide the
  latency and end up bound by the GIL-serialised simulated-model
  compute, so the async claim is *efficiency*: one event-loop thread
  holding the whole burst in flight must at least match 16 worker
  threads.  p99 latency comes from the shared ``ServingMetrics``
  histograms.
* **fairness** — the same burst with a weight-2 tenant: its share of
  fair-queue admissions must track its weight.

Scale is controlled by ``REPRO_SCALE`` as usual.
"""

import asyncio
import time

from harness import MODEL_SEED, benchmark_for, model_for, scale

from repro.aio import AsyncChainDriver, AsyncLanguageModel, AsyncServer
from repro.core import ReActTableAgent
from repro.executors import default_registry
from repro.llm.base import LanguageModel
from repro.reporting import save_result
from repro.serving import ServingMetrics, TQARequest, WorkerPool

#: Independent greedy chains for the driver comparison.
QUESTIONS = max(200, scale(200))
#: Concurrent serving requests (the issue's 1k+ floor).
SERVE_REQUESTS = max(1000, scale(400) * 2)
TENANTS = ("gold", "silver", "bronze", "default")
POOL_WORKERS = 16
#: Bounded in-flight budget: the rest of the burst parks in the fair
#: queue, which is what keeps the p99 a function of the budget rather
#: than of the burst size.
MAX_INFLIGHT = 128

#: Simulated API bill (identical to bench_batch_scheduler.py).
CALL_LATENCY = 0.004
ITEM_COST = 0.0001


class LatencyModel(LanguageModel):
    """Sync wrapper: charge each round-trip like a remote API (blocks)."""

    supports_logprobs = True

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.round_trips = 0

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.round_trips += 1
        time.sleep(CALL_LATENCY + n * ITEM_COST)
        return self.inner.complete(prompt, temperature=temperature, n=n)

    def complete_batch(self, requests):
        requests = list(requests)
        self.round_trips += 1
        time.sleep(CALL_LATENCY
                   + sum(r.n for r in requests) * ITEM_COST)
        return [self.inner.complete(r.prompt, temperature=r.temperature,
                                    n=r.n) for r in requests]


class AsyncLatencyModel(AsyncLanguageModel):
    """Awaitable wrapper: the latency is awaited, not slept — the loop
    keeps every other request moving during the round-trip."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def name(self):
        return self.inner.name

    async def complete(self, prompt, *, temperature=0.0, n=1):
        await asyncio.sleep(CALL_LATENCY + n * ITEM_COST)
        return self.inner.complete(prompt, temperature=temperature, n=n)

    async def complete_batch(self, requests):
        requests = list(requests)
        await asyncio.sleep(CALL_LATENCY
                            + sum(r.n for r in requests) * ITEM_COST)
        return [self.inner.complete(r.prompt, temperature=r.temperature,
                                    n=r.n) for r in requests]


class ServeSpec:
    """Greedy agents over a latency-charged model; async or blocking."""

    def __init__(self, bench, *, use_async):
        self.bench = bench
        self.use_async = use_async
        self.config_key = "bench-async-serving"

    def build(self, seed):
        model = model_for(self.bench, seed=seed)
        wrapped = (AsyncLatencyModel(model) if self.use_async
                   else LatencyModel(model))
        return ReActTableAgent(wrapped)

    def build_forced(self, seed):
        return ReActTableAgent(model_for(self.bench, seed=seed),
                               max_iterations=1)


def _sequential_chains(bench, examples):
    agent = ReActTableAgent(LatencyModel(model_for(bench)))
    started = time.perf_counter()
    results = [agent.run(ex.table, ex.question) for ex in examples]
    return time.perf_counter() - started, results


def _async_chains(bench, examples):
    model = LatencyModel(model_for(bench))
    agent = ReActTableAgent(model)
    engines = [agent.engine_for(ex.table, ex.question)
               for ex in examples]
    driver = AsyncChainDriver(model, default_registry())
    started = time.perf_counter()
    results = asyncio.run(driver.run(engines))
    return time.perf_counter() - started, results


def _serve_requests(bench):
    examples = bench.examples
    return [TQARequest(table=ex.table, question=ex.question,
                       seed=MODEL_SEED, uid=f"{tenant}-{i}",
                       tenant=tenant)
            for i, (ex, tenant) in enumerate(
                (examples[j % len(examples)], TENANTS[j % len(TENANTS)])
                for j in range(SERVE_REQUESTS))]


def _pool_serving(bench, requests):
    metrics = ServingMetrics()
    with WorkerPool(ServeSpec(bench, use_async=False),
                    workers=POOL_WORKERS, metrics=metrics,
                    queue_capacity=len(requests) + 1) as pool:
        started = time.perf_counter()
        slots = [pool.submit_request(request) for request in requests]
        for slot in slots:
            slot.result()
        elapsed = time.perf_counter() - started
    return len(requests) / elapsed, metrics.snapshot()


def _async_serving(bench, requests, *, tenant_weights=None, recorder=None,
                   max_inflight=MAX_INFLIGHT):
    metrics = ServingMetrics()

    async def scenario():
        async with AsyncServer(ServeSpec(bench, use_async=True),
                               max_inflight=max_inflight,
                               max_queued=None, metrics=metrics,
                               tenant_weights=tenant_weights,
                               tracer=recorder) as server:
            started = time.perf_counter()
            tasks = [asyncio.create_task(server.answer(request))
                     for request in requests]
            responses = await asyncio.gather(*tasks)
            return time.perf_counter() - started, responses

    elapsed, responses = asyncio.run(scenario())
    assert all(r.outcome == "ok" for r in responses)
    return len(requests) / elapsed, metrics.snapshot()


class AdmissionRecorder:
    """Tracer stub: the tenant order of fair-queue admissions."""

    def __init__(self):
        self.admitted = []

    def emit_for(self, chain, kind, iteration, **data):
        if kind == "serving_admit":
            self.admitted.append(data["tenant"])


def run_experiment() -> dict:
    bench = benchmark_for("wikitq", size=min(QUESTIONS, 400))
    examples = bench.examples[:QUESTIONS]

    seq_time, seq_results = _sequential_chains(bench, examples)
    async_time, async_results = _async_chains(bench, examples)
    assert [r.answer for r in async_results] == \
        [r.answer for r in seq_results], \
        "greedy chains must be bit-identical under the async driver"

    requests = _serve_requests(bench)
    pool_qps, pool_snapshot = _pool_serving(bench, requests)
    async_qps, async_snapshot = _async_serving(bench, requests)

    recorder = AdmissionRecorder()
    fair_qps, _ = _async_serving(
        bench, requests, tenant_weights={"gold": 2.0},
        recorder=recorder, max_inflight=32)
    prefix = recorder.admitted[:len(recorder.admitted) // 2]
    shares = {tenant: prefix.count(tenant) for tenant in TENANTS}

    return {
        "sequential_seconds": seq_time,
        "async_seconds": async_time,
        "async_speedup": seq_time / async_time,
        "pool_qps": pool_qps,
        "async_qps": async_qps,
        "fair_qps": fair_qps,
        "pool_p99": pool_snapshot["latency_p99"],
        "async_p99": async_snapshot["latency_p99"],
        "admissions": len(recorder.admitted),
        "shares": shares,
    }


def test_async_serving(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    shares = measured["shares"]

    lines = [
        "Async serving core vs thread pool and sequential driver "
        f"(simulated {1000 * CALL_LATENCY:.0f}ms/call API latency)",
        "=" * 72,
        f"chain driving: {QUESTIONS} greedy wikitq chains",
        f"{'sequential driver':<34} {measured['sequential_seconds']:>8.2f} s",
        f"{'AsyncChainDriver (lock-step)':<34} {measured['async_seconds']:>8.2f}"
        f" s  ({measured['async_speedup']:.1f}x)",
        "",
        f"serving: {SERVE_REQUESTS} concurrent greedy requests, "
        f"{len(TENANTS)} tenants",
        f"{'WorkerPool (' + str(POOL_WORKERS) + ' threads)':<34} "
        f"{measured['pool_qps']:>8.1f} q/s  "
        f"(p99 {1000 * measured['pool_p99']:.1f} ms)",
        f"{'AsyncServer (max_inflight=' + str(MAX_INFLIGHT) + ')':<34} "
        f"{measured['async_qps']:>8.1f} q/s  "
        f"(p99 {1000 * measured['async_p99']:.1f} ms)",
        "",
        f"fairness: max_inflight=32, gold weight 2.0, "
        f"{measured['admissions']} fair-queue admissions",
        "admission shares (first half): " + ", ".join(
            f"{tenant}={shares[tenant]}" for tenant in TENANTS),
    ]
    text = "\n".join(lines)
    print("\n" + text)
    save_result("async_serving", text)

    # One shared round-trip per tick: with per-call latency dominating,
    # the batched driver must stay well ahead of the sequential one.
    assert measured["async_speedup"] >= 4.0
    # Both substrates end up GIL-compute-bound at this latency, so the
    # async claim is efficiency, not a multiple: one event-loop thread
    # holding the whole burst must at least match 16 worker threads.
    assert measured["async_qps"] >= measured["pool_qps"] * 0.95, \
        "the async server fell behind the thread pool"
    # The weight-2 tenant gets about twice any weight-1 tenant's share
    # of admissions (allow generous slack for boundary effects).
    for tenant in ("silver", "bronze", "default"):
        assert shares["gold"] >= 1.5 * shares[tenant], \
            f"gold should out-admit {tenant} roughly 2:1, got {shares}"
