"""Batched chain driving vs sequential driving under simulated API latency.

Not a paper experiment — this measures the batched chain driver,
``repro.aio.AsyncChainDriver`` (lock-step batching over sans-IO chain
engines), against the sequential one-call-per-step driver.  The offline
simulated model answers instantly, which hides exactly the cost batching
removes, so a ``LatencyModel`` wrapper charges every round-trip a fixed
per-call latency plus a small per-completion cost — the usual API bill.
The batched driver pays the per-call latency once per *tick* (all
concurrent chains share the round-trip) instead of once per chain per
step.

Two workloads:

* 200 independent greedy chains, sequential loop vs one batched pass —
  greedy chains are draw-free, so the answers must be bit-identical and
  only the wall-clock may differ;
* s-vote (n=5, temperature 0.6) through a one-worker serving pool with
  ``batch_scheduler`` off vs on.

Shape assertions: identical greedy answers, batched driving at least 2x
faster on the chain workload, batched s-vote serving no slower than
sequential.
"""

import time

from harness import MODEL_SEED, benchmark_for, model_for, scale

from repro.aio import AsyncChainDriver
from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.executors import default_registry
from repro.llm.base import LanguageModel
from repro.reporting import save_result
from repro.serving import WorkerPool

#: Independent chains for the chain-driving workload.
QUESTIONS = max(200, scale(200))
#: Questions for the (slower, 5-chains-each) voted serving workload.
VOTED_QUESTIONS = max(24, scale(200) // 8)
VOTE_SAMPLES = 5

#: Simulated API bill: fixed per-round-trip latency plus a small
#: per-completion cost (so batching is not free).
CALL_LATENCY = 0.004
ITEM_COST = 0.0001


class LatencyModel(LanguageModel):
    """Charge each round-trip like a remote completion API."""

    supports_logprobs = True

    def __init__(self, inner, sleep=time.sleep):
        self.inner = inner
        self.name = inner.name
        self._sleep = sleep
        self.round_trips = 0
        self.completions_served = 0

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.round_trips += 1
        self.completions_served += n
        self._sleep(CALL_LATENCY + n * ITEM_COST)
        return self.inner.complete(prompt, temperature=temperature, n=n)

    def complete_batch(self, requests):
        # One round-trip for the whole tick: fixed latency paid once,
        # per-completion cost for every request in the batch.
        requests = list(requests)
        items = sum(request.n for request in requests)
        self.round_trips += 1
        self.completions_served += items
        self._sleep(CALL_LATENCY + items * ITEM_COST)
        return [self.inner.complete(request.prompt,
                                    temperature=request.temperature,
                                    n=request.n)
                for request in requests]


class LatencySpec:
    """AgentSpec stand-in building latency-charged s-vote runners."""

    def __init__(self, bench):
        self.bench = bench
        self.config_key = "bench-batch-scheduler"

    def build(self, seed):
        return SimpleMajorityVoting(
            LatencyModel(model_for(self.bench, seed=seed)),
            n=VOTE_SAMPLES)

    def build_forced(self, seed):
        return ReActTableAgent(model_for(self.bench, seed=seed),
                               max_iterations=1)


def _sequential_chains(bench, examples):
    model = LatencyModel(model_for(bench))
    agent = ReActTableAgent(model)
    started = time.perf_counter()
    results = [agent.run(ex.table, ex.question) for ex in examples]
    return time.perf_counter() - started, results, model


def _batched_chains(bench, examples):
    model = LatencyModel(model_for(bench))
    agent = ReActTableAgent(model)
    engines = [agent.engine_for(ex.table, ex.question)
               for ex in examples]
    driver = AsyncChainDriver(model, default_registry())
    started = time.perf_counter()
    results = driver.run_sync(engines)
    return time.perf_counter() - started, results, model, driver


def _voted_serving_qps(bench, examples, batch_scheduler):
    with WorkerPool(LatencySpec(bench), workers=1,
                    batch_scheduler=batch_scheduler) as pool:
        started = time.perf_counter()
        slots = [pool.submit(ex.table, ex.question, seed=MODEL_SEED)
                 for ex in examples]
        for slot in slots:
            slot.result()
        elapsed = time.perf_counter() - started
    return len(examples) / elapsed


def run_experiment() -> dict:
    bench = benchmark_for("wikitq", size=QUESTIONS)
    examples = bench.examples[:QUESTIONS]

    seq_time, seq_results, seq_model = _sequential_chains(bench, examples)
    bat_time, bat_results, bat_model, driver = _batched_chains(
        bench, examples)
    assert [r.answer for r in bat_results] == \
        [r.answer for r in seq_results], \
        "greedy chains must be bit-identical under the batched driver"

    voted = examples[:VOTED_QUESTIONS]
    voted_seq_qps = _voted_serving_qps(bench, voted, False)
    voted_bat_qps = _voted_serving_qps(bench, voted, True)

    return {
        "sequential_seconds": seq_time,
        "batched_seconds": bat_time,
        "speedup": seq_time / bat_time,
        "sequential_round_trips": seq_model.round_trips,
        "batched_round_trips": bat_model.round_trips,
        "ticks": driver.ticks,
        "coalesced_requests": driver.requests,
        "voted_seq_qps": voted_seq_qps,
        "voted_bat_qps": voted_bat_qps,
    }


def test_batch_scheduler(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = [
        "Batched chain driving vs sequential driving "
        f"(simulated {1000 * CALL_LATENCY:.0f}ms/call API latency)",
        "=" * 64,
        f"workload: {QUESTIONS} greedy wikitq chains",
        f"{'sequential driver':<32} {measured['sequential_seconds']:>8.2f}"
        f" s  ({measured['sequential_round_trips']} round-trips)",
        f"{'AsyncChainDriver':<32} {measured['batched_seconds']:>8.2f}"
        f" s  ({measured['batched_round_trips']} round-trips, "
        f"{measured['ticks']} ticks, "
        f"{measured['coalesced_requests']} requests)",
        f"{'speedup':<32} {measured['speedup']:>8.1f} x",
        "",
        f"s-vote (n={VOTE_SAMPLES}) serving pool, {VOTED_QUESTIONS} "
        "questions, 1 worker",
        f"{'batch_scheduler=False':<32} {measured['voted_seq_qps']:>8.1f}"
        " q/s",
        f"{'batch_scheduler=True':<32} {measured['voted_bat_qps']:>8.1f}"
        " q/s",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    save_result("batch_scheduler", text)

    assert measured["speedup"] >= 2.0, \
        "the batched driver shares one round-trip per tick; with " \
        "per-call latency dominating it must be well past 2x"
    assert measured["batched_round_trips"] <= \
        measured["sequential_round_trips"] / 4
    assert measured["voted_bat_qps"] >= measured["voted_seq_qps"], \
        "batched s-vote serving must not be slower than sequential"
