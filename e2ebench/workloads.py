"""The three seeded serving workloads and the load generators that drive them.

Every workload mixes wikitq and tabfact questions half and half (so the
Python executor gets tabfact's share of calls) and runs greedy ``react``
or s-vote through one of the two public serving entry points:
``WorkerPool.submit_request`` or ``AsyncServer.answer``.  The workload
seed fixes the question pool, the arrival schedule and the popularity
draw; the program only ever sees the generated requests.  Reflexion,
fault injection and the non-react strategies are off everywhere.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import random
import time
from dataclasses import dataclass

from layers import (
    AsyncBillModel,
    Bill,
    BillModel,
    LayerProbe,
    TimedAnswerCache,
    TracedAgent,
    TracedVoter,
    timed,
)
from repro.aio import AsyncServer
from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.datasets import generate_dataset
from repro.datasets.spec import QuestionBank
from repro.executors import default_registry
from repro.llm import SimulatedTQAModel, get_profile
from repro.serving import AnswerCache, TQARequest, WorkerPool

__all__ = ["Workload", "WORKLOADS", "Inputs", "make_inputs", "BenchSpec",
           "open_session", "PassResult", "closed_loop_pool",
           "closed_loop_async", "open_loop", "MIN_REQUESTS"]

PROFILE = "codex-sim"
VOTE_SAMPLES = 5
VOTE_TEMPERATURE = 0.6
#: Warm-up questions, generated apart from the timed ones.
WARMUP_QUESTIONS = 16
#: Fewest latency samples in a run: 10 of them rank above the p99.
MIN_REQUESTS = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix, fixed except for its seed."""

    name: str
    #: ``"pool"`` (``WorkerPool``) or ``"async"`` (``AsyncServer``).
    server: str
    #: ``"greedy"`` react or ``"s-vote"``.
    voting: str
    sql_backend: str
    #: The simulated API bill.
    round_trip_ms: float
    per_completion_ms: float
    #: A run sends ``rate_qps * seconds`` requests (at least
    #: MIN_REQUESTS).  ``"closed"``: ``concurrency`` kept outstanding.
    #: ``"open"``: Poisson arrivals at ``rate_qps``.
    arrivals: str
    rate_qps: float
    concurrency: int
    #: Pool workers, or the server's ``max_inflight``.
    capacity: int
    #: The latency limit ``slo_attainment`` counts against.
    slo_ms: float
    #: Unique questions per request, and the Zipf exponent of their
    #: popularity (open loop only; closed loops never repeat a question).
    unique_share: float = 1.0
    zipf_s: float = 0.0
    #: An ``AnswerCache`` larger than the question pool.
    cached: bool = False


#: Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="greedy-pool", server="pool", voting="greedy",
        sql_backend="sqlite", round_trip_ms=0.0, per_completion_ms=0.0,
        arrivals="closed", rate_qps=400.0, concurrency=4, capacity=2,
        slo_ms=50.0),
    Workload(
        name="svote-async", server="async", voting="s-vote",
        sql_backend="native", round_trip_ms=4.0, per_completion_ms=0.1,
        arrivals="closed", rate_qps=160.0, concurrency=16, capacity=8,
        slo_ms=300.0),
    Workload(
        name="repeat-open", server="async", voting="greedy",
        sql_backend="sqlite", round_trip_ms=4.0, per_completion_ms=0.1,
        arrivals="open", rate_qps=200.0, concurrency=64, capacity=64,
        slo_ms=25.0, unique_share=0.25, zipf_s=1.0, cached=True),
)}


# --- seeded inputs ------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run sends, generated from the workload seed."""

    bank: QuestionBank
    #: ``(dataset, example)`` per unique question.
    questions: list
    #: ``requests[i]`` asks ``questions[order[i]]``.
    order: list
    requests: list
    warmup: list
    #: Open loop: each request's send time, seconds after the start.
    due: list | None


def _mixed_questions(bank: QuestionBank, count: int, seed: int) -> list:
    """``count`` questions, wikitq and tabfact alternating."""
    halves = [generate_dataset(name, size=size, seed=seed, bank=bank)
              for name, size in (("wikitq", count - count // 2),
                                 ("tabfact", count // 2))]
    mixed = []
    for pair in itertools.zip_longest(*(h.examples for h in halves)):
        mixed.extend((example.dataset, example)
                     for example in pair if example is not None)
    return mixed


def _request(question, *, seed: int, uid: str) -> TQARequest:
    _, example = question
    return TQARequest(table=example.table, question=example.question,
                      seed=seed, uid=uid)


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The question pool, request order and (open loop) arrival schedule."""
    rng = random.Random(f"e2ebench:{workload.name}:{seed}")
    count = max(MIN_REQUESTS, round(workload.rate_qps * seconds))
    due = None
    if workload.arrivals == "open":
        # A Poisson process conditioned on ``count`` arrivals in the
        # window: sorted uniform send times, so every seed's schedule
        # spans the same ``count / rate_qps`` seconds.
        window = count / workload.rate_qps
        due = sorted(rng.uniform(0.0, window) for _ in range(count))
        unique = max(1, round(count * workload.unique_share))
        # Popularity rank r is drawn with weight 1/(r+1)^s; ranks map to
        # questions through a seeded shuffle.
        weights = [1.0 / (rank + 1) ** workload.zipf_s
                   for rank in range(unique)]
        ranks = rng.choices(range(unique),
                            cum_weights=list(itertools.accumulate(weights)),
                            k=count)
        question_of_rank = list(range(unique))
        rng.shuffle(question_of_rank)
        order = [question_of_rank[rank] for rank in ranks]
    else:
        unique = count
        order = list(range(count))
    bank = QuestionBank()
    questions = _mixed_questions(bank, unique, seed)
    # Negative dataset seeds keep warm-up questions apart from every
    # workload seed's timed questions.
    warmup = _mixed_questions(bank, WARMUP_QUESTIONS, -1 - seed)
    return Inputs(
        bank=bank, questions=questions, order=order,
        requests=[_request(questions[q], seed=seed, uid=f"q{i}")
                  for i, q in enumerate(order)],
        warmup=[_request(q, seed=seed, uid=f"w{i}")
                for i, q in enumerate(warmup)],
        due=due)


# --- the agent recipe ---------------------------------------------------------


class BenchSpec:
    """``AgentSpec``'s build surface over billed models.

    With a :class:`LayerProbe` the runner, its executors and its chain
    engines are instrumented (the traced run); without one the build is
    exactly what ``AgentSpec`` would build, over the billed model.
    """

    def __init__(self, workload: Workload, bank: QuestionBank, bill: Bill,
                 *, probe: LayerProbe | None = None):
        self.workload = workload
        self.bank = bank
        self.bill = bill
        self.probe = probe
        self.config_key = f"e2ebench:{workload.name}"

    def _model(self, seed: int, *, blocking: bool = False):
        model = SimulatedTQAModel(self.bank, get_profile(PROFILE), seed=seed)
        if self.workload.server == "async" and not blocking:
            return AsyncBillModel(model, self.bill)
        return BillModel(model, self.bill)

    def _registry(self):
        registry = default_registry(sql_backend=self.workload.sql_backend)
        if self.probe is None:
            return registry
        return LayerProbe.registry(registry)

    def build(self, seed: int):
        if self.probe is None:
            return self._build(seed)
        return timed("bench.serving.build", self._build, seed)

    def _build(self, seed: int):
        model, registry, probe = self._model(seed), self._registry(), self.probe
        if self.workload.voting == "s-vote":
            kwargs = {"registry": registry, "n": VOTE_SAMPLES,
                      "temperature": VOTE_TEMPERATURE}
            if probe is None:
                return SimpleMajorityVoting(model, **kwargs)
            return TracedVoter(model, probe=probe, **kwargs)
        if probe is None:
            return ReActTableAgent(model, registry=registry)
        return TracedAgent(model, probe=probe, registry=registry)

    def build_forced(self, seed: int) -> ReActTableAgent:
        """The degradation rung's runner (blocking, one iteration)."""
        return ReActTableAgent(self._model(seed, blocking=True),
                               registry=self._registry(), max_iterations=1)


# --- load generators ----------------------------------------------------------


@dataclass
class PassResult:
    """One timed pass: per-request responses and caller-side latencies."""

    responses: list
    #: Seconds, by request index: from submit (closed loop) or from the
    #: scheduled send time (open loop) to the caller holding the answer.
    latencies: list
    #: Load-generator lateness samples, seconds.
    lags: list
    #: First send to last answer, seconds.
    elapsed: float
    #: Process CPU seconds over the same window.
    cpu: float


class _Finished:
    """``PendingResponse`` listener: queues (index, finish time)."""

    __slots__ = ("done", "index")

    def __init__(self, done: queue.SimpleQueue, index: int):
        self.done = done
        self.index = index

    def set(self, response) -> None:
        self.done.put((self.index, time.perf_counter()))


def closed_loop_pool(pool: WorkerPool, requests: list,
                     outstanding: int) -> PassResult:
    """One client thread keeping ``outstanding`` requests in the pool.

    A request's latency ends when a worker resolves its response.  The
    client thread notices later, once it gets the interpreter lock back
    from the workers; that delay is an artefact of running the client
    in the server's process, so it is reported apart, as the lags.
    """
    count = len(requests)
    responses, latencies, lags = [None] * count, [0.0] * count, []
    sent_at, slots = [0.0] * count, {}
    done: queue.SimpleQueue = queue.SimpleQueue()

    def send(index: int) -> None:
        sent_at[index] = time.perf_counter()
        slot = pool.submit_request(requests[index])
        slots[index] = slot
        slot.add_listener(_Finished(done, index), requests[index].uid)

    cpu, started = time.process_time(), time.perf_counter()
    following = min(outstanding, count)
    for index in range(following):
        send(index)
    for _ in range(count):
        index, finished = done.get()
        seen = time.perf_counter()
        responses[index] = slots.pop(index).result()
        latencies[index] = finished - sent_at[index]
        lags.append(seen - finished)
        if following < count:
            send(following)
            following += 1
    return PassResult(responses, latencies, lags,
                      time.perf_counter() - started,
                      time.process_time() - cpu)


async def _heartbeat(lags: list, period: float) -> None:
    """An open-loop generator of empty events, one due every ``period``.

    Events fall due on a fixed schedule, so a stalled loop yields one
    late sample per missed event, however long the stall.
    """
    due = time.perf_counter()
    while True:
        due += period
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - due))


async def closed_loop_async(answer, requests: list, clients: int, *,
                            heartbeat: float | None = None) -> PassResult:
    """``clients`` coroutines, each sending its next request on an answer.

    With ``heartbeat`` (seconds), :func:`_heartbeat` runs beside the
    clients and its lateness samples are the lags.
    """
    count = len(requests)
    responses, latencies, lags = [None] * count, [0.0] * count, []
    pending = iter(range(count))

    async def client() -> None:
        for index in pending:
            sent = time.perf_counter()
            responses[index] = await answer(requests[index])
            latencies[index] = time.perf_counter() - sent

    probe = (asyncio.create_task(_heartbeat(lags, heartbeat))
             if heartbeat else None)
    cpu, started = time.process_time(), time.perf_counter()
    try:
        await asyncio.gather(*(client() for _ in range(clients)))
    finally:
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu
        if probe is not None:
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
    return PassResult(responses, latencies, lags, elapsed, cpu)


async def open_loop(answer, requests: list, due: list) -> PassResult:
    """Send ``requests[i]`` at ``due[i]`` seconds, whatever is in flight.

    Latency runs from the scheduled send time, so a stalled generator
    charges its stall to every request it sent late; the lags are how
    late the generator fired each request.
    """
    count = len(requests)
    responses, latencies, lags = [None] * count, [0.0] * count, []

    async def one(index: int, due_at: float) -> None:
        responses[index] = await answer(requests[index])
        latencies[index] = time.perf_counter() - due_at

    tasks = []
    cpu, started = time.process_time(), time.perf_counter()
    for index, offset in enumerate(due):
        due_at = started + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - due_at))
        tasks.append(asyncio.create_task(one(index, due_at)))
    await asyncio.gather(*tasks)
    return PassResult(responses, latencies, lags,
                      time.perf_counter() - started,
                      time.process_time() - cpu)


# --- serving sessions ---------------------------------------------------------


class _PoolSession:
    def __init__(self, workload: Workload, spec: BenchSpec):
        self.workload = workload
        self.pool = WorkerPool(
            spec, workers=workload.capacity,
            queue_capacity=max(16, 2 * workload.concurrency),
            reflect=False, batch_scheduler=False).start()

    def attach(self, telemetry) -> None:
        self.pool.telemetry = telemetry

    def run(self, requests: list, due=None, *,
            heartbeat: float | None = None) -> PassResult:
        return closed_loop_pool(self.pool, requests,
                                self.workload.concurrency)

    def close(self) -> None:
        self.pool.shutdown(wait=True)


class _AsyncSession:
    def __init__(self, workload: Workload, spec: BenchSpec, cache_size: int):
        self.workload = workload
        self.loop = asyncio.Runner()
        cache = None
        if workload.cached:
            kind = AnswerCache if spec.probe is None else TimedAnswerCache
            cache = kind(capacity=cache_size)
        self.server = AsyncServer(
            spec, max_inflight=workload.capacity, max_queued=None,
            cache=cache, reflect=False)

    def attach(self, telemetry) -> None:
        self.server.telemetry = telemetry

    def run(self, requests: list, due=None, *,
            heartbeat: float | None = None) -> PassResult:
        if due is not None:
            return self.loop.run(open_loop(self.server.answer, requests,
                                           due))
        return self.loop.run(closed_loop_async(
            self.server.answer, requests, self.workload.concurrency,
            heartbeat=heartbeat))

    def close(self) -> None:
        try:
            self.loop.run(self.server.close())
        finally:
            self.loop.close()


def open_session(workload: Workload, inputs: Inputs, spec: BenchSpec):
    """Start the workload's server: a worker pool or an async server."""
    if workload.server == "pool":
        return _PoolSession(workload, spec)
    cache_size = 2 * (len(inputs.questions) + len(inputs.warmup))
    return _AsyncSession(workload, spec, cache_size)
