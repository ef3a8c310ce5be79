"""The layer boundaries of one request, as the benchmark sees them.

Two kinds of wrapper live here.

* The **simulated API bill** (:class:`Bill`, :class:`BillModel`,
  :class:`AsyncBillModel`) is part of every workload, traced or not.  It
  charges one fixed latency per model round trip plus a small cost per
  completion, like a remote completion API, and counts prompt and
  completion tokens at the model boundary with
  :func:`repro.telemetry.estimate_tokens`.
* The **layer probe** (:class:`LayerProbe`) exists only in the traced
  run.  It times the calls into each layer's public functions, records
  each call as a span (kind, start, end, parent, request) in a
  :class:`repro.telemetry.Telemetry` store with the thread CPU time it
  used, and turns the store into per-layer metrics.  Calls made with no
  store active (warm-up, the untraced pass) cost one context-variable
  read.

Busy time is thread CPU time inside a call; wait is the call's wall time
minus its CPU time (under two pool workers most of it is waiting for the
interpreter lock).
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import repro.core.prompt
import repro.engine.core
import repro.executors.sql_executor
from repro.aio import AsyncLanguageModel
from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.executors import ExecutorRegistry
from repro.executors.base import CodeExecutor
from repro.llm.base import LanguageModel
from repro.serving import AnswerCache
from repro.telemetry import Telemetry, estimate_tokens, span

__all__ = ["Bill", "BillModel", "AsyncBillModel", "LayerProbe",
           "TimedAnswerCache", "TracedAgent", "TracedVoter", "timed",
           "LAYERS", "SPAN_LAYER"]

_thread_time = time.thread_time


# --- the simulated API bill ---------------------------------------------------


class Bill:
    """Per-round-trip latency and the token count at the model boundary.

    Shared by every model one spec builds, so it is thread-safe.
    """

    def __init__(self, round_trip_s: float = 0.0,
                 per_completion_s: float = 0.0):
        self.round_trip_s = round_trip_s
        self.per_completion_s = per_completion_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.round_trips = 0
            self.prompts = 0
            self.completions = 0
            self.prompt_tokens = 0
            self.completion_tokens = 0

    def delay(self, completions: int) -> float:
        """Seconds one round trip returning ``completions`` costs."""
        return self.round_trip_s + completions * self.per_completion_s

    def record(self, prompts, batches) -> None:
        """Count one round trip: its prompts and their completion lists."""
        prompt_tokens = sum(estimate_tokens(prompt) for prompt in prompts)
        completion_tokens = sum(estimate_tokens(c.text)
                                for batch in batches for c in batch)
        completions = sum(len(batch) for batch in batches)
        with self._lock:
            self.round_trips += 1
            self.prompts += len(prompts)
            self.completions += completions
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens

    @property
    def tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def timed(kind: str, fn, *args, **kwargs):
    """Call ``fn`` inside a ``kind`` span carrying its thread CPU time.

    With no telemetry store active this is a plain call.
    """
    with span(kind) as record:
        if record is None:
            return fn(*args, **kwargs)
        started = _thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            record.attributes["cpu"] = _thread_time() - started


class BillModel(LanguageModel):
    """A blocking model that pays the bill before each round trip."""

    def __init__(self, inner: LanguageModel, bill: Bill, *,
                 sleep=time.sleep):
        self.inner = inner
        self.name = inner.name
        self.bill = bill
        self._sleep = sleep

    @property
    def supports_logprobs(self) -> bool:
        return self.inner.supports_logprobs

    def _wait(self, completions: int) -> None:
        with span("bench.llm.api_wait"):
            delay = self.bill.delay(completions)
            if delay > 0:
                self._sleep(delay)

    def _infer(self, prompt: str, temperature: float, n: int):
        return timed("bench.llm.complete", self.inner.complete, prompt,
                     temperature=temperature, n=n)

    def complete(self, prompt, *, temperature=0.0, n=1):
        self._wait(n)
        completions = self._infer(prompt, temperature, n)
        self.bill.record([prompt], [completions])
        return completions

    def complete_batch(self, requests):
        requests = list(requests)
        self._wait(sum(r.n for r in requests))
        batches = [self._infer(r.prompt, r.temperature, r.n)
                   for r in requests]
        self.bill.record([r.prompt for r in requests], batches)
        return batches


class AsyncBillModel(AsyncLanguageModel):
    """The awaitable twin: the round trip is awaited, not slept, so the
    event loop keeps every other request moving meanwhile."""

    def __init__(self, inner: LanguageModel, bill: Bill, *,
                 sleep=asyncio.sleep):
        self.inner = inner
        self.bill = bill
        self._sleep = sleep

    @property
    def name(self) -> str:
        return self.inner.name

    async def _wait(self, completions: int) -> None:
        # Wall time only: other coroutines run during the await, so
        # thread CPU time across it would not be this call's.
        with span("bench.llm.api_wait"):
            delay = self.bill.delay(completions)
            if delay > 0:
                await self._sleep(delay)

    def _infer(self, prompt: str, temperature: float, n: int):
        return timed("bench.llm.complete", self.inner.complete, prompt,
                     temperature=temperature, n=n)

    async def complete(self, prompt, *, temperature=0.0, n=1):
        await self._wait(n)
        completions = self._infer(prompt, temperature, n)
        self.bill.record([prompt], [completions])
        return completions

    async def complete_batch(self, requests):
        requests = list(requests)
        await self._wait(sum(r.n for r in requests))
        batches = [self._infer(r.prompt, r.temperature, r.n)
                   for r in requests]
        self.bill.record([r.prompt for r in requests], batches)
        return batches


# --- traced-run wrappers ------------------------------------------------------

#: Span kind -> the repo module (layer) whose public function it times.
SPAN_LAYER = {
    "bench.serving.build": "serving",
    "bench.serving.cache": "serving",
    "bench.engine.step": "engine",
    "bench.engine.prompt_build": "engine",
    "bench.engine.action_parse": "engine",
    "bench.engine.vote_tally": "engine",
    "bench.llm.complete": "llm",
    "bench.llm.api_wait": "llm",
    "bench.executors.sql": "executors",
    "bench.executors.python": "executors",
    "bench.sqlengine.execute": "sqlengine",
    "bench.perf.encode": "perf",
}

#: Layers with a busy-share metric, in dataflow order.
LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))


class TimedAnswerCache(AnswerCache):
    """The serving layer's answer cache, with timed lookups and stores."""

    def get(self, key):
        return timed("bench.serving.cache", super().get, key)

    def put(self, key, answer) -> None:
        timed("bench.serving.cache", super().put, key, answer)


class TimedExecutor(CodeExecutor):
    """Times one executor; marks SQL calls rescued by the FROM rewrite."""

    def __init__(self, inner: CodeExecutor):
        self.inner = inner
        self.language = inner.language
        self._kind = f"bench.executors.{inner.language}"

    def describe(self) -> str:
        return self.inner.describe()

    def execute(self, code, tables):
        with span(self._kind) as record:
            started = _thread_time()
            try:
                outcome = self.inner.execute(code, tables)
            finally:
                if record is not None:
                    record.attributes["cpu"] = _thread_time() - started
            if record is not None and self.language == "sql":
                # SQLExecutor notes exactly one thing: a retry against a
                # previous table after the query failed as written.
                record.attributes["retried"] = bool(outcome.handling_notes)
            return outcome


class _TimedPromptBuilder:
    """Stands in for a chain engine's prompt builder, timing ``build``."""

    def __init__(self, inner):
        self._inner = inner

    def build(self, transcript, *, force_answer: bool = False) -> str:
        with span("bench.engine.prompt_build") as record:
            if record is None:
                return self._inner.build(transcript,
                                         force_answer=force_answer)
            started = _thread_time()
            prompt = self._inner.build(transcript, force_answer=force_answer)
            record.attributes["cpu"] = _thread_time() - started
            record.attributes["chars"] = len(prompt)
            return prompt


class LayerProbe:
    """Instrumentation for the traced run: spans plus chain counters."""

    def __init__(self):
        self.telemetry = Telemetry()
        self._lock = threading.Lock()
        self.chains = 0
        self.chain_iterations = 0

    def _chain_done(self, iterations: int) -> None:
        with self._lock:
            self.chains += 1
            self.chain_iterations += iterations

    def instrument_engine(self, engine):
        """Time one chain engine's steps and prompt builds (in place)."""
        engine.prompt_builder = _TimedPromptBuilder(engine.prompt_builder)
        send = engine.send

        def step(reply):
            timed("bench.engine.step", send, reply)
            if engine.state == "done":
                self._chain_done(engine.iterations)

        engine.send = step
        return engine

    @staticmethod
    def registry(registry: ExecutorRegistry) -> ExecutorRegistry:
        """The same executors, in the same order, each one timed."""
        return ExecutorRegistry(TimedExecutor(executor)
                                for executor in registry)

    @contextmanager
    def patched(self):
        """Time the layers that have no injection seam.

        ``parse_action`` is called by name inside ``ChainEngine``, the
        encode cache by name inside ``PromptBuilder.build`` and the native
        engine by name inside ``SQLExecutor``; the traced run rebinds
        those module-level names and restores them on exit.
        """
        targets = [
            (repro.engine.core, "parse_action",
             "bench.engine.action_parse"),
            (repro.core.prompt, "encode_head_row_cached", "bench.perf.encode"),
            (repro.executors.sql_executor, "execute_sql",
             "bench.sqlengine.execute"),
        ]
        saved = [(module, name, getattr(module, name))
                 for module, name, _ in targets]
        try:
            for module, name, kind in targets:
                original = getattr(module, name)
                setattr(module, name, _timed_function(kind, original))
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)


def _timed_function(kind: str, fn):
    def wrapper(*args, **kwargs):
        return timed(kind, fn, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


class TracedAgent(ReActTableAgent):
    """The greedy agent with every chain engine instrumented."""

    def __init__(self, model, *, probe: LayerProbe, **kwargs):
        super().__init__(model, **kwargs)
        self.probe = probe

    def engine_for(self, table, question):
        return self.probe.instrument_engine(
            super().engine_for(table, question))


class TracedVoter(SimpleMajorityVoting):
    """s-vote with instrumented chains and a timed tally."""

    def __init__(self, model, *, probe: LayerProbe, **kwargs):
        super().__init__(model, **kwargs)
        self.probe = probe

    def chain_engines(self, table, question):
        return [self.probe.instrument_engine(engine)
                for engine in super().chain_engines(table, question)]

    def tally(self, results):
        return timed("bench.engine.vote_tally", super().tally, results)
