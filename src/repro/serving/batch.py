"""Batched evaluation: any benchmark through the worker pool.

:class:`BatchEvaluator` is the parallel counterpart of
:func:`repro.evalkit.runner.evaluate_agent`: it submits every benchmark
question to a :class:`~repro.serving.pool.WorkerPool` and scores the
responses with the *same* accumulation logic as the sequential runner, so
the resulting :class:`~repro.evalkit.runner.EvalReport` is directly
comparable — and, for greedy (temperature-0) configurations, identical
field for field regardless of worker count.

Determinism contract: every request is answered by a fresh agent seeded
from ``seed`` alone, so the report does not depend on worker count or
completion order.  Sampled (voting) configurations are self-consistent
across worker counts under the same contract, but are *not* bitwise equal
to the sequential runner, whose single shared model consumes draws in
question order.
"""

from __future__ import annotations

from repro.datasets.generators import Benchmark
from repro.evalkit.runner import EvalReport, make_report, record_result
from repro.serving.breaker import BreakerConfig
from repro.serving.cache import AnswerCache
from repro.serving.metrics import ServingMetrics
from repro.serving.policy import RetryPolicy
from repro.serving.pool import WorkerPool

__all__ = ["BatchEvaluator"]


class BatchEvaluator:
    """Run benchmarks through a worker pool; produce sequential-grade reports.

    ``spec`` is the per-request agent recipe (see
    :class:`~repro.serving.spec.AgentSpec`); ``seed`` plays the role of
    the sequential runner's model seed.  ``cache_size``/``cache_ttl``
    build an internal :class:`AnswerCache` when no explicit ``cache`` is
    given; the cache persists across :meth:`evaluate` calls, so repeated
    evaluations of overlapping workloads get warm-cache speedups.
    """

    def __init__(self, spec, *, workers: int = 4, seed: int = 1,
                 cache: AnswerCache | None = None, cache_size: int = 0,
                 cache_ttl: float | None = None,
                 policy: RetryPolicy | None = None,
                 metrics: ServingMetrics | None = None,
                 tracer=None, queue_capacity: int = 256,
                 breakers: BreakerConfig | None = None,
                 batch_scheduler: bool = False,
                 reflect=None):
        self.spec = spec
        self.workers = workers
        self.seed = seed
        if cache is None and cache_size > 0:
            cache = AnswerCache(cache_size, ttl=cache_ttl)
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.metrics = metrics or ServingMetrics()
        self.tracer = tracer
        self.queue_capacity = queue_capacity
        self.breakers = breakers
        self.batch_scheduler = batch_scheduler
        self.reflect = reflect
        #: Responses of the most recent :meth:`evaluate`, in benchmark
        #: order (serving metadata: latency, cached, attempts, ...).
        self.last_responses = []

    def evaluate(self, benchmark: Benchmark, *,
                 limit: int | None = None) -> EvalReport:
        """Score ``benchmark`` through the pool; same report shape as
        :func:`~repro.evalkit.runner.evaluate_agent`."""
        examples = (benchmark.examples[:limit] if limit
                    else benchmark.examples)
        with WorkerPool(self.spec, workers=self.workers, cache=self.cache,
                        policy=self.policy, metrics=self.metrics,
                        tracer=self.tracer,
                        queue_capacity=self.queue_capacity,
                        breakers=self.breakers,
                        batch_scheduler=self.batch_scheduler,
                        reflect=self.reflect) as pool:
            slots = [
                pool.submit(example.table, example.question,
                            seed=self.seed, uid=example.uid)
                for example in examples
            ]
            responses = [slot.result() for slot in slots]
        self.last_responses = responses
        report = make_report(benchmark.name, len(examples))
        for example, response in zip(examples, responses):
            record_result(report, benchmark.name, example, response)
        return report
