"""Concurrent TQA serving: queue → worker pool → cache → batched eval.

This package turns the single-question agent into a servable system:
bounded request queueing (:mod:`~repro.serving.request`), the request
ladder both servers run (:mod:`~repro.serving.ladder`), a pool of
concurrent per-request agents (:mod:`~repro.serving.pool`), a
content-fingerprinted LRU/TTL answer cache (:mod:`~repro.serving.cache`),
per-request timeout/retry with graceful degradation and deterministic
backoff (:mod:`~repro.serving.policy`), an optional reflexion rung
(:class:`~repro.serving.ladder.ReflectionRung` over :mod:`repro.reflect`,
armed with ``reflect=``), a per-backend circuit breaker
(:mod:`~repro.serving.breaker`), serving metrics
(:mod:`~repro.serving.metrics`), and a batched evaluation façade
(:mod:`~repro.serving.batch`) that reruns any benchmark through the pool.

Every request terminates with a classified outcome on the degradation
ladder (see :data:`~repro.serving.request.OUTCOMES`); the chaos harness
(:mod:`repro.faults`) injects deterministic faults against each of these
boundaries to prove it.
"""

from repro.serving.batch import BatchEvaluator
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.cache import AnswerCache, CachedAnswer, request_fingerprint
from repro.serving.daemon import ServeDaemon
from repro.serving.ladder import ReflectionRung
from repro.serving.metrics import ServingMetrics, percentile
from repro.serving.policy import ReflectPolicy, RetryPolicy, classify_failure
from repro.serving.pool import WorkerPool
from repro.serving.request import (
    OUTCOMES,
    PendingResponse,
    RequestQueue,
    TQARequest,
    TQAResponse,
)
from repro.serving.spec import AgentSpec

__all__ = [
    "TQARequest",
    "TQAResponse",
    "OUTCOMES",
    "PendingResponse",
    "RequestQueue",
    "AnswerCache",
    "CachedAnswer",
    "request_fingerprint",
    "RetryPolicy",
    "ReflectPolicy",
    "ReflectionRung",
    "classify_failure",
    "BreakerConfig",
    "CircuitBreaker",
    "ServingMetrics",
    "percentile",
    "AgentSpec",
    "WorkerPool",
    "BatchEvaluator",
    "ServeDaemon",
]
