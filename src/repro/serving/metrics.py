"""Serving metrics: throughput, latency percentiles, cache and queue health.

One :class:`ServingMetrics` instance is shared by a pool's workers (it is
thread-safe) and aggregates everything a deployment dashboard would plot:
questions/sec, p50/p95/p99 latency, cache hit rate, queue depth
high-water mark, timeout/retry counts, and the forced-answer
(degradation) rate — plus the fault-tolerance counters: injected faults
by kind, circuit breaker transitions and rejections, backoff time, and
terminal outcome classifications (see
:data:`repro.serving.request.OUTCOMES`).

Since the telemetry refactor the class is a facade over a per-instance
:class:`repro.telemetry.MetricsRegistry` (exposed as ``.registry``):
every count lives in a named Counter/Gauge/Histogram instrument, the
legacy attribute surface (``metrics.submitted`` ...) reads through to
the instruments, and :meth:`snapshot` keeps its historical dict shape.
Snapshots export as plain dicts or JSON.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry, percentile

__all__ = ["percentile", "ServingMetrics"]


class ServingMetrics:
    """Thread-safe aggregator over a serving run."""

    def __init__(self, *, clock=time.monotonic,
                 registry: MetricsRegistry | None = None):
        self._clock = clock
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._submitted = r.counter("serving.submitted")
        self._completed = r.counter("serving.completed")
        self._coalesced = r.counter("serving.coalesced")
        self._cache = r.counter("serving.cache_lookups")
        self._timeouts = r.counter("serving.timeouts")
        self._retries = r.counter("serving.retries")
        self._reflections = r.counter("serving.reflections")
        self._degraded = r.counter("serving.degraded")
        self._forced = r.counter("serving.forced_answers")
        self._errors = r.counter("serving.errors")
        self._queue_depth = r.gauge("serving.max_queue_depth")
        self._faults = r.counter("serving.faults_injected")
        self._breaker = r.counter("serving.breaker_events")
        self._backoffs = r.counter("serving.backoffs")
        self._backoff_seconds = r.counter("serving.backoff_seconds")
        self._outcomes = r.counter("serving.outcomes")
        self._rejections = r.counter("serving.rejections")
        self._observer_errors = r.counter("serving.observer_errors")
        self._latency = r.histogram("serving.latency_seconds")
        self._first_submit: float | None = None
        self._last_complete: float | None = None

    # --- recording (called by the pool and its workers) --------------------

    def record_submit(self, queue_depth: int) -> None:
        self._submitted.inc()
        self._queue_depth.set_max(queue_depth)
        with self._lock:
            if self._first_submit is None:
                self._first_submit = self._clock()

    def record_coalesced(self) -> None:
        self._submitted.inc()
        self._coalesced.inc()

    def record_cache(self, hit: bool) -> None:
        self._cache.inc(result="hit" if hit else "miss")

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_reflection(self) -> None:
        """Account one reflexion cycle spent by the reflect rung."""
        self._reflections.inc()

    def record_fault(self, site: str, kind: str) -> None:
        """Account one injected fault (the chaos harness's hook)."""
        self._faults.inc(site=site, kind=kind)

    def record_breaker_transition(self, old_state: str,
                                  new_state: str) -> None:
        """Account one circuit-breaker state change."""
        if new_state == "open":
            self._breaker.inc(event="opened")
        elif new_state == "closed" and old_state != "closed":
            self._breaker.inc(event="closed")

    def record_breaker_rejection(self) -> None:
        self._breaker.inc(event="rejected")

    def record_backoff(self, seconds: float) -> None:
        """Account one between-attempt backoff sleep."""
        self._backoffs.inc()
        self._backoff_seconds.inc(seconds)

    def record_rejection(self) -> None:
        """Account one request shed by admission control."""
        self._rejections.inc()

    def record_observer_error(self) -> None:
        """Account one exception swallowed from an on_complete observer."""
        self._observer_errors.inc()

    def record_response(self, response) -> None:
        """Account one completed :class:`TQAResponse`."""
        self._completed.inc()
        self._latency.observe(response.latency)
        if response.degraded:
            self._degraded.inc()
        if response.forced:
            self._forced.inc()
        if response.error:
            self._errors.inc()
        self._outcomes.inc(outcome=response.outcome or "unclassified")
        with self._lock:
            self._last_complete = self._clock()

    # --- the legacy attribute surface ---------------------------------------

    @property
    def submitted(self) -> int:
        return int(self._submitted.total())

    @property
    def completed(self) -> int:
        return int(self._completed.total())

    @property
    def coalesced(self) -> int:
        return int(self._coalesced.total())

    @property
    def cache_hits(self) -> int:
        return int(self._cache.value(result="hit"))

    @property
    def cache_misses(self) -> int:
        return int(self._cache.value(result="miss"))

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.total())

    @property
    def retries(self) -> int:
        return int(self._retries.total())

    @property
    def reflections(self) -> int:
        return int(self._reflections.total())

    @property
    def degraded(self) -> int:
        return int(self._degraded.total())

    @property
    def forced_answers(self) -> int:
        return int(self._forced.total())

    @property
    def errors(self) -> int:
        return int(self._errors.total())

    @property
    def max_queue_depth(self) -> int:
        return int(self._queue_depth.value())

    @property
    def faults_injected(self) -> int:
        return int(self._faults.total())

    @property
    def fault_kinds(self) -> dict[str, int]:
        """``"site:kind" -> count`` (the historical shape)."""
        result = {}
        for key, count in self._faults.values().items():
            labels = dict(key)
            result[f"{labels['site']}:{labels['kind']}"] = int(count)
        return result

    @property
    def breaker_opened(self) -> int:
        return int(self._breaker.value(event="opened"))

    @property
    def breaker_closed(self) -> int:
        return int(self._breaker.value(event="closed"))

    @property
    def breaker_rejections(self) -> int:
        return int(self._breaker.value(event="rejected"))

    @property
    def rejections(self) -> int:
        return int(self._rejections.total())

    @property
    def observer_errors(self) -> int:
        return int(self._observer_errors.total())

    @property
    def backoffs(self) -> int:
        return int(self._backoffs.total())

    @property
    def backoff_seconds(self) -> float:
        return self._backoff_seconds.total()

    @property
    def outcomes(self) -> dict[str, int]:
        result = {}
        for key, count in self._outcomes.values().items():
            result[dict(key)["outcome"]] = int(count)
        return result

    # --- derived rates ------------------------------------------------------

    @property
    def throughput(self) -> float:
        """Completed responses per second of wall-clock serving time."""
        completed = self.completed
        with self._lock:
            if (completed == 0 or self._first_submit is None
                    or self._last_complete is None):
                return 0.0
            elapsed = self._last_complete - self._first_submit
        if elapsed <= 0:
            return 0.0
        return completed / elapsed

    @property
    def cache_hit_rate(self) -> float:
        hits = self.cache_hits
        lookups = hits + self.cache_misses
        return hits / lookups if lookups else 0.0

    @property
    def forced_answer_rate(self) -> float:
        completed = self.completed
        return self.forced_answers / completed if completed else 0.0

    # --- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-ready dict with every counter and derived rate."""
        latencies = self._latency.values()
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reflections": self.reflections,
            "degraded": self.degraded,
            "forced_answers": self.forced_answers,
            "errors": self.errors,
            "max_queue_depth": self.max_queue_depth,
            "faults_injected": self.faults_injected,
            "fault_kinds": dict(sorted(self.fault_kinds.items())),
            "breaker_opened": self.breaker_opened,
            "breaker_closed": self.breaker_closed,
            "breaker_rejections": self.breaker_rejections,
            "rejections": self.rejections,
            "observer_errors": self.observer_errors,
            "backoffs": self.backoffs,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "outcomes": dict(sorted(self.outcomes.items())),
            "throughput_qps": round(self.throughput, 4),
            "latency_p50": round(percentile(latencies, 0.50), 6),
            "latency_p95": round(percentile(latencies, 0.95), 6),
            "latency_p99": round(percentile(latencies, 0.99), 6),
            "latency_mean": round(sum(latencies) / len(latencies), 6)
            if latencies else 0.0,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "forced_answer_rate": round(self.forced_answer_rate, 4),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the snapshot as JSON to ``path``."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path
