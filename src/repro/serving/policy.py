"""Per-request timeout and bounded-retry policy, with degradation.

:class:`RetryPolicy` decides how many attempts a request gets, how long
each may take (``timeout``, turned into an absolute deadline per
attempt; the :class:`~repro.engine.EffectHandler` that runs the attempt
checks it around every model round trip), how each attempt's seed is
derived (deterministically, so retries are reproducible but explore
different model randomness), how long the ladder backs off between
attempts (deterministic exponential schedule with seeded jitter — see
:class:`repro.retry.ExponentialBackoff`), and whether an exhausted
request degrades to a forced direct answer instead of failing.
:class:`ReflectPolicy` sets the reflexion rung's budget and seeds, and
:func:`classify_failure` is the ladder's terminal rung.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import CircuitOpenError, ServingTimeoutError, is_retryable
from repro.retry import ExponentialBackoff

__all__ = ["RetryPolicy", "classify_failure", "ReflectPolicy"]


def classify_failure(exc: Exception | None) -> str:
    """Terminal-error rung of the ladder, per the failure taxonomy.

    Deadline expiry gets its own classification (rather than the generic
    transient bucket): a ``deadline_exceeded`` response means the ladder
    ran out of *time*, not out of attempts, which callers treat
    differently (resubmit with a longer budget, not a retry).  An open
    circuit is permanent from the *request's* point of view even though
    ``CircuitOpenError`` is marked non-retryable rather than transient:
    retrying inside the same request cannot close the circuit, so the
    ladder must not spin on it.  Shared by the thread pool and the async
    server so both classify identically.
    """
    if isinstance(exc, ServingTimeoutError):
        return "deadline_exceeded"
    if isinstance(exc, CircuitOpenError):
        return "error_permanent"
    if exc is not None and is_retryable(exc):
        return "error_transient"
    return "error_permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """How the pool treats one request's failures.

    ``timeout`` is wall-clock seconds per *attempt* (``None`` disables
    deadlines); ``max_retries`` is the number of extra attempts after the
    first.  When every attempt fails and ``degrade_on_exhaustion`` is
    set, the worker runs a one-iteration forced-direct-answer chain (the
    paper's Section 3.3 fallback) instead of returning an error.
    """

    timeout: float | None = None
    max_retries: int = 1
    #: Seed offset between attempts; prime so attempt seeds of nearby
    #: request seeds never collide.
    retry_seed_stride: int = 7919
    degrade_on_exhaustion: bool = True
    #: Deterministic between-attempt backoff; ``None`` retries
    #: immediately (the historical behaviour and the test default).
    backoff: ExponentialBackoff | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def attempt_seed(self, base_seed: int, attempt: int) -> int:
        """Deterministic seed for attempt ``attempt`` (0-based)."""
        return base_seed + attempt * self.retry_seed_stride

    def backoff_delay(self, base_seed: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (0-based), jittered
        deterministically from the request's base seed."""
        if self.backoff is None:
            return 0.0
        return self.backoff.delay(attempt, seed=base_seed)

    def deadline(self, clock=time.monotonic) -> float | None:
        """Absolute deadline for an attempt starting now, or ``None``."""
        if self.timeout is None:
            return None
        return clock() + self.timeout


@dataclass(frozen=True)
class ReflectPolicy:
    """How (and whether) the ladder spends reflexion cycles.

    ``max_reflections`` bounds the verbal-retry budget per request;
    ``0`` keeps the rung wired but inert (the overhead-benchmark
    configuration).  Reflection seeds live in their own stride space so
    they can never collide with the retry ladder's attempt seeds.

    ``shared_memory`` is the determinism trade-off: the default fresh
    per-request memory keeps "equal request -> equal response" exact,
    while a process-shared memory lets later requests learn from earlier
    ones at the cost of arrival-order dependence.
    """

    max_reflections: int = 1
    #: Offsets the reflection seed space away from request seeds.
    reflect_seed_salt: int = 0x5EED
    #: Prime stride between successive reflections of one request.
    reflect_seed_stride: int = 104729
    #: Reflections retained per ``(table, question)`` episode.
    memory_per_key: int = 3
    #: Share one :class:`ReflectionMemory` across requests (opt-in).
    shared_memory: bool = False

    def __post_init__(self):
        if self.max_reflections < 0:
            raise ValueError("max_reflections must be >= 0")
        if self.memory_per_key < 1:
            raise ValueError("memory_per_key must be >= 1")

    def reflection_seed(self, base_seed: int, index: int) -> int:
        """Deterministic seed for reflection ``index`` (0-based)."""
        return (base_seed + self.reflect_seed_salt
                + index * self.reflect_seed_stride)
