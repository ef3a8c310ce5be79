"""Serving requests, responses, and the bounded request queue.

A :class:`TQARequest` is one (table, question) unit of work with a
per-request seed — the serving layer's determinism contract is that the
response depends only on the request content, the seed, and the agent
configuration, never on which worker answers it or in what order.

:class:`RequestQueue` is the thread-safe bounded FIFO between producers
(:meth:`WorkerPool.submit <repro.serving.pool.WorkerPool.submit>`) and the
worker threads.  :class:`PendingResponse` is the hand-rolled future a
submit returns; it supports listener fan-out so duplicate in-flight
requests can be coalesced onto one computation.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import QueueClosedError
from repro.table.frame import DataFrame

__all__ = ["TQARequest", "TQAResponse", "PendingResponse", "RequestQueue",
           "OUTCOMES"]

#: The degradation ladder's terminal classifications, in ladder order.
#: Every response carries exactly one: ``ok`` (first attempt succeeded),
#: ``retried`` (a re-seeded attempt succeeded), ``reflected`` (the
#: reflexion rung improved on what the attempts produced — see
#: :class:`repro.serving.ladder.ReflectionRung`), ``degraded`` (all
#: attempts failed; the answer is the forced-direct fallback),
#: ``deadline_exceeded`` (every rung, including degradation, was cut off
#: by the request deadline), ``error_transient`` / ``error_permanent``
#: (even the fallback failed; classification per the failure taxonomy),
#: ``rejected`` (admission control shed the request before any work —
#: the async server's backpressure answer), plus ``cached`` for answers
#: served from the :class:`~repro.serving.cache.AnswerCache`.
OUTCOMES = ("ok", "retried", "reflected", "degraded", "deadline_exceeded",
            "error_transient", "error_permanent", "rejected", "cached")


@dataclass(frozen=True)
class TQARequest:
    """One unit of serving work: answer ``question`` over ``table``.

    ``seed`` selects the model randomness for this request; two requests
    with equal content and equal seeds must produce equal responses.
    ``tenant`` names the submitting party for the async server's
    weighted-fair queueing; it never enters the cache fingerprint (the
    answer does not depend on who asked).
    """

    table: DataFrame
    question: str
    seed: int = 0
    uid: str = ""
    tenant: str = "default"


@dataclass
class TQAResponse:
    """The serving layer's answer to one :class:`TQARequest`.

    Duck-compatible with :class:`repro.core.agent.AgentResult` where the
    evaluation kit is concerned (``answer`` / ``iterations`` / ``forced``
    / ``handling_events``), plus serving metadata.
    """

    uid: str
    answer: list[str]
    iterations: int = 0
    forced: bool = False
    handling_events: list[str] = field(default_factory=list)
    #: Answer came straight from the :class:`AnswerCache`.
    cached: bool = False
    #: Request was merged onto an identical in-flight computation.
    coalesced: bool = False
    #: All attempts failed; the answer is the degraded forced-direct one.
    degraded: bool = False
    #: Attempts actually run (1 = first try succeeded; 0 = cache hit).
    attempts: int = 1
    #: Reflexion cycles spent by the reflect rung (0 when disabled).
    reflections: int = 0
    #: Wall-clock seconds from dispatch (or submit, for coalesced
    #: requests) to completion.
    latency: float = 0.0
    #: Description of the last attempt failure, if any.
    error: str = ""
    #: Terminal classification on the degradation ladder (one of
    #: :data:`OUTCOMES`; ``""`` only for hand-built responses).
    outcome: str = ""

    @property
    def answer_text(self) -> str:
        return "|".join(self.answer)

    def replica(self, uid: str, *, coalesced: bool = False,
                latency: float = 0.0) -> "TQAResponse":
        """A copy of this response re-addressed to another request."""
        return TQAResponse(
            uid=uid, answer=list(self.answer),
            iterations=self.iterations, forced=self.forced,
            handling_events=list(self.handling_events),
            cached=self.cached or coalesced, coalesced=coalesced,
            degraded=self.degraded, attempts=0 if coalesced
            else self.attempts,
            reflections=0 if coalesced else self.reflections,
            latency=latency, error=self.error,
            outcome=self.outcome)


class PendingResponse:
    """A minimal future: set once by a worker, awaited by the submitter.

    ``add_listener`` subscribes another pending response to be resolved
    with a re-addressed copy when this one completes — the mechanism
    behind in-flight request coalescing.
    """

    def __init__(self):
        self._event = threading.Event()
        self._response: TQAResponse | None = None
        self._lock = threading.Lock()
        self._listeners: list[tuple["PendingResponse", str]] = []

    def set(self, response: TQAResponse) -> None:
        """Resolve with ``response`` and fan out to listeners."""
        with self._lock:
            self._response = response
            listeners = list(self._listeners)
            self._listeners.clear()
        self._event.set()
        for listener, uid in listeners:
            listener.set(response.replica(uid, coalesced=True))

    def add_listener(self, listener: "PendingResponse", uid: str) -> None:
        """Resolve ``listener`` (re-addressed to ``uid``) when this does."""
        with self._lock:
            if self._response is None:
                self._listeners.append((listener, uid))
                return
            response = self._response
        listener.set(response.replica(uid, coalesced=True))

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> TQAResponse:
        """Block until resolved; raises ``TimeoutError`` on timeout."""
        if not self._event.wait(timeout):
            raise TimeoutError("response not ready")
        assert self._response is not None
        return self._response


class RequestQueue:
    """A thread-safe bounded FIFO with close semantics.

    ``put`` blocks while the queue is full; ``get`` blocks while it is
    empty.  After :meth:`close`, ``put`` raises immediately and ``get``
    raises once the backlog drains — the worker-shutdown signal.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._high_water = 0

    @property
    def depth(self) -> int:
        """Current number of queued items."""
        with self._lock:
            return len(self._items)

    @property
    def high_water(self) -> int:
        """Largest depth ever observed."""
        with self._lock:
            return self._high_water

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, item, timeout: float | None = None) -> None:
        with self._not_full:
            if self._closed:
                raise QueueClosedError("queue is closed")
            while len(self._items) >= self.capacity:
                if not self._not_full.wait(timeout):
                    raise TimeoutError("queue full")
                if self._closed:
                    raise QueueClosedError("queue is closed")
            self._items.append(item)
            self._high_water = max(self._high_water, len(self._items))
            self._not_empty.notify()

    def get(self, timeout: float | None = None):
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise QueueClosedError("queue is closed")
                if not self._not_empty.wait(timeout):
                    raise TimeoutError("queue empty")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Refuse new items and wake every blocked producer/consumer."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()
