"""Executor protocol shared by the SQL and Python code executors.

An executor receives the generated code plus the *history* of tables
``[T0, T1, ..., Tk]`` (original table first) and returns the next
intermediate table.  The :class:`ExecutionOutcome` records which table the
code actually ran against and any exception handling that was applied —
the agent logs this and the ablation benchmarks switch it off.

The built-in executors remember their outcomes in an
:class:`ExecutionMemo`: the chains of an s-vote mostly run the same code
over the same tables, and each distinct call needs to run only once.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.errors import ExecutionError, is_retryable
from repro.sqlengine.plancache import PlanCache
from repro.table.frame import DataFrame
from repro.telemetry.metrics import GLOBAL_REGISTRY

__all__ = ["CodeExecutor", "ExecutionOutcome", "ExecutionMemo",
           "history_key"]


@dataclass
class ExecutionOutcome:
    """The result of running one generated code block."""

    table: DataFrame
    #: Human-readable notes about recovery actions (retries, installs).
    handling_notes: list[str] = field(default_factory=list)
    #: Name of the table the code ultimately executed against.
    executed_against: str = ""

    @property
    def recovered(self) -> bool:
        """True if exception handling was needed to produce the result."""
        return bool(self.handling_notes)


class CodeExecutor(abc.ABC):
    """Interface for the external tools of the ReAcTable loop."""

    #: Language tag matched against the LLM action ("sql", "python", ...).
    language: str = ""

    @abc.abstractmethod
    def execute(self, code: str,
                tables: Sequence[DataFrame]) -> ExecutionOutcome:
        """Run ``code`` against the table history and return the new table.

        ``tables`` is ordered oldest-first (``tables[0]`` is T0,
        ``tables[-1]`` the latest intermediate table).  Raises a subclass of
        :class:`repro.errors.ExecutionError` on failure.
        """

    def describe(self) -> str:
        """One-line description used in prompts and documentation."""
        return f"{self.language} code executor"


def history_key(tables: Sequence[DataFrame]) -> tuple:
    """The table history as ordered ``(name, content digest)`` pairs."""
    return tuple((frame.name, frame.content_digest()) for frame in tables)


def _detached(error: ExecutionError) -> ExecutionError:
    """A copy of ``error`` without traceback, cause or context.

    Built without calling ``__init__``, which for some classes (such as
    :class:`~repro.errors.ModuleNotAllowedError`) formats the message
    again from its arguments.
    """
    clone = type(error).__new__(type(error), *error.args)
    clone.__dict__.update(error.__dict__)
    return clone


def _clone(outcome: ExecutionOutcome) -> ExecutionOutcome:
    """An outcome whose frame and notes the receiver may mutate freely."""
    return ExecutionOutcome(outcome.table.copy(),
                            list(outcome.handling_notes),
                            outcome.executed_against)


class ExecutionMemo:
    """One executor's outcomes, replayed when an identical call repeats.

    The executor builds each key from its own state, the code and
    :func:`history_key`.  A miss runs the call; a hit replays its outcome
    without running anything: a clone of the stored success, or a fresh
    copy of the stored failure.  Only a non-retryable
    :class:`~repro.errors.ExecutionError` is stored as a failure; any
    other exception propagates and leaves no entry.  Stored failures carry
    no traceback, which would keep the executor's frames (and so this
    memo) alive in a reference cycle.
    """

    #: Entries kept, least recently used evicted first.  One serving
    #: attempt builds its own executors and runs a few dozen calls.
    CAPACITY = 128

    def __init__(self):
        self._entries = PlanCache(self.CAPACITY)

    def run(self, key, execute: Callable[[], ExecutionOutcome]
            ) -> ExecutionOutcome:
        entry = self._entries.get(key)
        GLOBAL_REGISTRY.counter(
            "cache.lookups", "cache lookups by cache name and result").inc(
                cache="exec", result="miss" if entry is None else "hit")
        if isinstance(entry, ExecutionError):
            raise _detached(entry)
        if entry is not None:
            return _clone(entry)
        try:
            outcome = execute()
        except ExecutionError as error:
            if not is_retryable(error):
                self._entries.put(key, _detached(error))
            raise
        self._entries.put(key, _clone(outcome))
        return outcome
