"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Executor failures additionally derive from
:class:`ExecutionError`, which the agent's exception handlers (Section 3.3 of
the paper) dispatch on.

Failure taxonomy
----------------

Every :class:`ReproError` subclass carries an **explicit** ``retryable``
classification (enforced by ``tools/lint_errors.py``, which runs as a
tier-1 test):

* ``retryable = True`` — *transient*: the same call may succeed if simply
  repeated (a backend blip, an expired attempt deadline).  The recovery
  stack (:class:`repro.llm.RetryingModel`, the serving pool's
  :class:`~repro.serving.policy.RetryPolicy`) retries these with
  deterministic exponential backoff.
* ``retryable = False`` — *permanent*: repeating the identical call cannot
  help (a parse bug, a missing column, bad SQL).  Retrying these wastes
  attempts and masks bugs; the degradation ladder moves straight to the
  next rung (re-seeded attempt → forced direct answer → classified error).

Transient errors additionally derive from the :class:`TransientError`
marker so ``except TransientError`` works; :func:`is_retryable` is the one
classification entry point and also covers the retryable builtins
(``ConnectionError``, ``TimeoutError``) a real API client would raise.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TransientError",
    "TableError",
    "ColumnNotFoundError",
    "SchemaError",
    "SQLError",
    "SQLSyntaxError",
    "SQLRuntimeError",
    "ExecutionError",
    "SQLExecutionError",
    "PythonExecutionError",
    "SandboxViolationError",
    "ModuleNotAllowedError",
    "AgentError",
    "ActionParseError",
    "IterationLimitError",
    "EngineProtocolError",
    "PromptError",
    "ModelError",
    "TransientModelError",
    "UnknownQuestionError",
    "DatasetError",
    "EvaluationError",
    "ServingError",
    "ServingTimeoutError",
    "CircuitOpenError",
    "QueueClosedError",
    "AdmissionRejectedError",
    "ReflectionError",
    "ReflectionUnsupportedError",
    "StrategyError",
    "UnknownStrategyError",
    "DuplicateStrategyError",
    "OperatorParseError",
    "RETRYABLE_BUILTINS",
    "is_retryable",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""

    #: Whether repeating the failed call may succeed (transient) or cannot
    #: (permanent).  Every subclass must restate this explicitly.
    retryable: bool = False


class TransientError(ReproError):
    """Marker base for transient failures: retrying the call may succeed."""

    retryable = True


class TableError(ReproError):
    """Errors raised by the DataFrame substrate (``repro.table``)."""

    retryable = False


class ColumnNotFoundError(TableError, KeyError):
    """A referenced column does not exist in the frame."""

    retryable = False

    def __init__(self, column: str, available: tuple[str, ...] = ()):
        self.column = column
        self.available = tuple(available)
        message = f"column {column!r} not found"
        if available:
            message += f" (available: {', '.join(available)})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message otherwise
        return self.args[0]


class SchemaError(TableError):
    """A frame or column was constructed with an inconsistent schema."""

    retryable = False


class SQLError(ReproError):
    """Errors raised by the native SQL engine (``repro.sqlengine``)."""

    retryable = False


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenised or parsed."""

    retryable = False

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SQLRuntimeError(SQLError):
    """The SQL parsed but failed during evaluation."""

    retryable = False


class ExecutionError(ReproError):
    """Base class for failures inside an external code executor."""

    retryable = False

    def __init__(self, message: str, *, code: str = ""):
        self.code = code
        super().__init__(message)


class SQLExecutionError(ExecutionError):
    """The SQL executor failed to run a query against any candidate table."""

    retryable = False


class PythonExecutionError(ExecutionError):
    """The Python executor raised while running generated code."""

    retryable = False


class SandboxViolationError(PythonExecutionError):
    """Generated Python attempted an operation the sandbox forbids."""

    retryable = False


class ModuleNotAllowedError(PythonExecutionError):
    """Generated Python imported a module outside the installable registry."""

    retryable = False

    def __init__(self, module: str, *, code: str = ""):
        self.module = module
        super().__init__(f"module {module!r} is not available and cannot be "
                         f"installed in this sandbox", code=code)


class AgentError(ReproError):
    """Errors raised by the ReAcTable agent loop."""

    retryable = False


class ActionParseError(AgentError):
    """The LLM completion could not be parsed into an action.

    Permanent by classification: the *same* completion will never parse,
    so the agent handles it structurally (force a direct answer) rather
    than re-asking the model for the identical prompt.
    """

    retryable = False


class IterationLimitError(AgentError):
    """The agent exceeded its hard iteration budget without answering."""

    retryable = False


class EngineProtocolError(AgentError):
    """A driver violated the sans-IO engine protocol.

    Raised when a driver sends a reply the engine is not waiting for
    (an :class:`~repro.engine.effects.ExecResult` while a model call is
    pending, a reply to a finished engine, ...).  Always a programming
    bug in the driver, never a runtime condition — repeating the call
    cannot help.
    """

    retryable = False


class PromptError(ReproError):
    """A prompt could not be built or re-parsed."""

    retryable = False


class ModelError(ReproError):
    """Errors raised by the language-model layer."""

    retryable = False


class TransientModelError(TransientError, ModelError):
    """A model backend failure that a retry may clear.

    The shape a wrapped API client (or the fault injector) raises for
    rate limits, 5xx responses, and dropped connections.
    """

    retryable = True


class UnknownQuestionError(ModelError):
    """The simulated model saw a question absent from its question bank."""

    retryable = False


class DatasetError(ReproError):
    """Errors raised while generating or loading benchmark datasets."""

    retryable = False


class EvaluationError(ReproError):
    """Errors raised by the evaluation kit."""

    retryable = False


class ServingError(ReproError):
    """Errors raised by the serving layer (``repro.serving``)."""

    retryable = False


class ServingTimeoutError(TransientError, ServingError):
    """A request attempt exceeded its serving deadline.

    Transient: a re-seeded attempt gets a fresh deadline and may complete.
    """

    retryable = True


class CircuitOpenError(ServingError):
    """A request was refused because the backend's circuit breaker is open.

    Deliberately *not* retryable at the call site: the breaker exists to
    shed load, so the correct response is to fail fast (or degrade), not
    to hammer the open circuit.
    """

    retryable = False


class QueueClosedError(ServingError):
    """An operation was attempted on a closed request queue."""

    retryable = False


class AdmissionRejectedError(TransientError, ServingError):
    """A request was shed by admission control before any work began.

    Raised by the async server when the inflight budget is exhausted and
    the fair queue is full — backpressure made typed.  Transient by
    classification: the overload that caused the shed drains, so the same
    request may succeed if re-submitted later (with client-side backoff).
    Unlike :class:`CircuitOpenError` it never enters the pool's attempt
    ladder — it is raised *to the submitter*, who decides when to retry.
    """

    retryable = True


class ReflectionError(ReproError):
    """Errors raised by the reflexion tier (``repro.reflect``).

    Permanent by classification: a reflection failure is handled
    structurally by the serving ladder (skip the rung, fall through to
    degradation), never by re-running the identical reflection.  The
    *model call* inside a reflection can still fail transiently — that
    surfaces as a :class:`TransientModelError`, not as this class.
    """

    retryable = False


class ReflectionUnsupportedError(ReflectionError):
    """The spec's runner cannot be driven through the reflect engine.

    Raised when a runner exposes neither ``engine_for`` nor
    ``chain_engines`` (tree/execution voters re-sample per step, so a
    chain-level reflection re-run has no seam to inject into).  The
    ladder treats it as "this rung does not apply", not as a failure.
    """

    retryable = False


class StrategyError(ReproError):
    """Errors raised by the strategy registry (``repro.strategies``)."""

    retryable = False


class UnknownStrategyError(StrategyError):
    """A strategy name not present in the registry was requested.

    Permanent by classification: the same lookup will never succeed —
    the caller holds a typo or an unregistered strategy, not a runtime
    condition.
    """

    retryable = False


class DuplicateStrategyError(StrategyError):
    """A strategy name was registered twice without ``replace=True``.

    Always a programming bug (two modules claiming one name), never a
    runtime condition.
    """

    retryable = False


class OperatorParseError(AgentError):
    """A chain-of-table operator payload could not be parsed.

    The same payload will never parse, so the engine handles it
    structurally — force a direct answer, exactly like
    :class:`ActionParseError` on a malformed completion.
    """

    retryable = False


#: Builtin exception types treated as transient by :func:`is_retryable` —
#: what a real HTTP/API client raises for network blips.  ``TimeoutError``
#: also covers ``socket.timeout`` (an alias since Python 3.10).
RETRYABLE_BUILTINS: tuple[type[BaseException], ...] = (
    ConnectionError,
    TimeoutError,
)


def is_retryable(exc: BaseException) -> bool:
    """Classify one exception against the failure taxonomy.

    :class:`ReproError` instances answer via their explicit ``retryable``
    attribute; the builtins in :data:`RETRYABLE_BUILTINS` are transient;
    everything else (programming errors, ``KeyboardInterrupt``, ...) is
    permanent.
    """
    if isinstance(exc, ReproError):
        return bool(exc.retryable)
    return isinstance(exc, RETRYABLE_BUILTINS)
