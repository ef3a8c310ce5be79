"""AST-level validation for generated Python code.

The Python executor runs LLM-generated code.  Even with a simulated model
the executor is a real ``exec`` call, so the sandbox enforces a conservative
policy before execution:

* no dunder attribute access (``x.__class__`` etc.);
* no calls to introspection/IO builtins (``open``, ``eval``, ``exec``,
  ``getattr``, ``globals``...);
* imports restricted to an allow-list (checked at runtime by the executor's
  ``__import__`` hook — the AST pass only rejects ``from x import *``);
* a bounded statement budget at runtime (via ``sys.settrace``) so infinite
  loops cannot hang the agent;
* a bounded output buffer: ``print`` writes into a per-execution buffer
  of at most :data:`MAX_OUTPUT_CHARS` characters, discarded after the
  run, so generated code never writes to the serving process's stdout.
"""

from __future__ import annotations

import ast
import io
import sys

from repro.errors import SandboxViolationError

__all__ = ["validate_code", "StepLimiter", "SAFE_BUILTINS",
           "MAX_OUTPUT_CHARS", "buffered_print"]

#: Characters one execution may print before it is stopped.
MAX_OUTPUT_CHARS = 100_000

_FORBIDDEN_CALLS = frozenset({
    "open", "eval", "exec", "compile", "input", "globals", "locals",
    "vars", "getattr", "setattr", "delattr", "breakpoint", "exit",
    "quit", "help", "memoryview", "object", "super", "type",
})

_ALLOWED_BUILTIN_NAMES = (
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
    "float", "format", "frozenset", "hash", "int", "isinstance",
    "issubclass", "iter", "len", "list", "map", "max", "min", "next",
    "ord", "chr", "pow", "print", "range", "repr", "reversed", "round",
    "set", "slice", "sorted", "str", "sum", "tuple", "zip",
    "ValueError", "TypeError", "KeyError", "IndexError", "ZeroDivisionError",
    "ArithmeticError", "AttributeError", "Exception", "StopIteration",
    "RuntimeError", "OverflowError",
)


def _build_safe_builtins() -> dict:
    import builtins
    return {name: getattr(builtins, name) for name in _ALLOWED_BUILTIN_NAMES}


#: The builtins namespace handed to generated code (import added at runtime).
SAFE_BUILTINS = _build_safe_builtins()


def validate_code(code: str) -> ast.Module:
    """Parse and validate generated Python; returns the AST on success.

    Raises :class:`SandboxViolationError` (a ``PythonExecutionError``) if
    the code violates the sandbox policy, and plain ``SyntaxError`` is
    wrapped in the same error type so the agent's generic exception path
    handles both.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        raise SandboxViolationError(
            f"syntax error in generated Python: {exc}", code=code) from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("__"):
            raise SandboxViolationError(
                f"dunder attribute access forbidden: {node.attr}", code=code)
        if isinstance(node, ast.Name) and node.id in _FORBIDDEN_CALLS:
            raise SandboxViolationError(
                f"use of {node.id!r} is forbidden in the sandbox", code=code)
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "*" for alias in node.names):
            raise SandboxViolationError(
                "star imports are forbidden in the sandbox", code=code)
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            raise SandboxViolationError(
                "global/nonlocal declarations are forbidden", code=code)
    return tree


class StepLimiter:
    """Context manager bounding the number of traced lines executed.

    Uses ``sys.settrace`` so a generated ``while True`` loop aborts with
    :class:`SandboxViolationError` instead of hanging the benchmark run.
    """

    def __init__(self, max_steps: int = 2_000_000):
        self.max_steps = max_steps
        self._steps = 0
        self._previous = None

    def _trace(self, frame, event, arg):
        if event == "line":
            self._steps += 1
            if self._steps > self.max_steps:
                raise SandboxViolationError(
                    f"step budget of {self.max_steps} lines exceeded")
        return self._trace

    def __enter__(self) -> "StepLimiter":
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        sys.settrace(self._previous)


def buffered_print():
    """A ``print`` for one execution, writing into a bounded buffer.

    Output past :data:`MAX_OUTPUT_CHARS` raises
    :class:`SandboxViolationError`, and so does every later call, which
    writes nothing more: code that swallows the error cannot grow the
    buffer.  Nothing reads the buffer; it is dropped with the execution.
    """
    buffer = io.StringIO()

    def sandbox_print(*values, sep=" ", end="\n", file=None, flush=False):
        if buffer.tell() <= MAX_OUTPUT_CHARS:
            print(*values, sep=sep, end=end, file=buffer)
        if buffer.tell() > MAX_OUTPUT_CHARS:
            raise SandboxViolationError(
                f"output budget of {MAX_OUTPUT_CHARS} characters exceeded")

    return sandbox_print
