"""The Python code executor with the paper's module-install handling.

Generated Python manipulates the table history through the pandas-style
:class:`repro.table.DataFrame` API.  The history is exposed as ``T0``,
``T1``, ... (and ``df`` aliases the latest table).  The result of the step
is, in order of precedence:

1. the variable ``T{k+1}`` (the next table index) if the code assigned it;
2. the variable ``result`` if assigned a frame;
3. the (copied) latest table — covering the common in-place mutation idiom
   ``T1["Country"] = T1.apply(...)`` from Figure 2 of the paper.

Module handling (Section 3.3, "Python module-not-found exception"): a small
set of modules is pre-imported; modules in the *installable registry*
simulate the paper's runtime ``pip install`` — on the first
``ModuleNotFoundError`` the executor "installs" (enables) the module and
reruns the code, recording the action in ``handling_notes``.

Outcomes are memoised per executor (:class:`ExecutionMemo`).  The set of
installed modules is part of the key: code that installed a module runs
again under the new set, and then carries no install note.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import (
    ModuleNotAllowedError,
    PythonExecutionError,
    SandboxViolationError,
)
from repro.executors.base import (
    CodeExecutor,
    ExecutionMemo,
    ExecutionOutcome,
    history_key,
)
from repro.executors.sandbox import (
    SAFE_BUILTINS,
    StepLimiter,
    buffered_print,
    validate_code,
)
from repro.table.frame import Column, DataFrame
from repro.telemetry.spans import span

__all__ = ["PythonExecutor", "PRELOADED_MODULES", "INSTALLABLE_MODULES"]

#: Modules imported into every sandbox session (as the paper pre-imports
#: ``re`` and ``datetime``).
PRELOADED_MODULES = ("re", "datetime", "math", "json", "string",
                     "collections")

#: Modules that are *not* preloaded but can be "installed at runtime" —
#: the offline stand-in for the paper's on-demand ``pip install``.
INSTALLABLE_MODULES = ("statistics", "itertools", "functools", "textwrap",
                       "difflib", "fractions", "decimal", "calendar",
                       "unicodedata", "heapq", "bisect")


class _MissingModule(Exception):
    """Internal signal: generated code imported an installable module."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class PythonExecutor(CodeExecutor):
    """Sandboxed Python tool operating on the DataFrame substrate."""

    language = "python"

    def __init__(self, *, allow_runtime_install: bool = True,
                 max_steps: int = 2_000_000):
        self.allow_runtime_install = allow_runtime_install
        self.max_steps = max_steps
        #: Modules enabled by runtime installs, persisted per executor so a
        #: module installed once stays available (like a real environment).
        self._installed: set[str] = set()
        self._memo = ExecutionMemo()

    def describe(self) -> str:
        return "Python executor (DataFrame sandbox)"

    def execute(self, code: str,
                tables: Sequence[DataFrame]) -> ExecutionOutcome:
        return self._memo.run(self._memo_key(code, tables),
                              lambda: self._execute(code, tables))

    def _memo_key(self, code: str, tables: Sequence[DataFrame]) -> tuple:
        return (self.allow_runtime_install, self.max_steps,
                frozenset(self._installed), code, history_key(tables))

    def _execute(self, code: str,
                 tables: Sequence[DataFrame]) -> ExecutionOutcome:
        if not tables:
            raise PythonExecutionError("no tables available", code=code)
        validate_code(code)
        notes: list[str] = []
        # One retry per newly installed module, as in the paper.
        for _ in range(1 + len(INSTALLABLE_MODULES)):
            try:
                with span("python_exec", chars=len(code)):
                    table = self._run(code, tables)
            except _MissingModule as missing:
                if not self.allow_runtime_install:
                    raise ModuleNotAllowedError(missing.name, code=code)
                self._installed.add(missing.name)
                notes.append(
                    f"installed module {missing.name!r} at runtime and "
                    f"reran the code")
                continue
            return ExecutionOutcome(
                table=table,
                handling_notes=notes,
                executed_against=tables[-1].name or f"T{len(tables) - 1}",
            )
        raise PythonExecutionError(
            "module installation loop did not converge", code=code)

    # --- sandbox session ----------------------------------------------------

    def _make_import(self):
        import importlib

        allowed = set(PRELOADED_MODULES) | self._installed

        def guarded_import(name, globals=None, locals=None, fromlist=(),
                           level=0):
            root = name.split(".")[0]
            if root in allowed:
                return importlib.import_module(name)
            if root in INSTALLABLE_MODULES:
                raise _MissingModule(root)
            raise ModuleNotAllowedError(root)

        return guarded_import

    def _build_globals(self, tables: Sequence[DataFrame]) -> dict:
        import importlib

        builtins_ns = dict(SAFE_BUILTINS)
        builtins_ns["__import__"] = self._make_import()
        builtins_ns["print"] = buffered_print()
        namespace: dict = {"__builtins__": builtins_ns}
        for module_name in PRELOADED_MODULES:
            namespace[module_name] = importlib.import_module(module_name)
        for module_name in self._installed:
            namespace[module_name] = importlib.import_module(module_name)
        # Table history: copies, so generated code cannot corrupt the
        # agent's state; in-place mutation is observed on the copy.
        for index, frame in enumerate(tables):
            namespace[f"T{index}"] = frame.copy()
        namespace["df"] = namespace[f"T{len(tables) - 1}"]
        namespace["DataFrame"] = DataFrame
        namespace["Column"] = Column
        return namespace

    def _run(self, code: str, tables: Sequence[DataFrame]) -> DataFrame:
        namespace = self._build_globals(tables)
        latest_key = f"T{len(tables) - 1}"
        next_key = f"T{len(tables)}"
        try:
            compiled = compile(code, "<generated>", "exec")
            with StepLimiter(self.max_steps):
                exec(compiled, namespace)  # noqa: S102 - sandboxed above
        except _MissingModule:
            raise
        except (SandboxViolationError, ModuleNotAllowedError):
            raise
        except Exception as exc:
            raise PythonExecutionError(
                f"{type(exc).__name__}: {exc}", code=code) from exc
        for key in (next_key, "result"):
            candidate = namespace.get(key)
            if isinstance(candidate, DataFrame):
                return candidate.copy()
        latest = namespace.get(latest_key)
        if isinstance(latest, DataFrame):
            return latest.copy()
        raise PythonExecutionError(
            "generated Python produced no DataFrame result", code=code)
