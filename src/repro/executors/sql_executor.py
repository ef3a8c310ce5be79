"""The SQL code executor with the paper's exception handling.

Two interchangeable backends execute the query:

* ``"sqlite"`` — the stdlib :mod:`sqlite3` engine the paper used.  Every
  table in the history is loaded into an in-memory database so queries can
  reference any of them.
* ``"native"`` — the from-scratch engine in :mod:`repro.sqlengine`.

Exception handling (Section 3.3, "SQL exceptions"): when a query fails —
typically because it references a column that only exists in an *earlier*
intermediate table — the executor retries the same query against previous
tables in reverse order, rewriting the FROM clause.  The retry trail is
reported in :class:`ExecutionOutcome.handling_notes`.

Outcomes are memoised per executor (:class:`ExecutionMemo`): a repeated
query over the same table history replays its result or its failure.
"""

from __future__ import annotations

import re
import sqlite3
from collections.abc import Sequence

from repro.errors import SQLError, SQLExecutionError
from repro.executors.base import (
    CodeExecutor,
    ExecutionMemo,
    ExecutionOutcome,
    history_key,
)
from repro.sqlengine.executor import execute_sql
from repro.table.frame import DataFrame
from repro.table.schema import ColumnType, is_missing
from repro.telemetry.spans import span

__all__ = ["SQLExecutor", "run_sqlite_query", "rewrite_from_table"]

_FROM_RE = re.compile(r"(\bFROM\s+)([\"\[\`]?)([A-Za-z_][A-Za-z0-9_]*)"
                      r"([\"\]\`]?)", re.IGNORECASE)

_SQLITE_TYPE = {
    ColumnType.NULL: "TEXT",
    ColumnType.BOOL: "INTEGER",
    ColumnType.INTEGER: "INTEGER",
    ColumnType.REAL: "REAL",
    ColumnType.TEXT: "TEXT",
}


#: The only actions a query may compile to once the tables are loaded.
#: Writes, schema changes, PRAGMA and ATTACH (which creates files) are
#: denied when the statement is prepared, before it can run.
_QUERY_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                            sqlite3.SQLITE_FUNCTION,
                            sqlite3.SQLITE_RECURSIVE})


def _authorize_query(action: int, *_) -> int:
    if action in _QUERY_ACTIONS:
        return sqlite3.SQLITE_OK
    return sqlite3.SQLITE_DENY


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def run_sqlite_query(sql: str, tables: dict[str, DataFrame]) -> DataFrame:
    """Execute one SELECT in an in-memory SQLite database.

    All frames in ``tables`` are loaded so the query may reference any of
    them.  Returns the result as a frame; raises sqlite3 errors unchanged,
    including for a statement that is not a query.
    """
    connection = sqlite3.connect(":memory:")
    try:
        cursor = connection.cursor()
        for name, frame in tables.items():
            column_defs = ", ".join(
                f"{_quote(col)} {_SQLITE_TYPE[frame.column(col).dtype]}"
                for col in frame.columns)
            cursor.execute(f"CREATE TABLE {_quote(name)} ({column_defs})")
            if frame.num_rows:
                placeholders = ", ".join("?" * frame.num_columns)
                cursor.executemany(
                    f"INSERT INTO {_quote(name)} VALUES ({placeholders})",
                    [
                        tuple(
                            None if is_missing(v)
                            else (int(v) if isinstance(v, bool) else v)
                            for v in row)
                        for row in frame.to_rows()
                    ])
        connection.set_authorizer(_authorize_query)
        cursor.execute(sql)
        if cursor.description is None:  # e.g. SQL that is only a comment
            raise sqlite3.ProgrammingError("statement returned no result set")
        columns = [desc[0] for desc in cursor.description]
        rows = [tuple(row) for row in cursor.fetchall()]
        return DataFrame.from_rows(rows, _dedupe(columns))
    finally:
        connection.close()


def _dedupe(names: list[str]) -> list[str]:
    from repro.table.schema import dedupe_column_names
    return dedupe_column_names(names)


def rewrite_from_table(sql: str, new_table: str) -> str:
    """Rewrite the (first) FROM clause of ``sql`` to reference ``new_table``.

    Works textually so it also applies to queries our native parser cannot
    fully handle (the sqlite backend accepts a larger SQL surface).
    """
    return _FROM_RE.sub(lambda m: m.group(1) + new_table, sql, count=1)


class SQLExecutor(CodeExecutor):
    """SQL tool with retry-over-previous-tables exception handling."""

    language = "sql"

    def __init__(self, backend: str = "sqlite", *,
                 retry_previous_tables: bool = True):
        if backend not in ("sqlite", "native"):
            raise ValueError(f"unknown SQL backend {backend!r}")
        self.backend = backend
        self.retry_previous_tables = retry_previous_tables
        self._memo = ExecutionMemo()

    def describe(self) -> str:
        return f"SQL executor ({self.backend} backend)"

    def execute(self, code: str,
                tables: Sequence[DataFrame]) -> ExecutionOutcome:
        return self._memo.run(self._memo_key(code, tables),
                              lambda: self._execute(code, tables))

    def _memo_key(self, code: str, tables: Sequence[DataFrame]) -> tuple:
        return (self.backend, self.retry_previous_tables, code,
                history_key(tables))

    def _execute(self, code: str,
                 tables: Sequence[DataFrame]) -> ExecutionOutcome:
        if not tables:
            raise SQLExecutionError("no tables available", code=code)
        catalog = {
            frame.name or f"T{index}": frame
            for index, frame in enumerate(tables)
        }
        sql = code.strip().rstrip(";").strip()
        if not sql:
            raise SQLExecutionError("empty SQL", code=code)

        notes: list[str] = []
        errors: list[str] = []
        # First attempt: the query as written (it can already reference any
        # table in the catalog).  Then, per the paper, retry with the FROM
        # clause rewritten to previous tables in reverse order.
        candidates = [None]
        if self.retry_previous_tables:
            candidates += [name for name in reversed(list(catalog))]
        for target in candidates:
            attempt_sql = sql if target is None else rewrite_from_table(
                sql, target)
            if target is not None and attempt_sql == sql:
                continue
            try:
                result = self._run(attempt_sql, catalog)
            except (SQLError, sqlite3.Error) as exc:
                errors.append(f"{target or 'as written'}: {exc}")
                continue
            executed_against = target or self._from_table(sql) or "?"
            if target is not None:
                notes.append(
                    f"query failed as written; retried against previous "
                    f"table {target}")
            return ExecutionOutcome(
                table=result,
                handling_notes=notes,
                executed_against=executed_against,
            )
        raise SQLExecutionError(
            "SQL failed on every candidate table: " + " | ".join(errors),
            code=code)

    def _run(self, sql: str, catalog: dict[str, DataFrame]) -> DataFrame:
        if self.backend == "sqlite":
            # The native backend opens its own sql_execute span (with
            # parse/compile children) inside execute_sql.
            with span("sql_execute", backend="sqlite"):
                return run_sqlite_query(sql, catalog)
        return execute_sql(sql, catalog)

    @staticmethod
    def _from_table(sql: str) -> str | None:
        match = _FROM_RE.search(sql)
        return match.group(3) if match else None
