"""The SQL code executor with the paper's exception handling.

Two interchangeable backends execute the query:

* ``"sqlite"`` — the stdlib :mod:`sqlite3` engine the paper used.  Every
  table in the history is in the calling thread's in-memory database when
  the query runs, so queries can reference any of them.  That database is
  kept across queries (:class:`WarmDatabase`): only tables the thread's
  previous query did not hold with the same content are loaded, and held
  tables outside the history are dropped.
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
import threading
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

__all__ = ["SQLExecutor", "WarmDatabase", "WARM_DATABASE",
           "run_sqlite_query", "rewrite_from_table"]

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


def _load(connection: sqlite3.Connection, name: str,
          frame: DataFrame) -> None:
    """Create table ``name`` with the frame's declared types and fill it.

    Rows go in in frame order (so rowids are 1..n), missing values as
    NULL and bools as integers, each chunk as one multi-row ``INSERT``:
    one statement steps once, where ``executemany`` stepped (and released
    the interpreter lock) once per row.  A chunk holds as many rows as the
    connection's bound on ``?`` parameters allows.
    """
    quoted = _quote(name)
    column_defs = ", ".join(
        f"{_quote(col)} {_SQLITE_TYPE[frame.column(col).dtype]}"
        for col in frame.columns)
    connection.execute(f"CREATE TABLE {quoted} ({column_defs})")
    rows = frame.to_rows()
    width = frame.num_columns
    chunk = max(1, connection.getlimit(
        sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER) // width)
    row_marks = "(" + ", ".join("?" * width) + ")"
    for start in range(0, len(rows), chunk):
        part = rows[start:start + chunk]
        values = ", ".join([row_marks] * len(part))
        connection.execute(
            f"INSERT INTO {quoted} VALUES {values}",
            [None if is_missing(value)
             else (int(value) if isinstance(value, bool) else value)
             for row in part for value in row])


class WarmDatabase(threading.local):
    """Each thread's one in-memory SQLite database, kept across queries.

    A thread's first query opens its database; nothing opens at import.
    The database holds exactly the tables of the thread's last query, each
    remembered with the :meth:`~repro.table.frame.DataFrame.content_digest`
    it was loaded from.  Before a query, :meth:`_sync` drops every held
    table the query's history does not name or whose content changed, and
    loads only the tables still missing, so a query sees its own history's
    tables and nothing else.

    The database lives per thread, not per executor: serving builds
    executors per attempt, so a per-executor database would still open
    once per attempt.  :meth:`clear` closes the calling thread's
    database; one whose thread ended is freed by the garbage collector.

    Statements are never cached (``cached_statements=0``), so each one is
    prepared under the authorizer in force: a query whose text repeats a
    load statement cannot run unauthorized from a statement cache.
    Autocommit (``isolation_level=None``) keeps any transaction from
    spanning queries.
    """

    def __init__(self):
        self._connection: sqlite3.Connection | None = None
        #: Held table name -> content digest of the frame it was loaded from.
        self._held: dict[str, str] = {}

    def query(self, sql: str, tables: dict[str, DataFrame]) -> DataFrame:
        """Run ``sql`` over exactly ``tables`` on this thread's database."""
        connection = self._connection
        if connection is None:
            connection = self._connection = sqlite3.connect(
                ":memory:", isolation_level=None, cached_statements=0)
        try:
            connection.set_authorizer(None)
            self._sync(connection, tables)
        except BaseException:
            # A half-done load leaves tables the held map does not
            # describe; start the thread's next query on a new database.
            self.clear()
            raise
        connection.set_authorizer(_authorize_query)
        cursor = connection.cursor()
        try:
            cursor.execute(sql)
            if cursor.description is None:  # e.g. SQL that is only a comment
                raise sqlite3.ProgrammingError(
                    "statement returned no result set")
            columns = [desc[0] for desc in cursor.description]
            rows = [tuple(row) for row in cursor.fetchall()]
        finally:
            cursor.close()
        return DataFrame.from_rows(rows, _dedupe(columns))

    def _sync(self, connection: sqlite3.Connection,
              tables: dict[str, DataFrame]) -> None:
        """Make the held tables exactly ``tables``, loading only changes."""
        held = self._held
        for name, digest in list(held.items()):
            frame = tables.get(name)
            if frame is None or frame.content_digest() != digest:
                del held[name]
                connection.execute(f"DROP TABLE {_quote(name)}")
        for name, frame in tables.items():
            if name not in held:
                _load(connection, name, frame)
                held[name] = frame.content_digest()

    def clear(self) -> None:
        """Close the calling thread's database; the next query opens anew."""
        connection, self._connection, self._held = self._connection, None, {}
        if connection is not None:
            connection.close()


#: The warm database every sqlite query runs on, one per thread.
WARM_DATABASE = WarmDatabase()


def run_sqlite_query(sql: str, tables: dict[str, DataFrame]) -> DataFrame:
    """Execute one SELECT on the calling thread's warm SQLite database.

    The query sees exactly the frames in ``tables`` under their names,
    loaded as a fresh database would hold them: the same declared column
    types, rows in frame order (so the same rowids), NULL for missing
    values and bools as integers.  Tables the thread's previous query
    already loaded with the same content are kept; the rest are dropped
    or loaded (:class:`WarmDatabase`).  Returns the result as a frame;
    raises sqlite3 errors unchanged, including for a statement that is
    not a query, and the ``OverflowError`` or ``UnicodeEncodeError`` of a
    cell or text sqlite cannot take.

    Connection state is the one thing a fresh database would report
    otherwise: ``changes()``, ``total_changes()``, ``last_insert_rowid()``
    and ``sqlite_master``'s row order and root pages reflect the thread's
    load history.
    """
    return WARM_DATABASE.query(sql, tables)


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
            # parse and plan-rewrite children) inside execute_sql.
            with span("sql_execute", backend="sqlite"):
                try:
                    return run_sqlite_query(sql, catalog)
                except (OverflowError, UnicodeEncodeError) as exc:
                    # A cell sqlite cannot bind (an integer outside 64
                    # bits) or text it cannot encode (a lone surrogate)
                    # fails this candidate like any sqlite3 error.
                    raise sqlite3.InterfaceError(str(exc)) from exc
        return execute_sql(sql, catalog)

    @staticmethod
    def _from_table(sql: str) -> str | None:
        match = _FROM_RE.search(sql)
        return match.group(3) if match else None
