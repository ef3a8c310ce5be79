"""The fresh-database sqlite loader, kept as the warm database's oracle.

``run_sqlite_query_fresh`` is how the sqlite backend ran every query
before it kept a warm database per thread: open a new in-memory
database, create and fill every table of the history (``executemany``,
one row at a time), authorize only reads, run the query and close the
database.  Its results, errors and types are what the warm database must
reproduce.
"""

from __future__ import annotations

import sqlite3

from repro.executors.sql_executor import (
    _SQLITE_TYPE,
    _authorize_query,
    _dedupe,
    _quote,
)
from repro.table.frame import DataFrame
from repro.table.schema import is_missing


def run_sqlite_query_fresh(sql: str,
                           tables: dict[str, DataFrame]) -> DataFrame:
    """Execute one SELECT in a new in-memory SQLite database."""
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


def signature(run, sql: str, tables: dict[str, DataFrame]) -> tuple:
    """What a caller observes of ``run(sql, tables)``.

    A success gives its column names, dtypes and the ``repr`` of its rows
    (which tells ``1`` from ``1.0`` and ``True``); a failure gives its
    exception class and message.
    """
    try:
        frame = run(sql, tables)
    except Exception as exc:  # noqa: BLE001 - parity includes the error
        return ("error", type(exc), str(exc))
    return ("ok", frame.columns,
            [str(dtype) for dtype in frame.dtypes.values()],
            repr(frame.to_rows()))
