"""Tests for the SQL executor and its retry exception handling."""

import pytest

from repro.errors import SQLExecutionError
from repro.executors import SQLExecutor, rewrite_from_table
from repro.table import DataFrame


@pytest.fixture(params=["sqlite", "native"])
def executor(request):
    return SQLExecutor(request.param)


@pytest.fixture
def history(cyclists):
    t1 = cyclists.select(["Cyclist", "Points"]).with_name("T1")
    return [cyclists, t1]


class TestBasicExecution:
    def test_simple_select(self, executor, cyclists):
        outcome = executor.execute(
            "SELECT Cyclist FROM T0 WHERE Rank <= 2", [cyclists])
        assert outcome.table.num_rows == 2
        assert not outcome.recovered
        assert outcome.executed_against == "T0"

    def test_latest_table_addressable(self, executor, history):
        outcome = executor.execute(
            "SELECT Cyclist FROM T1 WHERE Points > 20", history)
        assert outcome.table.num_rows == 3

    def test_earlier_table_addressable(self, executor, history):
        outcome = executor.execute(
            "SELECT Team FROM T0 WHERE Rank = 1", history)
        assert outcome.table.to_rows() == [("Caisse d'Epargne",)]

    def test_trailing_semicolon_ok(self, executor, cyclists):
        outcome = executor.execute("SELECT COUNT(*) FROM T0;",
                                   [cyclists])
        assert outcome.table.to_rows() == [(4,)]

    def test_empty_sql_raises(self, executor, cyclists):
        with pytest.raises(SQLExecutionError):
            executor.execute("   ;  ", [cyclists])

    def test_no_tables_raises(self, executor):
        with pytest.raises(SQLExecutionError):
            executor.execute("SELECT 1 FROM T0", [])


class TestRetryMechanism:
    def test_stale_column_rescued_by_previous_table(self, executor,
                                                    history):
        # Rank exists only in T0; the query names T1 — the paper's retry
        # mechanism reruns it against previous tables in reverse order.
        outcome = executor.execute(
            "SELECT Cyclist FROM T1 WHERE Rank <= 2", history)
        assert outcome.recovered
        assert outcome.table.num_rows == 2
        assert "T0" in outcome.handling_notes[0]

    def test_retry_disabled(self, history):
        executor = SQLExecutor("sqlite", retry_previous_tables=False)
        with pytest.raises(SQLExecutionError):
            executor.execute(
                "SELECT Cyclist FROM T1 WHERE Rank <= 2", history)

    def test_unrescuable_column_fails_everywhere(self, executor,
                                                 history):
        with pytest.raises(SQLExecutionError) as exc_info:
            executor.execute(
                "SELECT Cyclist FROM T1 WHERE NopeColumn = 1", history)
        assert "every candidate table" in str(exc_info.value)

    def test_error_carries_code(self, executor, cyclists):
        with pytest.raises(SQLExecutionError) as exc_info:
            executor.execute("SELECT Nope FROM T0", [cyclists])
        assert "Nope" in exc_info.value.code


class TestRewriteFromTable:
    def test_basic(self):
        assert rewrite_from_table(
            "SELECT a FROM T2 WHERE x = 1", "T0") == \
            "SELECT a FROM T0 WHERE x = 1"

    def test_case_insensitive_from(self):
        assert "T0" in rewrite_from_table("SELECT a from T2", "T0")

    def test_only_first_from_rewritten(self):
        sql = "SELECT a FROM T2 WHERE b IN (SELECT b FROM T1)"
        rewritten = rewrite_from_table(sql, "T0")
        assert rewritten.count("FROM T0") == 1
        assert "FROM T1" in rewritten

    def test_quoted_table(self):
        assert rewrite_from_table('SELECT a FROM "T2"', "T0") == \
            "SELECT a FROM T0"


class TestBackends:
    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            SQLExecutor("postgres")

    def test_backends_agree(self, cyclists):
        sql = ("SELECT Team, COUNT(*) FROM T0 GROUP BY Team "
               "ORDER BY COUNT(*) DESC, Team")
        sqlite_out = SQLExecutor("sqlite").execute(sql, [cyclists])
        native_out = SQLExecutor("native").execute(sql, [cyclists])
        from repro.table import tables_equivalent
        assert tables_equivalent(sqlite_out.table, native_out.table,
                                 ordered=True)

    def test_describe_mentions_backend(self):
        assert "sqlite" in SQLExecutor("sqlite").describe()

    def test_sqlite_accepts_wider_sql(self, cyclists):
        # A correlated subquery the native grammar cannot parse.
        outcome = SQLExecutor("sqlite").execute(
            "SELECT Cyclist FROM T0 WHERE Points = "
            "(SELECT MAX(Points) FROM T0)", [cyclists])
        assert outcome.table.to_rows() == [("Alejandro Valverde (ESP)",)]

    def test_boolean_columns_marshalled_to_sqlite(self):
        frame = DataFrame({"flag": [True, False, True]}, name="T0")
        outcome = SQLExecutor("sqlite").execute(
            "SELECT COUNT(*) FROM T0 WHERE flag = 1", [frame])
        assert outcome.table.to_rows() == [(2,)]

    def test_unnamed_history_tables_get_positional_names(self):
        frame = DataFrame({"x": [1]})  # no name
        outcome = SQLExecutor("sqlite").execute(
            "SELECT x FROM T0", [frame])
        assert outcome.table.to_rows() == [(1,)]


class TestNonQueryStatements:
    """Only queries run; anything else ends in the Section 3.3 handling."""

    STATEMENTS = [
        "/* x */",
        "-- only a comment",
        "PRAGMA table_info(T0)",
        "CREATE TABLE extra (a INTEGER)",
        "DELETE FROM T0",
        "ATTACH DATABASE '{path}' AS x",
    ]

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_ends_as_sql_execution_error(self, executor, history,
                                         statement, tmp_path):
        sql = statement.format(path=tmp_path / "attached.db")
        with pytest.raises(SQLExecutionError):
            executor.execute(sql, history)
        assert list(tmp_path.iterdir()) == []

    def test_a_denied_write_leaves_the_table_intact(self, history):
        executor = SQLExecutor("sqlite")
        with pytest.raises(SQLExecutionError):
            executor.execute("DELETE FROM T0", history)
        outcome = executor.execute("SELECT COUNT(*) FROM T0", history)
        assert outcome.table.to_rows() == [(4,)]

    def test_queries_still_run(self, executor, history):
        joined = executor.execute(
            "SELECT T0.Rank, T1.Points FROM T0 JOIN T1 "
            "ON T0.Cyclist = T1.Cyclist WHERE T1.Points > 25 "
            "ORDER BY T0.Rank", history)
        assert joined.table.to_rows() == [(1, 40), (2, 30)]
        grouped = executor.execute(
            "SELECT COUNT(*), MAX(Points) FROM T1", history)
        assert grouped.table.to_rows() == [(4, 40)]

    def test_sqlite_still_runs_ctes(self, history):
        executor = SQLExecutor("sqlite")
        outcome = executor.execute(
            "WITH top AS (SELECT Cyclist FROM T1 WHERE Points >= 30) "
            "SELECT COUNT(*) FROM top", history)
        assert outcome.table.to_rows() == [(2,)]
        recursive = executor.execute(
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL "
            "SELECT x + 1 FROM n WHERE x < 3) SELECT x FROM n", history)
        assert recursive.table.to_rows() == [(1,), (2,), (3,)]
