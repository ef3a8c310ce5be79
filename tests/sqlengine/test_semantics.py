"""Oracle suite for NULL and type-class semantics.

Every test runs on both engine tiers — the vector kernels and the
recursive interpreter — via the ``engine`` fixture, so this file is the
explicit, per-case oracle the vector tier has to match (the randomized
differential test covers breadth; this covers the sharp edges with
readable failures).
"""

import sqlite3

import pytest

from repro.errors import SQLRuntimeError
from repro.executors.sql_executor import run_sqlite_query
from repro.sqlengine import execute_sql
from repro.table import DataFrame
from repro.telemetry.metrics import GLOBAL_REGISTRY


@pytest.fixture(params=["vector", "interpreted"])
def engine(request, monkeypatch):
    if request.param == "interpreted":
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
    return request.param


def _frame() -> DataFrame:
    return DataFrame({
        "name": ["a", "b", "c", "d", "e"],
        "score": [10, None, 30, None, 20],
        "mixed": ["5", "40", "x", None, "7"],
        "team": ["red", "blue", "red", "blue", "red"],
    }, name="T0")


def _rows(sql: str, frame: DataFrame | None = None):
    return execute_sql(sql, {"T0": frame or _frame()}).to_rows()


class TestNullInWhere:
    def test_null_comparison_excludes_row(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score > 5") == \
            [("a",), ("c",), ("e",)]

    def test_not_over_null_stays_null(self, engine):
        # NOT NULL is NULL, so b and d stay excluded.
        assert _rows("SELECT name FROM T0 WHERE NOT score > 5") == []

    def test_equals_null_never_matches(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score = NULL") == []

    def test_is_null(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score IS NULL") == \
            [("b",), ("d",)]

    def test_three_valued_or(self, engine):
        # d: NULL OR TRUE is TRUE; b: NULL OR FALSE is NULL (excluded).
        rows = _rows("SELECT name FROM T0 "
                     "WHERE score > 5 OR mixed IS NULL")
        assert rows == [("a",), ("c",), ("d",), ("e",)]

    def test_three_valued_and(self, engine):
        # b: NULL AND TRUE is NULL; never matches.
        rows = _rows("SELECT name FROM T0 "
                     "WHERE score > 5 AND team = 'red'")
        assert rows == [("a",), ("c",), ("e",)]

    def test_null_in_list_is_null(self, engine):
        assert _rows("SELECT name FROM T0 WHERE score IN (1, 2)") == []
        # value present beats the NULL item
        assert _rows("SELECT name FROM T0 "
                     "WHERE score IN (10, NULL)") == [("a",)]


class TestNullInHaving:
    def test_null_aggregate_fails_having(self, engine):
        # team blue only has NULL scores: SUM is NULL, HAVING drops it.
        rows = _rows("SELECT team, SUM(score) AS s FROM T0 "
                     "GROUP BY team HAVING s > 0")
        assert rows == [("red", 60)]

    def test_count_ignores_nulls(self, engine):
        rows = _rows("SELECT team, COUNT(score), COUNT(*) FROM T0 "
                     "GROUP BY team ORDER BY team")
        assert rows == [("blue", 0, 2), ("red", 3, 3)]


class TestTypeClasses:
    def test_numeric_string_coerces_in_comparison(self, engine):
        # '5' and '7' compare numerically; 'x' is text, which orders
        # after every number (SQLite type-class ordering).
        rows = _rows("SELECT name FROM T0 WHERE mixed > 6")
        assert rows == [("b",), ("c",), ("e",)]

    def test_text_orders_after_numbers(self, engine):
        assert _rows("SELECT name FROM T0 WHERE mixed < 1000") == \
            [("a",), ("b",), ("e",)]

    def test_division_by_zero_is_null(self, engine):
        assert _rows("SELECT score / 0 FROM T0 WHERE name = 'a'") == \
            [(None,)]

    def test_modulo_by_zero_is_null(self, engine):
        assert _rows("SELECT score % 0 FROM T0 WHERE name = 'a'") == \
            [(None,)]

    def test_integer_division_truncates(self, engine):
        assert _rows("SELECT score / 3 FROM T0 WHERE name = 'a'") == \
            [(3,)]

    def test_arithmetic_with_null_is_null(self, engine):
        assert _rows("SELECT score + 1 FROM T0 WHERE name = 'b'") == \
            [(None,)]


class TestJoinResolution:
    def test_ambiguous_suffix_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="ambiguous column"):
            _rows("SELECT score FROM T0 a JOIN T0 b ON a.name = b.name")

    def test_qualified_reference_resolves(self, engine):
        rows = _rows("SELECT a.score FROM T0 a JOIN T0 b "
                     "ON a.name = b.name WHERE a.name = 'a'")
        assert rows == [(10,)]

    def test_unique_suffix_resolves(self, engine):
        frame = DataFrame({"k": ["x", "y"], "v": [1, 2]}, name="T0")
        other = DataFrame({"k": ["x", "y"], "w": [3, 4]}, name="T1")
        result = execute_sql(
            "SELECT w FROM T0 a JOIN T1 b ON a.k = b.k ORDER BY w",
            {"T0": frame, "T1": other})
        assert result.to_rows() == [(3,), (4,)]

    def test_unknown_qualified_column(self, engine):
        with pytest.raises(SQLRuntimeError, match="no such column"):
            _rows("SELECT a.nope FROM T0 a JOIN T0 b ON a.name = b.name")


def _served_by(engine: str) -> None:
    """Every stage run so far in this test ran on ``engine``'s tier."""
    counts = GLOBAL_REGISTRY.counter("sql.tier_dispatch").values()
    assert {dict(key)["tier"] for key in counts} == {engine}


class TestNameResolution:
    def test_case_insensitive_names(self, engine):
        rows = _rows("SELECT NAME, Score FROM T0 WHERE SCORE > 15")
        assert rows == [("c", 30), ("e", 20)]
        _served_by(engine)


class TestAggregates:
    def test_count_distinct(self, engine):
        assert _rows("SELECT COUNT(DISTINCT team) FROM T0") == [(2,)]
        _served_by(engine)

    def test_group_concat(self, engine):
        rows = _rows("SELECT team, GROUP_CONCAT(name) FROM T0 "
                     "GROUP BY team ORDER BY team")
        assert rows == [("blue", "b,d"), ("red", "a,c,e")]
        _served_by(engine)

    def test_bare_column_reads_first_row(self, engine):
        rows = _rows("SELECT team, name, COUNT(*) FROM T0 "
                     "GROUP BY team ORDER BY team")
        assert rows == [("blue", "b", 2), ("red", "a", 3)]
        _served_by(engine)

    def test_aggregate_over_expression(self, engine):
        rows = _rows("SELECT team, SUM(score * 2) FROM T0 "
                     "GROUP BY team ORDER BY team")
        assert rows == [("blue", None), ("red", 120)]
        _served_by(engine)


#: Statements SQLite rejects when it prepares them, whatever the rows.
PREPARE_ERRORS = [
    ("SELECT nope FROM T0", "no such column: nope"),
    ("SELECT name FROM T0 WHERE nope > 3", "no such column: nope"),
    ("SELECT name FROM T0 ORDER BY nope", "no such column: nope"),
    ("SELECT SUM(nope) FROM T0", "no such column: nope"),
    ("SELECT team, COUNT(*) FROM T0 GROUP BY team HAVING nope > 1",
     "no such column: nope"),
    ("SELECT a.nope FROM T0 a JOIN T0 b ON a.name = b.name",
     "no such column: a.nope"),
    ("SELECT a.name FROM T0 a JOIN T0 b ON a.nope = b.name",
     "no such column: a.nope"),
    ("SELECT NOFN(name) FROM T0", "unknown function 'nofn'"),
    ("SELECT UPPER(name, name) FROM T0", "upper() expects 1 argument"),
    ("SELECT SUM(score, score) FROM T0", "SUM() expects one argument"),
    ("SELECT name FROM T0 WHERE COUNT(*) > 1", "outside GROUP BY"),
    ("SELECT name FROM T0 ORDER BY SUM(score)", "outside GROUP BY"),
]


class TestErrorTiming:
    def test_missing_column_with_no_rows_raises(self, engine):
        # Names bind before any row is read, as SQLite binds them when
        # it prepares the statement: an empty input fails too.
        with pytest.raises(SQLRuntimeError, match="no such column: nope"):
            execute_sql("SELECT nope FROM T0 WHERE name = 'zzz'",
                        {"T0": _frame()})

    @pytest.mark.parametrize("sql, message", PREPARE_ERRORS)
    def test_empty_table_fails_as_one_row_does(self, engine, sql, message):
        one_row, empty = _frame().take([0]), _frame().take([])
        with pytest.raises(SQLRuntimeError) as on_rows:
            execute_sql(sql, {"T0": one_row})
        assert message in str(on_rows.value)
        with pytest.raises(SQLRuntimeError) as on_empty:
            execute_sql(sql, {"T0": empty})
        assert str(on_empty.value) == str(on_rows.value)
        with pytest.raises(sqlite3.Error):
            run_sqlite_query(sql, {"T0": empty})

    def test_missing_column_with_rows_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="no such column: nope"):
            _rows("SELECT nope FROM T0")

    def test_aggregate_in_where_raises(self, engine):
        with pytest.raises(SQLRuntimeError, match="outside GROUP BY"):
            _rows("SELECT name FROM T0 WHERE COUNT(*) > 1")
