"""Parity tests: the native engine must agree with SQLite.

The SQL executor lets callers pick either backend; every query our plan
renderer can generate must produce equivalent results on both.  Includes a
hypothesis sweep over generated plan steps and a seeded fuzzer that runs
stdlib ``sqlite3`` as the oracle of the native engine.
"""

import dataclasses
import math
import random
import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SQLError
from repro.executors.sql_executor import run_sqlite_query
from repro.plans.steps import (
    AggregateStep,
    CountWhereStep,
    DiffStep,
    FilterStep,
    GroupAggStep,
    GroupCountStep,
    ProjectStep,
    SuperlativeStep,
)
from repro.sqlengine import execute_sql, parse_select
from repro.sqlengine.ast_nodes import ColumnRef, OrderItem
from repro.sqlengine.planner import expand_star
from repro.table import DataFrame, tables_equivalent
from tests.sqlengine.test_differential import (
    VARIANTS,
    _numeric_columns,
    _predicate,
    _random_query,
    _text_columns,
    frame_and_catalog,
)


@pytest.fixture
def catalog(cyclists):
    return {"T0": cyclists}


PARITY_QUERIES = [
    "SELECT * FROM T0",
    "SELECT Cyclist FROM T0 WHERE Rank <= 10",
    "SELECT Cyclist, Points FROM T0 WHERE Points > 10 ORDER BY Points DESC",
    "SELECT COUNT(*) FROM T0",
    "SELECT COUNT(Uci_protour_points) FROM T0",
    "SELECT SUM(Points), MIN(Points), MAX(Points) FROM T0",
    "SELECT AVG(Points) FROM T0",
    "SELECT Team, COUNT(*) FROM T0 GROUP BY Team ORDER BY COUNT(*) DESC, Team",
    "SELECT Team, COUNT(*) AS n FROM T0 GROUP BY Team HAVING n >= 1 ORDER BY n DESC, Team",
    "SELECT DISTINCT Team FROM T0 ORDER BY Team",
    "SELECT Rank FROM T0 ORDER BY Rank DESC LIMIT 2",
    "SELECT Rank FROM T0 ORDER BY Rank LIMIT 2 OFFSET 1",
    "SELECT Cyclist FROM T0 WHERE Cyclist LIKE '%(ESP)%'",
    "SELECT Rank FROM T0 WHERE Points BETWEEN 10 AND 30 ORDER BY Rank",
    "SELECT Rank FROM T0 WHERE Rank IN (1, 2, 99)",
    "SELECT Rank FROM T0 WHERE Uci_protour_points IS NULL ORDER BY Rank",
    "SELECT UPPER(Team) FROM T0 ORDER BY 1 LIMIT 1"
    .replace("ORDER BY 1 LIMIT 1", "ORDER BY UPPER(Team) LIMIT 1"),
    "SELECT SUBSTR(Cyclist, -4, 3) AS cc, COUNT(*) FROM T0 GROUP BY cc ORDER BY COUNT(*) DESC, cc",
    "SELECT CASE WHEN Points > 20 THEN 'high' ELSE 'low' END AS tier, COUNT(*) FROM T0 GROUP BY tier ORDER BY tier",
    "SELECT Points * 2 + 1 FROM T0 WHERE Rank = 1",
    "SELECT Cyclist || '!' FROM T0 WHERE Rank = 1",
    "SELECT MAX(CASE WHEN Rank = 1 THEN Points END) - "
    "MAX(CASE WHEN Rank = 2 THEN Points END) AS diff FROM T0",
    "SELECT COALESCE(Uci_protour_points, 0) FROM T0 ORDER BY Rank",
    "SELECT LENGTH(Team) FROM T0 ORDER BY Rank",
    "SELECT REPLACE(Team, ' ', '_') FROM T0 ORDER BY Rank",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_backend_parity(catalog, sql):
    native = execute_sql(sql, catalog)
    sqlite = run_sqlite_query(sql, catalog)
    assert tables_equivalent(native, sqlite, ordered="ORDER BY" in sql), \
        f"backends disagree on {sql!r}:\n{native.to_rows()}\n" \
        f"{sqlite.to_rows()}"


# --- NULL sort order -----------------------------------------------------------

NULL_ORDER_QUERIES = [
    "SELECT x FROM T0 ORDER BY x",
    "SELECT x FROM T0 ORDER BY x DESC",
    "SELECT k, SUM(x) AS s FROM T0 GROUP BY k ORDER BY s, k",
    "SELECT k, SUM(x) AS s FROM T0 GROUP BY k ORDER BY s DESC, k",
]


@pytest.mark.parametrize("sql", NULL_ORDER_QUERIES)
@pytest.mark.parametrize("vector", ["1", "0"], ids=["vector", "interpreted"])
def test_null_sorts_as_the_smallest_value(sql, vector, monkeypatch):
    """SQLite orders NULL before every value: first ASC, last DESC."""
    monkeypatch.setenv("REPRO_SQL_VECTOR", vector)
    catalog = {"T0": DataFrame({"x": [3, None, 1, None],
                                "k": ["c", "n", "a", "n"]}, name="T0")}
    native = execute_sql(sql, catalog).to_rows()
    assert native == run_sqlite_query(sql, catalog).to_rows()


# --- an ungrouped aggregate over no rows --------------------------------------

EMPTY_AGGREGATE_QUERIES = [
    "SELECT COUNT(*) + 1 FROM T0",
    "SELECT COALESCE(MAX(x), 0) FROM T0",
    "SELECT 'n' || COUNT(*) FROM T0",
    "SELECT COUNT(x) * 2, 7 FROM T0",
    "SELECT COUNT(*) FROM T0 HAVING COUNT(*) > 0",
]


@pytest.mark.parametrize("sql", EMPTY_AGGREGATE_QUERIES)
@pytest.mark.parametrize("vector", ["1", "0"], ids=["vector", "interpreted"])
def test_aggregate_over_no_rows_computes_each_item(sql, vector,
                                                   monkeypatch):
    """Over no rows the one implicit group is empty, as in SQLite:
    aggregates take their empty values (COUNT 0, the rest NULL), the
    expressions around them are computed, and HAVING still filters."""
    monkeypatch.setenv("REPRO_SQL_VECTOR", vector)
    catalog = {"T0": DataFrame.from_rows([], ["x", "s"], name="T0")}
    native = execute_sql(sql, catalog).to_rows()
    assert native == run_sqlite_query(sql, catalog).to_rows()


# --- TOTAL, HAVING and qualifiers, bound as SQLite binds them -----------------

BINDING_QUERIES = [
    "SELECT TOTAL(x) FROM T0",
    "SELECT k, TOTAL(x) FROM T0 GROUP BY k ORDER BY k",
    "SELECT x FROM T0 HAVING x > 1",
    "SELECT x FROM T0 HAVING COUNT(*) > 1",
    "SELECT COUNT(*) FROM T0 HAVING x > 1",
    "SELECT zz.x FROM T0",
    "SELECT T0.x FROM T0 a",
    "SELECT T0.x FROM T0",
    "SELECT a.x FROM T0 a",
    # Two errors: SQLite binds the select list, then the non-aggregate
    # HAVING refusal, HAVING, WHERE, ON, ORDER BY and GROUP BY.
    "SELECT zz FROM T0 WHERE yy > 1",
    "SELECT x FROM T0 WHERE zz > 1 HAVING x > 1",
    "SELECT COUNT(*) FROM T0 WHERE zz > 1 HAVING yy > 1",
    "SELECT T0.x FROM T0 JOIN T1 ON T0.qq = T1.x WHERE yy > 1",
    "SELECT COUNT(*) FROM T0 GROUP BY zz ORDER BY yy",
]


def _typed_rows_or_message(run, sql: str, catalog: dict, failures: tuple):
    """The rows with each value's type, or the failure's message."""
    try:
        rows = run(sql, catalog).to_rows()
    except failures as exc:
        return str(exc)
    return [tuple((type(value).__name__, value) for value in row)
            for row in rows]


@pytest.mark.parametrize("sql", BINDING_QUERIES)
@pytest.mark.parametrize("rows", [[(1, "a"), (2, "b"), (3, "a")], []],
                         ids=["full", "empty"])
@pytest.mark.parametrize("vector", ["1", "0"], ids=["vector", "interpreted"])
def test_statements_bind_as_in_sqlite(sql, rows, vector, monkeypatch):
    """TOTAL is always a float, 0.0 over no values; HAVING needs an
    aggregate query; a qualifier must name the FROM table or its alias;
    of two bad names, the one SQLite binds first is reported.  Same rows
    and types, or the same message, over a full and an empty table."""
    monkeypatch.setenv("REPRO_SQL_VECTOR", vector)
    catalog = {"T0": DataFrame.from_rows(rows, ["x", "k"], name="T0"),
               "T1": DataFrame.from_rows([(1, "a")], ["x", "k"],
                                         name="T1")}
    native = _typed_rows_or_message(execute_sql, sql, catalog, SQLError)
    oracle = _typed_rows_or_message(run_sqlite_query, sql, catalog,
                                    sqlite3.Error)
    assert native == oracle


# --- property-based parity over generated plan steps -------------------------

names = st.sampled_from(["Rank", "Points"])
thresholds = st.integers(min_value=0, max_value=45)
comparators = st.sampled_from(["<", "<=", "=", ">=", ">"])
aggregates = st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"])


@given(column=names, op=comparators, threshold=thresholds)
@settings(max_examples=50, deadline=None)
def test_filter_parity(column, op, threshold):
    catalog = {"T0": _cyclists()}
    sql = f"SELECT Cyclist FROM T0 WHERE {column} {op} {threshold}"
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog))


@given(agg=aggregates, column=names)
@settings(max_examples=40, deadline=None)
def test_aggregate_parity(agg, column):
    catalog = {"T0": _cyclists()}
    sql = f"SELECT {agg}({column}) FROM T0"
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog))


@given(column=names, descending=st.booleans(),
       limit=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_order_limit_parity(column, descending, limit):
    catalog = {"T0": _cyclists()}
    direction = "DESC" if descending else "ASC"
    sql = (f"SELECT Cyclist, {column} FROM T0 "
           f"ORDER BY {column} {direction}, Cyclist LIMIT {limit}")
    assert tables_equivalent(execute_sql(sql, catalog),
                             run_sqlite_query(sql, catalog),
                             ordered=True)


def _cyclists() -> DataFrame:
    return DataFrame({
        "Rank": [1, 2, 3, 10],
        "Cyclist": ["Alejandro Valverde (ESP)", "Alexandr Kolobnev (RUS)",
                    "Davide Rebellin (ITA)", "David Moncoutie (FRA)"],
        "Points": [40, 30, 25, 1],
    }, name="T0")


# --- sqlite3 as the oracle: a seeded fuzzer -----------------------------------

#: Frame seeds apart from the tier differential's, so the two suites
#: cover different tables with the same generator.
ORACLE_FRAME_SEEDS = (505, 606, 707, 808)
#: Queries per (frame, variant) from the differential's generator.
GENERATED_PER_FRAME = 80
#: Queries per (frame, variant) from each plan-step renderer.
STEPS_PER_RENDERER = 3


def _steps(rng: random.Random, frame: DataFrame) -> list:
    """One instance of every SQL plan-step renderer, drawn over ``frame``."""
    numeric, text = _numeric_columns(frame), _text_columns(frame)
    num, cat = rng.choice(numeric), rng.choice(text)
    labels = [value for value in frame.column(cat).values
              if isinstance(value, str)] or ["zzz"]
    columns = tuple(rng.sample(frame.columns,
                               rng.randint(1, len(frame.columns))))
    return [
        FilterStep(condition=_predicate(rng, frame, numeric, text),
                   columns=rng.choice([(), columns])),
        ProjectStep(columns=columns, distinct=rng.random() < 0.5),
        GroupCountStep(key=cat, descending=rng.random() < 0.5,
                       limit=rng.choice([None, 1, 3])),
        GroupAggStep(key=cat,
                     agg=rng.choice(["sum", "avg", "min", "max", "count"]),
                     value=num, descending=rng.choice([None, True, False]),
                     limit=rng.choice([None, 1, 2]),
                     alias=rng.choice([None, "total"])),
        SuperlativeStep(target=cat, by=num, descending=rng.random() < 0.5,
                        k=rng.randint(1, 3),
                        extra_columns=rng.choice([(), (num,)])),
        AggregateStep(*rng.choice([("count", "*"), ("count", num),
                                   ("sum", num), ("avg", num),
                                   ("min", num), ("max", num)])),
        CountWhereStep(condition=_predicate(rng, frame, numeric, text)),
        DiffStep(key=cat, value=num, left=rng.choice(labels),
                 right=rng.choice(labels)),
    ]


def _oracle_queries(frame_seed: int, frame: DataFrame) -> list[str]:
    rng = random.Random(frame_seed * 13 + 5)
    queries = [_random_query(rng, frame)
               for _ in range(GENERATED_PER_FRAME)]
    for _ in range(STEPS_PER_RENDERER):
        queries += [step.render("T0").rstrip(";")
                    for step in _steps(rng, frame)]
    return queries


def _rows_or_failure(run, sql: str, catalog: dict, failures: tuple):
    """The result rows, or None when ``run`` fails the query as SQL."""
    try:
        return run(sql, catalog).to_rows()
    except failures:
        return None


def _same_rows(left: list, right: list) -> bool:
    """Equal row for row; numbers equal to float rounding."""
    def same(a, b) -> bool:
        if a is None or b is None:
            return a is None and b is None
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        return a == b

    return len(left) == len(right) and all(
        len(a) == len(b) and all(map(same, a, b))
        for a, b in zip(left, right))


def _tie_broken(sql: str, frame: DataFrame) -> str:
    """``sql`` with every selected column appended to its ORDER BY and
    its LIMIT and OFFSET dropped, so its row order is total."""
    stmt = parse_select(sql)
    keys = tuple(OrderItem(ColumnRef(item.alias) if item.alias
                           else item.expression)
                 for item in expand_star(stmt, frame))
    return dataclasses.replace(stmt, order_by=stmt.order_by + keys,
                               limit=None, offset=0).to_sql()


def _compare(sql: str, frame: DataFrame, catalog: dict) -> str:
    """``"same"`` when both engines agree (rows in order, or both fail),
    ``"tie order"`` when they differ only in the order of rows that tie
    under the query's ORDER BY (or GROUP BY, without one), else a
    description of the divergence."""
    native = _rows_or_failure(execute_sql, sql, catalog, SQLError)
    oracle = _rows_or_failure(run_sqlite_query, sql, catalog,
                              sqlite3.Error)
    if native is None or oracle is None:
        if native is None and oracle is None:
            return "same"
        return f"only {'native' if native is None else 'sqlite'} fails"
    if _same_rows(native, oracle):
        return "same"
    # The allow-list: breaking every tie must leave identical results.
    total = _tie_broken(sql, frame)
    native_total = _rows_or_failure(execute_sql, total, catalog, SQLError)
    oracle_total = _rows_or_failure(run_sqlite_query, total, catalog,
                                    sqlite3.Error)
    if (native_total is not None and oracle_total is not None
            and _same_rows(native_total, oracle_total)
            and len(native) == len(oracle)):
        return "tie order"
    return f"rows differ: {native!r} vs {oracle!r}"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("frame_seed", ORACLE_FRAME_SEEDS)
def test_native_engine_matches_sqlite(frame_seed, variant):
    frame, catalog = frame_and_catalog(frame_seed, variant)
    diverged = []
    for sql in _oracle_queries(frame_seed, frame):
        verdict = _compare(sql, frame, catalog)
        if verdict not in ("same", "tie order"):
            diverged.append((sql, verdict))
    assert not diverged, diverged


def test_group_order_is_allowed_only_as_tie_order(monkeypatch):
    """Groups come out in first-occurrence order natively and in key
    order in sqlite; ordering by every selected column makes them agree.
    """
    frame = DataFrame({"k": ["b", "a", "c", "a", "b"]}, name="T0")
    catalog = {"T0": frame}
    sql = "SELECT k, COUNT(*) FROM T0 GROUP BY k"
    assert execute_sql(sql, catalog).to_rows() == \
        [("b", 2), ("a", 2), ("c", 1)]
    assert run_sqlite_query(sql, catalog).to_rows() == \
        [("a", 2), ("b", 2), ("c", 1)]
    assert _tie_broken(sql, frame) == \
        "SELECT k, COUNT(*) FROM T0 GROUP BY k ORDER BY k, COUNT(*)"
    assert _compare(sql, frame, catalog) == "tie order"
    # A difference that survives breaking the ties is a divergence: here
    # a native engine that loses the last row of every result.
    native = execute_sql

    def lossy(query, tables):
        result = native(query, tables)
        return result.take(range(result.num_rows - 1))

    monkeypatch.setattr(f"{__name__}.execute_sql", lossy)
    assert _compare(sql, frame, catalog).startswith("rows differ")


def test_oracle_query_count_meets_floor():
    per_frame = GENERATED_PER_FRAME + STEPS_PER_RENDERER * len(
        _steps(random.Random(0), frame_and_catalog(505, "dense")[0]))
    assert per_frame * len(ORACLE_FRAME_SEEDS) * len(VARIANTS) >= 1000
