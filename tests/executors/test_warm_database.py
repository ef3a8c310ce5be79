"""The sqlite backend's warm per-thread database against a fresh one.

Every query must see exactly what a new database loaded with its history
would show: the same frame or the same error, the same declared types
and rowids, no table outside the history, and no statement but a query.
``tests/executors/sqlite_oracle.py`` keeps the fresh-database loader.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
from contextlib import closing

import pytest

from repro.datasets import generate_dataset
from repro.executors import SQLExecutor, sql_executor
from repro.executors.sql_executor import (
    WARM_DATABASE,
    _load,
    run_sqlite_query,
)
from repro.serving.spec import AgentSpec
from repro.table import DataFrame
from tests.executors import test_sql_executor
from tests.executors.sqlite_oracle import run_sqlite_query_fresh, signature

with closing(sqlite3.connect(":memory:")) as _connection:
    #: This sqlite build's bound on ``?`` parameters per statement.
    VARIABLE_LIMIT = _connection.getlimit(
        sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)

#: Seeded attempts recorded for the differential: (dataset, voting, count).
ATTEMPTS = [("wikitq", "none", 60), ("tabfact", "none", 60),
            ("wikitq", "s-vote", 40), ("tabfact", "s-vote", 40)]


def _warm(sql, tables):
    return signature(run_sqlite_query, sql, tables)


def _fresh(sql, tables):
    return signature(run_sqlite_query_fresh, sql, tables)


@pytest.fixture(autouse=True)
def _fresh_thread_database():
    """Start and end each test with no warm database on this thread."""
    WARM_DATABASE.clear()
    yield
    WARM_DATABASE.clear()


@pytest.fixture
def history(cyclists):
    return {"T0": cyclists,
            "T1": cyclists.select(["Cyclist", "Points"]).with_name("T1")}


@pytest.fixture(scope="module")
def recorded_queries():
    """Every sqlite query of 200 seeded attempts, in the order they ran.

    Greedy and s-vote attempts on wikitq and tabfact: the agent's queries
    with their FROM-rewrite retries, and the simulated model's private
    ones.  Each is ``(sql, tables, made by the agent's executor)``; while
    recording, each runs on the fresh-database oracle.
    """
    calls = []
    agent_executor = None

    def recording(executor, sql, tables):
        calls.append((sql, dict(tables), executor is agent_executor))
        return run_sqlite_query_fresh(sql, tables)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SQLExecutor, "_run", recording)
        for dataset, voting, count in ATTEMPTS:
            bench = generate_dataset(dataset, size=count, seed=5)
            for index, example in enumerate(bench.examples):
                runner = AgentSpec(bank=bench.bank, voting=voting).build(
                    index)
                agent_executor = runner.registry.get("sql")
                runner.run(example.table, example.question)
    return calls


class TestDifferential:
    def test_workload_queries_match_the_oracle(self, recorded_queries):
        mismatches = [(sql, list(tables))
                      for sql, tables, _ in recorded_queries
                      if _warm(sql, tables) != _fresh(sql, tables)]
        assert mismatches == []

    def test_the_replay_covers_every_transition(self, recorded_queries):
        kept = replaced = dropped = failed = by_agent = 0
        held: dict[str, str] = {}
        for sql, tables, agent in recorded_queries:
            wanted = {name: frame.content_digest()
                      for name, frame in tables.items()}
            kept += sum(held.get(name) == digest
                        for name, digest in wanted.items())
            replaced += sum(name in held and held[name] != digest
                            for name, digest in wanted.items())
            dropped += sum(name not in wanted for name in held)
            failed += _fresh(sql, tables)[0] == "error"
            by_agent += agent
            held = wanted
        by_model = len(recorded_queries) - by_agent
        assert min(kept, replaced, dropped, failed, by_agent, by_model) > 50


class TestIsolation:
    def test_a_table_outside_the_history_is_gone(self, history):
        run_sqlite_query("SELECT * FROM T1", history)
        with pytest.raises(sqlite3.OperationalError,
                           match="no such table: T1"):
            run_sqlite_query("SELECT * FROM T1", {"T0": history["T0"]})
        names = run_sqlite_query("SELECT name FROM sqlite_master",
                                 {"T0": history["T0"]})
        assert names.to_rows() == [("T0",)]

    def test_a_mutated_table_is_reloaded(self, tiny_frame):
        frame = tiny_frame.copy()
        assert run_sqlite_query("SELECT SUM(a) FROM T0",
                                {"T0": frame}).to_rows() == [(6,)]
        frame["a"] = [10, 20, 30]
        assert run_sqlite_query("SELECT SUM(a) FROM T0",
                                {"T0": frame}).to_rows() == [(60,)]

    def test_a_table_renamed_in_the_history_is_reloaded(self, history):
        run_sqlite_query("SELECT * FROM T0", history)
        swapped = {"T0": history["T1"], "T1": history["T0"]}
        sql = "SELECT * FROM T0 JOIN T1 USING (Cyclist)"
        assert _warm(sql, swapped) == _fresh(sql, swapped)


def _load_statements(name: str, frame: DataFrame) -> list[str]:
    """The CREATE and INSERT texts that load ``frame`` as ``name``."""

    class Recorder:
        def __init__(self):
            self.statements: list[str] = []

        def execute(self, sql, parameters=()):
            self.statements.append(sql)

        def getlimit(self, limit):
            return VARIABLE_LIMIT

    recorder = Recorder()
    _load(recorder, name, frame)
    return recorder.statements


class TestAuthorizer:
    @pytest.mark.parametrize(
        "statement", test_sql_executor.TestNonQueryStatements.STATEMENTS)
    def test_non_queries_fail_on_a_warm_database(self, history, statement,
                                                 tmp_path):
        run_sqlite_query("SELECT * FROM T1", history)
        sql = statement.format(path=tmp_path / "attached.db")
        with pytest.raises(sqlite3.Error):
            run_sqlite_query(sql, history)
        assert list(tmp_path.iterdir()) == []
        self._assert_intact(history)

    def test_the_load_statements_themselves_fail(self, history):
        statements = (_load_statements("T0", history["T0"])
                      + _load_statements("T1", history["T1"])
                      + ['DROP TABLE "T0"', 'DROP TABLE "T1"'])
        assert len(statements) == 6
        run_sqlite_query("SELECT * FROM T1", history)
        for sql in statements:
            with pytest.raises(sqlite3.DatabaseError,
                               match="not authorized"):
                run_sqlite_query(sql, history)
            self._assert_intact(history)

    @staticmethod
    def _assert_intact(history):
        for sql in ("SELECT rowid, * FROM T0", "SELECT rowid, * FROM T1",
                    "SELECT type, name, tbl_name, sql FROM sqlite_master"):
            assert _warm(sql, history) == _fresh(sql, history)


class TestTypesAndOrder:
    FRAME = DataFrame({
        "i": [3, None, 1, -2],
        "f": [1.5, float("nan"), None, 2.0],
        "b": [True, False, None, True],
        "s": ["x", None, "", "ä"],
        "n": [None, None, None, None],
        "mixed": [1, "one", 1.0, None],
    }, name="T0")
    SQL = ("SELECT rowid, typeof(i), typeof(f), typeof(b), typeof(s), "
           "typeof(n), typeof(mixed), * FROM T0")

    def test_typeof_and_rowid_equal_the_oracle(self):
        tables = {"T0": self.FRAME}
        assert _warm(self.SQL, tables) == _fresh(self.SQL, tables)
        assert _warm(self.SQL, tables) == _fresh(self.SQL, tables)  # kept
        declared = "SELECT sql FROM sqlite_master"
        assert _warm(declared, tables) == _fresh(declared, tables)

    def test_a_replaced_table_restarts_its_rowids(self):
        run_sqlite_query("SELECT 1", {"T0": self.FRAME})
        shorter = self.FRAME.head(2)
        tables = {"T0": shorter}
        assert _warm(self.SQL, tables) == _fresh(self.SQL, tables)


class TestChunkedLoad:
    def test_a_table_past_one_insert_matches_the_oracle(self):
        rows = 100_000
        frame = DataFrame({
            "id": list(range(rows)),
            "label": [f"r{i}" for i in range(rows)],
            "value": [i * 0.5 if i % 7 else None for i in range(rows)],
            "flag": [i % 3 == 0 for i in range(rows)],
        }, name="T0")
        assert rows * frame.num_columns > VARIABLE_LIMIT  # two INSERTs
        tables = {"T0": frame}
        for sql in ("SELECT COUNT(*), SUM(id), SUM(value), SUM(flag), "
                    "MIN(rowid), MAX(rowid) FROM T0",
                    "SELECT rowid, * FROM T0 WHERE rowid % 9973 IN (0, 1) "
                    "OR rowid BETWEEN 62499 AND 62502"):
            assert _warm(sql, tables) == _fresh(sql, tables)


class TestInterleaving:
    def test_two_executors_alternate_on_one_thread(self, history,
                                                   tiny_frame):
        first, second = SQLExecutor("sqlite"), SQLExecutor("sqlite")
        other = {"T0": tiny_frame,
                 "T1": tiny_frame.select(["b"]).with_name("T1")}
        for limit in range(1, 5):
            left = first.execute(
                f"SELECT Cyclist FROM T1 ORDER BY Points LIMIT {limit}",
                list(history.values()))
            right = second.execute(
                f"SELECT b FROM T1 ORDER BY b DESC LIMIT {limit}",
                list(other.values()))
            assert left.table.to_rows() == run_sqlite_query_fresh(
                f"SELECT Cyclist FROM T1 ORDER BY Points LIMIT {limit}",
                history).to_rows()
            assert right.table.to_rows() == [
                (b,) for b in "zyx"[:limit]]


class TestFailedLoad:
    def test_names_equal_but_for_case(self, history, tiny_frame):
        run_sqlite_query("SELECT * FROM T1", history)
        clash = {"T0": history["T0"], "t0": tiny_frame}
        with pytest.raises(sqlite3.OperationalError,
                           match="already exists"):
            run_sqlite_query("SELECT * FROM T0", clash)
        sql = "SELECT name FROM sqlite_master"
        assert _warm(sql, history) == _fresh(sql, history)
        assert _warm("SELECT * FROM T1", history) == _fresh(
            "SELECT * FROM T1", history)

    def test_a_cell_sqlite_cannot_bind(self, history):
        run_sqlite_query("SELECT * FROM T1", history)
        bad = {"T0": history["T0"],
               "T1": DataFrame({"v": [1, 2 ** 70]}, name="T1")}
        with pytest.raises(OverflowError):
            run_sqlite_query("SELECT * FROM T0", bad)
        sql = "SELECT * FROM T0 JOIN T1 USING (Cyclist)"
        assert _warm(sql, history) == _fresh(sql, history)
        listed = "SELECT name FROM sqlite_master"
        assert _warm(listed, history) == _fresh(listed, history)


class TestThreads:
    def test_each_thread_opens_its_own_database_lazily(self, tiny_frame):
        seen = []

        def probe():
            seen.append(WARM_DATABASE._connection)
            run_sqlite_query("SELECT 1", {"T0": tiny_frame})
            seen.append(WARM_DATABASE._connection)
            WARM_DATABASE.clear()
            seen.append(WARM_DATABASE._connection)

        run_sqlite_query("SELECT 1", {"T0": tiny_frame})
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen[0] is None and seen[2] is None
        assert seen[1] is not None
        assert seen[1] is not WARM_DATABASE._connection

    def test_eight_threads_alternating_histories(self, history, tiny_frame):
        histories = [
            history,
            {"T0": history["T0"]},
            {"T0": tiny_frame,
             "T1": tiny_frame.select(["b"]).with_name("T1")},
            {"T0": history["T1"].with_name("T0"), "T1": history["T0"]},
        ]
        queries = ["SELECT * FROM T0", "SELECT COUNT(*) FROM T1",
                   "SELECT name FROM sqlite_master ORDER BY name"]
        cases = [(sql, tables) for tables in histories for sql in queries]
        expected = [_fresh(sql, tables) for sql, tables in cases]
        mismatches: list[tuple] = []

        def hammer(offset):
            try:
                for round_ in range(40):
                    index = (offset + round_ * 5) % len(cases)
                    sql, tables = cases[index]
                    if _warm(sql, tables) != expected[index]:
                        mismatches.append((offset, round_, sql))
            finally:
                WARM_DATABASE.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
