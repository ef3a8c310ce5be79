"""The executors' outcome memo: a replayed call equals a real run."""

import dataclasses
import sys
import threading

import pytest

from repro.core import SimpleMajorityVoting
from repro.engine.driver import EffectHandler, run_chain
from repro.errors import ExecutionError, ModuleNotAllowedError
from repro.executors import (
    CodeExecutor,
    ExecutorRegistry,
    PythonExecutor,
    SQLExecutor,
)
from repro.llm import SimulatedTQAModel
from repro.serving.spec import AgentSpec
from repro.table import DataFrame


class _Recorder(EffectHandler):
    """Keeps every Execute effect a chain performs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.effects = []

    def execute(self, effect):
        self.effects.append(effect)
        return super().execute(effect)


def _chain_effects(bench, *, seeds=(1, 2)) -> list:
    """The Execute effects of s-vote attempts over every question."""
    spec = AgentSpec(bank=bench.bank, voting="s-vote")
    effects = []
    for seed in seeds:
        for example in bench.examples:
            voter = spec.build(seed)
            recorder = _Recorder(voter.model, voter.registry,
                                 catch=voter.handler_catch)
            for engine in voter.chain_engines(example.table,
                                              example.question):
                run_chain(engine, recorder)
            effects.extend(recorder.effects)
    return effects


def _renamed(effect):
    """The same code over the same tables named ``S<k>``.

    The model's queries name ``T<k>``, so over these tables they succeed
    only through the FROM-rewrite retries.
    """
    return dataclasses.replace(effect, tables=tuple(
        frame.with_name(f"S{index}")
        for index, frame in enumerate(effect.tables)))


@pytest.fixture(scope="module")
def pairs(wikitq_small, tabfact_small):
    """(language, code, history) pairs, each followed by its renaming."""
    captured = (_chain_effects(wikitq_small)
                + _chain_effects(tabfact_small))
    return [(effect.language, effect.code, list(effect.tables))
            for original in captured
            for effect in (original, _renamed(original))]


def _fresh_like(executor: CodeExecutor) -> CodeExecutor:
    """A new executor in ``executor``'s configuration and install state."""
    if isinstance(executor, SQLExecutor):
        return SQLExecutor(executor.backend)
    fresh = PythonExecutor()
    fresh._installed.update(executor._installed)
    return fresh


def _signature(executor: CodeExecutor, code: str, tables) -> tuple:
    """Everything a caller can observe of one call."""
    try:
        outcome = executor.execute(code, tables)
    except ExecutionError as error:
        return ("error", type(error), str(error), error.code)
    table = outcome.table
    return ("ok", table.name, table.columns,
            [str(dtype) for dtype in table.dtypes.values()],
            repr(table.to_rows()), outcome.handling_notes,
            outcome.executed_against)


class TestDifferential:
    @pytest.mark.parametrize("language,make", [
        ("sql", lambda: SQLExecutor("sqlite")),
        ("sql", lambda: SQLExecutor("native")),
        ("python", PythonExecutor),
    ], ids=["sqlite", "native", "python"])
    def test_shared_executor_matches_fresh_ones(self, pairs, language,
                                                make):
        shared = make()
        seen = []
        for kind, code, tables in pairs:
            if kind != language:
                continue
            for _ in range(2):
                expected = _signature(_fresh_like(shared), code, tables)
                assert _signature(shared, code, tables) == expected, code
                seen.append(expected)
        # The pairs exercise every path the memo must replay exactly.
        assert any(s[0] == "error" for s in seen)
        notes = [note for s in seen if s[0] == "ok" for note in s[5]]
        if language == "sql":
            assert any("retried against previous table" in n
                       for n in notes)
        else:
            assert any(n.startswith("installed module") for n in notes)


def _counting_spy(monkeypatch, executor_class, counts):
    """Count real runs of ``executor_class`` per memo key."""
    run = executor_class._execute

    def counted(self, code, tables):
        key = self._memo_key(code, tables)
        counts[key] = counts.get(key, 0) + 1
        return run(self, code, tables)

    monkeypatch.setattr(executor_class, "_execute", counted)


class TestReplay:
    def test_replayed_module_error_keeps_its_message(self, tiny_frame,
                                                     monkeypatch):
        counts = {}
        _counting_spy(monkeypatch, PythonExecutor, counts)
        executor = PythonExecutor()
        code = "import os\nresult = T0"
        with pytest.raises(ModuleNotAllowedError) as first:
            executor.execute(code, [tiny_frame])
        with pytest.raises(ModuleNotAllowedError) as second:
            executor.execute(code, [tiny_frame])
        assert list(counts.values()) == [1]
        assert second.value is not first.value
        assert str(second.value) == str(first.value)
        assert second.value.module == "os"
        assert second.value.code == first.value.code

    def test_stored_failure_has_no_traceback(self, tiny_frame):
        executor = SQLExecutor("native")
        for _ in range(2):
            with pytest.raises(ExecutionError):
                executor.execute("SELECT nope FROM T0", [tiny_frame])
        stored = list(executor._memo._entries._entries.values())
        assert len(stored) == 1
        assert stored[0].__traceback__ is None
        assert stored[0].__cause__ is None
        assert stored[0].__context__ is None

    def test_retryable_failure_is_not_stored(self, tiny_frame, monkeypatch):
        class Blip(ExecutionError):
            retryable = True

        def blip(self, code, tables):
            raise Blip("backend blip", code=code)

        monkeypatch.setattr(SQLExecutor, "_execute", blip)
        executor = SQLExecutor("native")
        with pytest.raises(Blip):
            executor.execute("SELECT a FROM T0", [tiny_frame])
        assert len(executor._memo._entries) == 0

    def test_other_exceptions_are_not_stored(self, tiny_frame,
                                             monkeypatch):
        def crash(self, code, tables):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(SQLExecutor, "_execute", crash)
        executor = SQLExecutor("native")
        with pytest.raises(RuntimeError):
            executor.execute("SELECT a FROM T0", [tiny_frame])
        assert len(executor._memo._entries) == 0

    def test_mutating_a_result_does_not_reach_the_memo(self, tiny_frame):
        executor = SQLExecutor("native")
        code = "SELECT a, b FROM T0 WHERE a > 1"
        tables = [tiny_frame.with_name("S0")]  # rescued by a retry
        expected = _signature(SQLExecutor("native"), code, tables)
        assert expected[5]
        for _ in range(3):  # the miss, then two hits
            outcome = executor.execute(code, tables)
            outcome.table["a"] = [0, 0]
            outcome.table.name = "changed"
            outcome.handling_notes.append("changed")
        assert _signature(executor, code, tables) == expected

    def test_installed_modules_are_part_of_the_key(self, tiny_frame):
        executor = PythonExecutor()
        code = "import statistics\nresult = T0"
        assert executor.execute(code, [tiny_frame]).handling_notes
        # Under the new install state the same call runs again, with no
        # install to report, exactly as it did before the memo existed.
        assert executor.execute(code, [tiny_frame]).handling_notes == []

    def test_table_names_are_part_of_the_key(self, tiny_frame):
        executor = SQLExecutor("native")
        as_t0 = executor.execute("SELECT a FROM T0", [tiny_frame])
        renamed = executor.execute("SELECT a FROM T0",
                                   [tiny_frame.with_name("S0")])
        assert as_t0.handling_notes == []
        assert renamed.executed_against == "S0"
        assert renamed.handling_notes


class TestSharedAcrossChains:
    def test_svote_runs_each_distinct_call_once(self, tabfact_small,
                                                monkeypatch):
        bench = tabfact_small
        example = bench.examples[0]

        def vote(registry):
            model = SimulatedTQAModel(bench.bank, seed=4)
            return SimpleMajorityVoting(model, registry=registry).run(
                example.table, example.question)

        fresh = vote(ExecutorRegistry([_FreshPerCall(SQLExecutor),
                                       _FreshPerCall(PythonExecutor)]))
        counts = {}
        for executor_class in (SQLExecutor, PythonExecutor):
            _counting_spy(monkeypatch, executor_class, counts)
        calls = []
        shared = ExecutorRegistry([_Counting(SQLExecutor(), calls),
                                   _Counting(PythonExecutor(), calls)])
        assert vote(shared) == fresh
        assert set(counts.values()) == {1}
        assert len(calls) > len(counts)


class _FreshPerCall(CodeExecutor):
    """Builds a new executor for every call: nothing is remembered."""

    def __init__(self, make):
        self.make = make
        self.language = make.language

    def execute(self, code, tables):
        return self.make().execute(code, tables)


class _Counting(CodeExecutor):
    """Records every call before the memo sees it."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls
        self.language = inner.language

    def execute(self, code, tables):
        self.calls.append(code)
        return self.inner.execute(code, tables)


def test_frames_in_the_key_are_compared_by_content(tiny_frame,
                                                   monkeypatch):
    counts = {}
    _counting_spy(monkeypatch, SQLExecutor, counts)
    executor = SQLExecutor("native")
    equal = DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]}, name="T0")
    first = executor.execute("SELECT SUM(a) FROM T0", [tiny_frame])
    second = executor.execute("SELECT SUM(a) FROM T0", [equal])
    assert list(counts.values()) == [1]
    assert second.table is not first.table
    assert second.table == first.table


def test_threads_sharing_one_executor_get_exact_outcomes(tiny_frame):
    """Concurrent misses and hits on one memo all return the real result."""
    calls = [(f"SELECT a, b FROM T0 WHERE a > {k}", [tiny_frame])
             for k in range(3)]
    calls.append(("SELECT a FROM T0", [tiny_frame.with_name("S0")]))
    calls.append(("SELECT nope FROM T0", [tiny_frame]))
    expected = [_signature(SQLExecutor("native"), code, tables)
                for code, tables in calls]
    shared = SQLExecutor("native")
    mismatches = []

    def hammer():
        for _ in range(40):
            for (code, tables), want in zip(calls, expected):
                if _signature(shared, code, tables) != want:
                    mismatches.append(code)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert len(shared._memo._entries) == len(calls)
