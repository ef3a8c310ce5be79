"""The perf gate: correctness smoke, baseline handling, regression logic."""

import json

import repro.aio.driver
from repro.core.prompt import parse_prompt
from repro.executors import PythonExecutor, SQLExecutor
from repro.executors.base import history_key
from repro.executors.sql_executor import WarmDatabase, _load, _quote
from repro.llm import SimulatedTQAModel
from repro.perf.encode_cache import EncodedTableCache
from repro.perf.gate import main, run_checks, run_gate
from repro.table.io import decode_head_row


class TestRunChecks:
    def test_all_green(self):
        assert run_checks() == []


class TestRunGate:
    def test_writes_baseline_when_missing(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        report, failures = run_gate(baseline_path=baseline, repeats=2)
        assert baseline.exists()
        saved = json.loads(baseline.read_text())
        assert saved["cases"].keys() == report["cases"].keys()
        # No regression failures possible on a fresh baseline; floor
        # failures would indicate the optimisations themselves broke.
        assert failures == []

    def test_flags_regression_against_absurd_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {
                "native_group_aggregate": {"speedup": 10_000.0},
            },
        }))
        _, failures = run_gate(baseline_path=baseline, repeats=1)
        assert any("regressed" in failure for failure in failures)

    def test_informational_cases_exempt_from_drift_band(self, tmp_path):
        # vector_distinct has no FLOORS entry: its ratio is documented
        # but never gated, even against an absurd baseline.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"vector_distinct": {"speedup": 10_000.0}},
        }))
        _, failures = run_gate(baseline_path=baseline, repeats=1)
        assert failures == []

    def test_update_baseline_overwrites(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"native_group_aggregate": {"speedup": 10_000.0}},
        }))
        _, failures = run_gate(baseline_path=baseline,
                               update_baseline=True, repeats=2)
        saved = json.loads(baseline.read_text())
        assert saved["cases"]["native_group_aggregate"]["speedup"] < 1000
        assert failures == []


class TestMain:
    def test_check_only_exits_zero(self, capsys):
        assert main(["--check-only"]) == 0
        assert "perf checks: ok" in capsys.readouterr().out

    def test_full_run_prints_table(self, tmp_path, capsys):
        code = main(["--baseline", str(tmp_path / "b.json"),
                     "--repeats", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "native_group_aggregate" in out
        assert "prompt_encode_repeat" in out


class TestDecodeParityCheck:
    def test_flags_a_decode_memo_that_drops_frame_names(self, monkeypatch):
        monkeypatch.setattr(
            EncodedTableCache, "decode",
            lambda self, text, *, name: decode_head_row(text))
        assert run_checks() == ["decode memo changed a parsed prompt"]


def _digests(tables) -> tuple:
    return tuple(frame.content_digest() for frame in tables)


class TestExecutorMemoParityCheck:
    FAILURES = ["executor memo changed an execution (sqlite backend)",
                "executor memo changed an execution (native backend)"]

    def test_flags_a_memo_key_without_table_names(self, monkeypatch):
        for executor in (SQLExecutor, PythonExecutor):
            monkeypatch.setattr(
                executor, "_memo_key",
                lambda self, code, tables: (code, _digests(tables)))
        assert run_checks() == self.FAILURES

    def test_flags_a_memo_key_without_install_state(self, monkeypatch):
        monkeypatch.setattr(
            PythonExecutor, "_memo_key",
            lambda self, code, tables: (code, history_key(tables)))
        assert run_checks() == self.FAILURES


def _share_across_calls(self, prompt, *, temperature=0.0, n=1):
    """``complete`` with its draw map kept for the model's lifetime."""
    parsed = parse_prompt(prompt)
    example = self.bank.lookup(parsed.question, parsed.t0)
    computed = self.__dict__.setdefault("_kept", {})
    completions = []
    for draw in self._slot_draws(example, temperature, n):
        if draw not in computed:
            computed[draw] = self._complete_draw(example, parsed,
                                                 temperature, draw)
        completions.append(computed[draw])
    return completions


class TestDrawSharingParityCheck:
    def test_flags_completions_shared_across_calls(self, monkeypatch):
        monkeypatch.setattr(SimulatedTQAModel, "complete",
                            _share_across_calls)
        assert run_checks() == ["draw sharing changed a completion"]

    def test_flags_a_slot_given_the_wrong_draw(self, monkeypatch):
        def complete(self, prompt, *, temperature=0.0, n=1):
            parsed = parse_prompt(prompt)
            example = self.bank.lookup(parsed.question, parsed.t0)
            draws = self._slot_draws(example, temperature, n)
            return [self._complete_draw(example, parsed, temperature,
                                        draws[0]) for _ in draws]

        monkeypatch.setattr(SimulatedTQAModel, "complete", complete)
        assert run_checks() == ["draw sharing changed a completion"]


def _fork_by_slot(chains, handed):
    """The batched driver's fork step, deciding by slot, not by text.

    The first chain of a shared engine keeps it and every later chain
    takes one common twin, whatever completions they were handed.
    """
    twins, replies = {}, []
    for index, completions in handed:
        engine = chains[index]
        if id(engine) not in twins:
            twins[id(engine)] = None
            replies.append((engine, completions))
            continue
        if twins[id(engine)] is None:
            twins[id(engine)] = engine.fork()
            replies.append((twins[id(engine)], completions))
        chains[index] = twins[id(engine)]
    return replies


class TestSharedStateParityCheck:
    def test_flags_a_driver_that_forks_by_slot(self, monkeypatch):
        monkeypatch.setattr(repro.aio.driver, "_fork", _fork_by_slot)
        assert run_checks() == [
            "shared chain states changed an s-vote attempt"]


def _sync_by_name(self, connection, tables):
    """The warm database's sync, keeping any held table of a wanted name."""
    for name in [name for name in self._held if name not in tables]:
        del self._held[name]
        connection.execute(f"DROP TABLE {_quote(name)}")
    for name, frame in tables.items():
        if name not in self._held:
            _load(connection, name, frame)
            self._held[name] = frame.content_digest()


def _sync_never_dropping(self, connection, tables):
    """The warm database's sync, leaving tables outside the history."""
    for name, frame in tables.items():
        if self._held.get(name) != frame.content_digest():
            if name in self._held:
                connection.execute(f"DROP TABLE {_quote(name)}")
            _load(connection, name, frame)
            self._held[name] = frame.content_digest()


class TestWarmDatabaseParityCheck:
    def test_flags_a_database_keyed_by_name_only(self, monkeypatch):
        monkeypatch.setattr(WarmDatabase, "_sync", _sync_by_name)
        assert run_checks() == ["warm sqlite database changed a query"]

    def test_flags_a_database_that_never_drops(self, monkeypatch):
        monkeypatch.setattr(WarmDatabase, "_sync", _sync_never_dropping)
        assert run_checks() == ["warm sqlite database changed a query"]
