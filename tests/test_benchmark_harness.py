"""The benchmark suite's own plumbing: its fallback fixture and results.

``benchmarks/`` runs outside the tier-1 suite; these tests hold the two
pieces every ``bench_*.py`` relies on whichever way it is run.
"""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFallbackBenchmark:
    def test_pedantic_times_rounds_of_iterations(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        bench = _load("harness").FallbackBenchmark()
        calls = []

        def target(x, *, scale):
            calls.append(x)
            return x * scale

        assert bench.pedantic(target, args=(3,), kwargs={"scale": 2},
                              rounds=2, iterations=3) == 6
        assert calls == [3] * 6
        assert bench.stats["rounds"] == 2
        assert 0 <= bench.stats["min"] <= bench.stats["mean"]

    def test_pedantic_defaults_to_one_call(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        bench = _load("harness").FallbackBenchmark()
        calls = []
        assert bench.pedantic(lambda: calls.append(1) or "done") == "done"
        assert calls == [1]


class _Config:
    """Just enough of pytest's config for the conftest hook."""

    class pluginmanager:
        @staticmethod
        def hasplugin(name):
            return True


class TestResultsDirectory:
    def test_defaults_to_the_checkout_results(self, monkeypatch, tmp_path):
        # Set, then delete: monkeypatch restores whatever was there before,
        # including what the hook sets.
        monkeypatch.setenv("REPRO_RESULTS_DIR", "")
        monkeypatch.delenv("REPRO_RESULTS_DIR")
        monkeypatch.chdir(tmp_path)
        _load("conftest").pytest_configure(_Config())
        from repro.reporting.tables import results_dir

        assert results_dir() == BENCHMARKS.parent / "results"
        assert list(tmp_path.iterdir()) == []

    def test_a_set_directory_is_kept(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "out"))
        _load("conftest").pytest_configure(_Config())
        from repro.reporting.tables import results_dir

        assert results_dir() == tmp_path / "out"
