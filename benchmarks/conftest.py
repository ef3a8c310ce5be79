"""Pytest configuration for the benchmark suite."""

import os
import sys
from pathlib import Path

# Make the sibling ``harness`` module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

#: The checkout's committed results, whatever directory pytest runs from.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

import pytest


class _FallbackBenchmarkPlugin:
    """Provides ``benchmark`` when the pytest-benchmark plugin is absent."""

    @pytest.fixture
    def benchmark(self):
        from harness import FallbackBenchmark

        return FallbackBenchmark()


def pytest_configure(config):
    # Results land in the checkout's results/ (not in results/ under the
    # working directory) unless REPRO_RESULTS_DIR says otherwise.
    os.environ.setdefault("REPRO_RESULTS_DIR", str(RESULTS_DIR))
    # Degrade gracefully: if pytest-benchmark is not installed (or was
    # disabled with -p no:benchmark), register a perf_counter-based
    # ``benchmark`` fixture so the bench suites still run.
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_FallbackBenchmarkPlugin(),
                                      "fallback-benchmark")
