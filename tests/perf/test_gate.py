"""The perf gate: correctness smoke, baseline handling, regression logic."""

import json

import pytest

from repro.perf.gate import judge, run_checks, run_timings


@pytest.fixture(scope="module")
def report():
    """One timing run, judged by every baseline case below."""
    return run_timings(repeats=2)


class TestRunChecks:
    def test_all_green(self):
        assert run_checks() == []


class TestRunGate:
    def test_writes_baseline_when_missing(self, report, tmp_path):
        baseline = tmp_path / "baseline.json"
        failures = judge(report, baseline)
        assert baseline.exists()
        saved = json.loads(baseline.read_text())
        assert saved["cases"].keys() == report["cases"].keys()
        # No regression failures possible on a fresh baseline; floor
        # failures would indicate the optimisations themselves broke.
        assert failures == []

    def test_flags_regression_against_absurd_baseline(self, report,
                                                      tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {
                "native_group_aggregate": {"speedup": 10_000.0},
            },
        }))
        failures = judge(report, baseline)
        assert any("regressed" in failure for failure in failures)

    def test_informational_cases_exempt_from_drift_band(self, report,
                                                        tmp_path):
        # vector_distinct has no FLOORS entry: its ratio is documented
        # but never gated, even against an absurd baseline.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"vector_distinct": {"speedup": 10_000.0}},
        }))
        assert judge(report, baseline) == []

    def test_update_baseline_overwrites(self, report, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"native_group_aggregate": {"speedup": 10_000.0}},
        }))
        failures = judge(report, baseline, update_baseline=True)
        saved = json.loads(baseline.read_text())
        assert saved["cases"]["native_group_aggregate"]["speedup"] < 1000
        assert failures == []
