"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.model == "codex-sim"

    def test_evaluate_options(self):
        args = build_parser().parse_args([
            "evaluate", "tabfact", "--voting", "s-vote", "--size", "10",
            "--sql-only",
        ])
        assert args.dataset == "tabfact"
        assert args.sql_only

    def test_batch_options(self):
        args = build_parser().parse_args([
            "batch", "wikitq", "--workers", "8", "--cache-size", "64",
            "--timeout", "2.5", "--metrics-out", "m.json",
        ])
        assert args.workers == 8
        assert args.cache_size == 64
        assert args.timeout == 2.5
        assert args.metrics_out == "m.json"

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "wikitq"])
        assert args.workers == 4
        assert args.cache_size == 1024
        assert args.timeout is None
        assert args.metrics_out is None

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos", "wikitq"])
        assert args.rates == "0,0.05,0.2"
        assert args.retries == 2
        assert args.model_retries == 2
        assert args.breaker_threshold == 5
        assert args.verify_passthrough

    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert not args.timings
        assert not args.update_baseline
        assert args.baseline is None

    def test_perf_options(self):
        args = build_parser().parse_args([
            "perf", "--timings", "--baseline", "b.json",
        ])
        assert args.timings
        assert args.baseline == "b.json"

    def test_chaos_options(self):
        args = build_parser().parse_args([
            "chaos", "tabfact", "--rates", "0,0.5", "--size", "10",
            "--breaker-threshold", "0", "--no-verify-passthrough",
        ])
        assert args.rates == "0,0.5"
        assert args.breaker_threshold == 0
        assert not args.verify_passthrough
        assert not args.use_async

    def test_chaos_async_flag(self):
        args = build_parser().parse_args(["chaos", "wikitq", "--async"])
        assert args.use_async

    def test_batch_reflect_flag(self):
        assert not build_parser().parse_args(
            ["batch", "wikitq"]).reflect
        assert build_parser().parse_args(
            ["batch", "wikitq", "--reflect"]).reflect


class TestDemo:
    def test_demo_solves_running_example(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "which country had the most cyclists" in out
        assert "Answer: ITA" in out


class TestGenerate:
    def test_emits_jsonl(self, capsys):
        assert main(["generate", "wikitq", "--size", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert {"uid", "question", "answer", "table"} <= set(record)


class TestAnalyze:
    def test_renders_report(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["analyze", "wikitq", "--size", "8",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Error analysis" in out
        assert trace.exists()


class TestEvaluate:
    def test_reports_accuracy(self, capsys):
        assert main(["evaluate", "wikitq", "--size", "10"]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "iteration histogram:" in out

    def test_fetaqa_reports_rouge(self, capsys):
        assert main(["evaluate", "fetaqa", "--size", "5"]) == 0
        assert "ROUGE-1/2/L" in capsys.readouterr().out

    def test_voting_flag(self, capsys):
        assert main(["evaluate", "wikitq", "--size", "5",
                     "--voting", "s-vote", "--samples", "3"]) == 0
        assert "voting=s-vote" in capsys.readouterr().out


class TestBatch:
    def test_reports_accuracy_and_serving_stats(self, capsys):
        assert main(["batch", "wikitq", "--size", "10",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "accuracy:" in out
        assert "throughput:" in out
        assert "cache hit rate:" in out

    def test_reflect_flag_reports_reflections(self, capsys):
        assert main(["batch", "wikitq", "--size", "12",
                     "--workers", "2", "--reflect"]) == 0
        out = capsys.readouterr().out
        assert "reflections:" in out
        assert "reflected outcomes:" in out

    def test_matches_sequential_accuracy(self, capsys):
        assert main(["evaluate", "wikitq", "--size", "12"]) == 0
        sequential = capsys.readouterr().out
        assert main(["batch", "wikitq", "--size", "12",
                     "--workers", "4"]) == 0
        batched = capsys.readouterr().out
        pick = lambda text, label: next(  # noqa: E731
            line for line in text.splitlines()
            if line.startswith(label))
        assert (pick(batched, "accuracy:")
                == pick(sequential, "accuracy:"))
        assert (pick(batched, "iteration histogram:")
                == pick(sequential, "iteration histogram:"))

    def test_writes_metrics_and_trace(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["batch", "wikitq", "--size", "6",
                     "--workers", "2",
                     "--metrics-out", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "metrics written:" in out
        assert "trace written:" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["completed"] == 6
        assert trace_path.exists()


class TestTrace:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["batch", "wikitq", "--size", "6", "--workers", "2",
                     "--trace", str(path)]) == 0
        return path

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_summary_reports_depth_and_tokens(self, capsys, trace_path):
        capsys.readouterr()
        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace: 6 request(s)" in out
        assert "tokens:" in out
        assert "model calls" in out
        # Acceptance criterion: request span depth >= 3 over the
        # serving envelope -> agent -> iteration nesting.
        depths = [int(part.split("=")[1])
                  for line in out.splitlines() if "depth=" in line
                  for part in line.split() if part.startswith("depth=")]
        assert depths and all(depth >= 3 for depth in depths)

    def test_summary_tokens_match_trace_cost(self, capsys, trace_path):
        from repro.telemetry import TraceAnalyzer, cost_summary, load_trace

        capsys.readouterr()
        trace = load_trace(trace_path)
        analyzer = TraceAnalyzer(trace)
        summary = analyzer.summary()
        # The analyzer's totals are the span-tree fold-up; cost_summary
        # recomputes them from the raw roots — they must agree.
        spans_cost = {
            "prompt": sum(s.get("prompt_tokens", 0)
                          for s in trace["spans"]
                          if s.get("parent_id") is None),
            "completion": sum(s.get("completion_tokens", 0)
                              for s in trace["spans"]
                              if s.get("parent_id") is None),
        }
        assert summary["prompt_tokens"] == spans_cost["prompt"]
        assert summary["completion_tokens"] == spans_cost["completion"]
        assert cost_summary.__module__ == "repro.telemetry.cost"

    def test_critical_path(self, capsys, trace_path):
        capsys.readouterr()
        assert main(["trace", "critical-path", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "-> request" in out
        assert "-> agent_run" in out

    def test_flame(self, capsys, trace_path):
        capsys.readouterr()
        assert main(["trace", "flame", str(trace_path),
                     "--width", "20"]) == 0
        out = capsys.readouterr().out
        assert "|#" in out
        assert "request wikitq-" in out

    def test_export_chrome_is_valid_trace_event_json(
            self, capsys, trace_path, tmp_path):
        capsys.readouterr()
        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace_path),
                     "--format", "chrome", "-o", str(out_path)]) == 0
        chrome = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        phases = {entry["ph"] for entry in chrome["traceEvents"]}
        assert phases == {"X", "i"}
        for entry in chrome["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid", "cat"} <= set(entry)

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot load trace" in capsys.readouterr().err


class TestPerf:
    def test_smoke_passes(self, capsys):
        assert main(["perf"]) == 0
        assert "perf checks: ok" in capsys.readouterr().out

    def test_timings_with_fresh_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        assert main(["perf", "--timings",
                     "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert "native_group_aggregate" in capsys.readouterr().out

    def test_unknown_case_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--case", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestChaos:
    def test_sweep_reports_degradation_curve(self, capsys):
        assert main(["chaos", "wikitq", "--size", "8", "--workers", "2",
                     "--rates", "0,0.3",
                     "--fault-latency", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "rate" in out and "accuracy" in out
        assert "0.00" in out and "0.30" in out
        assert "bit-identical to uninjected run: True" in out

    def test_async_sweep_verifies_rate_zero_passthrough(self, capsys):
        # The satellite bar: the async ladder, like the pool, must be
        # bit-identical at rate zero with the fault wrappers installed.
        assert main(["chaos", "wikitq", "--size", "6", "--workers", "2",
                     "--rates", "0", "--fault-latency", "0.001",
                     "--async"]) == 0
        out = capsys.readouterr().out
        assert "async" in out
        assert "bit-identical to uninjected run: True" in out

    def test_writes_metrics_and_trace(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["chaos", "wikitq", "--size", "6", "--workers", "2",
                     "--rates", "0.3", "--fault-latency", "0.001",
                     "--metrics-out", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "metrics written" in out
        assert "trace written" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["completed"] == 6
        assert metrics["faults_injected"] > 0
        assert sum(metrics["outcomes"].values()) == 6
        assert trace_path.exists()

    def test_bad_rates_rejected(self, capsys):
        assert main(["chaos", "wikitq", "--rates", "nope"]) == 2


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "wikitq"])
        assert args.port == 0
        assert args.max_inflight == 16
        assert args.requests == 0
        assert args.slo_availability == 0.995
        assert args.sample_rate == 0.1

    def test_replay_with_self_scrape(self, capsys):
        assert main(["serve", "wikitq", "--size", "8", "--requests",
                     "8", "--scrape"]) == 0
        out = capsys.readouterr().out
        assert "/metrics /healthz /readyz /slo /traces" in out
        assert "outcomes: {'ok': 8}" in out
        assert "serving_outcomes_total" in out
        assert '"tenants"' in out
        assert "drained and stopped" in out


class TestNumericArguments:
    @pytest.mark.parametrize("argv", [
        ["batch", "wikitq", "--workers", "0"],
        ["chaos", "wikitq", "--workers", "0"],
        ["batch", "wikitq", "--async", "--max-inflight", "0"],
        ["serve", "wikitq", "--max-inflight", "0"],
        ["serve", "wikitq", "--max-queued", "-1"],
        ["batch", "wikitq", "--retries", "-1"],
        ["batch", "wikitq", "--timeout", "-1"],
        ["batch", "wikitq", "--timeout", "0"],
        ["evaluate", "wikitq", "--voting", "s-vote", "--samples", "0"],
        ["batch", "wikitq", "--voting", "s-vote", "--samples", "-3"],
        ["serve", "wikitq", "--samples", "0"],
        ["chaos", "wikitq", "--samples", "0"],
        ["batch", "wikitq", "--workers", "two"],
    ], ids=lambda argv: " ".join(argv))
    def test_rejected_as_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[-2]}:" in err
        assert "Traceback" not in err

    def test_boundary_values_accepted(self):
        args = build_parser().parse_args([
            "serve", "wikitq", "--max-queued", "0", "--retries", "0",
            "--max-inflight", "1", "--samples", "1", "--timeout", "0.5",
        ])
        assert (args.max_queued, args.retries, args.max_inflight,
                args.samples, args.timeout) == (0, 0, 1, 1, 0.5)
