"""Self-tests for the end-to-end benchmark's own machinery."""

from __future__ import annotations

import asyncio
import json
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

import run
import workloads
from layers import AsyncBillModel, Bill, BillModel, LayerProbe
from stats import highest_supported, percentile, samples_beyond
from workloads import WORKLOADS, open_loop

from repro.llm import Completion, LanguageModel
from repro.llm.base import CompletionRequest
from repro.telemetry import estimate_tokens

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# --- traced and untraced runs agree -------------------------------------------


def _answers(workload, seed, seconds, probe):
    patched = probe.patched() if probe is not None else nullcontext()
    with patched:
        inputs, _, session = run._set_up(workload, seed, seconds, probe=probe)
        try:
            if probe is not None:
                session.attach(probe.telemetry)
            result = session.run(inputs.requests, inputs.due)
        finally:
            session.close()
    return [response.answer_text for response in result.responses]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapped_and_unwrapped_specs_answer_alike(name, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_REQUESTS", 0)
    workload = WORKLOADS[name]
    seconds = 40 / workload.rate_qps          # a 40-request slice
    probe = LayerProbe()
    untraced = _answers(workload, 5, seconds, None)
    traced = _answers(workload, 5, seconds, probe)
    assert len(untraced) == 40
    assert traced == untraced
    kinds = {span.kind for span in probe.telemetry.spans}
    assert {"request", "bench.serving.build", "bench.engine.prompt_build",
            "bench.engine.action_parse", "bench.engine.step",
            "bench.llm.complete", "bench.llm.api_wait",
            "bench.executors.sql", "bench.perf.encode"} <= kinds
    if workload.voting == "s-vote":
        assert {"bench.engine.vote_tally", "bench.sqlengine.execute"} <= kinds


def test_layer_patches_are_restored():
    import repro.engine.core

    original = repro.engine.core.parse_action
    with LayerProbe().patched():
        assert repro.engine.core.parse_action is not original
    assert repro.engine.core.parse_action is original


# --- the simulated API bill ---------------------------------------------------


class _Echo(LanguageModel):
    name = "echo"

    def complete(self, prompt, *, temperature=0.0, n=1):
        return [Completion(f"answer to {prompt}") for _ in range(n)]


def _batch():
    return [CompletionRequest(prompt="first", n=5),
            CompletionRequest(prompt="second", n=1)]


def test_bill_charges_one_latency_per_round_trip():
    sleeps = []
    bill = Bill(0.004, 0.0001)
    model = BillModel(_Echo(), bill, sleep=sleeps.append)
    model.complete("alone", n=2)
    model.complete_batch(_batch())
    assert sleeps == [pytest.approx(0.004 + 2 * 0.0001),
                      pytest.approx(0.004 + 6 * 0.0001)]
    assert (bill.round_trips, bill.prompts, bill.completions) == (2, 3, 8)
    assert bill.prompt_tokens == sum(
        estimate_tokens(p) for p in ("alone", "first", "second"))
    assert bill.completion_tokens == (
        2 * estimate_tokens("answer to alone")
        + 5 * estimate_tokens("answer to first")
        + estimate_tokens("answer to second"))


def test_async_bill_awaits_one_latency_per_round_trip():
    sleeps = []

    async def sleep(seconds):
        sleeps.append(seconds)

    async def scenario(model):
        await model.complete("alone", n=2)
        await model.complete_batch(_batch())

    bill = Bill(0.004, 0.0001)
    asyncio.run(scenario(AsyncBillModel(_Echo(), bill, sleep=sleep)))
    assert sleeps == [pytest.approx(0.004 + 2 * 0.0001),
                      pytest.approx(0.004 + 6 * 0.0001)]
    assert bill.round_trips == 2


def test_zero_latency_bill_never_sleeps():
    sleeps = []
    bill = Bill()
    BillModel(_Echo(), bill, sleep=sleeps.append).complete_batch(_batch())
    assert sleeps == [] and bill.round_trips == 1


# --- percentiles --------------------------------------------------------------


def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert highest_supported(10_000) == 99.9
    assert highest_supported(1000) == 99.0
    assert samples_beyond(1000, 99.0) == 10
    assert highest_supported(999) == 95.0
    assert highest_supported(20) == 50.0
    assert highest_supported(19) is None
    values = list(range(1, 1001))
    p99 = percentile(values, 99.0)
    assert p99 == 990
    assert sum(value > p99 for value in values) == 10


# --- the open-loop generator --------------------------------------------------


def test_open_loop_times_requests_from_their_due_time():
    async def answer(request):
        if request == "stall":
            time.sleep(0.05)      # blocks the loop: later sends go late
        await asyncio.sleep(0)
        return request

    requests = ["stall", "a", "b"]
    result = asyncio.run(open_loop(answer, requests, [0.0, 0.01, 0.02]))
    assert result.responses == requests
    assert result.lags[0] < 0.01
    assert result.lags[1] >= 0.03 and result.lags[2] >= 0.02
    for latency, lag in zip(result.latencies, result.lags):
        assert latency >= lag
    assert result.latencies[0] >= 0.05


# --- the benchmark's declared surface -----------------------------------------


def test_workloads_match_benchmark_json():
    declared = _benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_metric_names_match_benchmark_json(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    declared = _benchmark_json()
    workload = WORKLOADS["repeat-open"]
    seconds = workloads.MIN_REQUESTS / workload.rate_qps
    measured, problems = run.end_to_end(workload, 3, seconds)
    assert not problems and measured["correct"]
    assert list(measured["metrics"]) == [
        m["name"] for m in declared["end_to_end"]]
    layered, problems = run.per_layer(workload, 3, seconds)
    assert not problems and layered["correct"]
    assert sorted(layered["metrics"]) == sorted(
        m["name"] for m in declared["per_layer"])
    assert (tmp_path / "repeat-open.jsonl").exists()


def test_every_substrate_case_maps_to_a_layer_metric():
    cases = json.loads(
        (REPO / "results" / "BENCH_perf_substrates.json").read_text())["cases"]
    mapping = json.loads((BENCH / "microcases.json").read_text())["cases"]
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(mapping) == set(cases)
    for name, entry in mapping.items():
        assert entry["metric"] in per_layer, name
        assert entry["workload"] in WORKLOADS, name
        assert isinstance(entry["informational"], bool), name
