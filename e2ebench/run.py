"""End-to-end benchmark: seeded serving workloads, per-layer traced runs.

Run from the repository root::

    python3 e2ebench/run.py --workload greedy-pool --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same requests twice, untraced and then traced, and
reports the per-layer metrics; it fails unless both passes give the same
answers.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
output check fails prints ``"correct": false`` and exits with status 1.
See ``e2ebench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if not (_SRC / "repro").is_dir():
    # Measure the checkout's own program, never an installed copy.
    sys.exit(f"e2ebench: no program source under {_SRC}")
sys.path.insert(0, str(_HERE))
sys.path.insert(1, str(_SRC))

from layers import LAYERS, SPAN_LAYER, Bill, LayerProbe  # noqa: E402
from stats import highest_supported, percentile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    BenchSpec,
    make_inputs,
    open_session,
)

from repro.evalkit import evaluate_answer  # noqa: E402
from repro.perf.encode_cache import DEFAULT_ENCODE_CACHE  # noqa: E402
from repro.serving import OUTCOMES  # noqa: E402
from repro.sqlengine.plancache import (  # noqa: E402
    DEFAULT_PLAN_CACHE,
    DEFAULT_REWRITE_CACHE,
)
from repro.telemetry.metrics import GLOBAL_REGISTRY  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _STARTED

#: A ``--trace 0`` run sets up at least SETUP_TRIALS times and until
#: SETUP_BUDGET_S seconds of set-up are measured; ``setup_s`` reports
#: the mean.  On a shared host CPU speed can move in phases several
#: seconds long; a median over short set-ups then lands in one phase or
#: the other and flips between runs, where a mean over many seconds
#: does not.
SETUP_TRIALS = 3
SETUP_BUDGET_S = 8.0
#: Outcomes that count as a failed request.
FAILED = frozenset({"error_transient", "error_permanent",
                    "deadline_exceeded", "rejected"})
#: Event-loop probe period for the async closed loop's traced pass.
HEARTBEAT_S = 0.001
#: Where the traced run leaves its span store (JSONL).
TRACE_DIR = _HERE / "out"


# --- one pass -----------------------------------------------------------------


def _clear_process_caches() -> None:
    """Forget encodings and plans a previous set-up or pass left behind."""
    for cache in (DEFAULT_ENCODE_CACHE, DEFAULT_PLAN_CACHE,
                  DEFAULT_REWRITE_CACHE):
        cache.clear()
    gc.collect()


def _set_up(workload, seed, seconds, *, probe=None):
    """Inputs, a started server, warm-up done.  Returns (inputs, bill, session)."""
    inputs = make_inputs(workload, seed, seconds)
    bill = Bill(workload.round_trip_ms / 1000.0,
                workload.per_completion_ms / 1000.0)
    session = open_session(workload, inputs,
                           BenchSpec(workload, inputs.bank, bill, probe=probe))
    try:
        session.run(inputs.warmup)
    except BaseException:
        session.close()
        raise
    bill.reset()
    return inputs, bill, session


def _counters() -> dict:
    return {instrument.name: instrument.values()
            for instrument in GLOBAL_REGISTRY.instruments()
            if instrument.kind == "counter"}


def _counter_delta(before: dict, after: dict, name: str) -> dict:
    """``label tuple -> increase`` of one global counter over a pass."""
    old = before.get(name, {})
    return {labels: value - old.get(labels, 0.0)
            for labels, value in after.get(name, {}).items()
            if value - old.get(labels, 0.0)}


# --- output checks ------------------------------------------------------------


def _problems(inputs, result) -> list[str]:
    """What is wrong with a pass's responses (empty when all is well)."""
    problems = []
    answers: dict[int, str] = {}
    for index, response in enumerate(result.responses):
        if response is None or response.outcome not in OUTCOMES:
            outcome = getattr(response, "outcome", None)
            problems.append(f"request {index}: outcome {outcome!r} is not "
                            f"one of OUTCOMES")
            continue
        if response.outcome in FAILED:
            continue
        question = inputs.order[index]
        text = response.answer_text
        if answers.setdefault(question, text) != text:
            problems.append(f"request {index}: question {question} answered "
                            f"{text!r} and {answers[question]!r}")
    return problems


def _accuracy(inputs, result) -> float:
    """Share of the distinct questions asked that were answered correctly.

    Repeats of a question carry the same answer (``_problems`` checks
    that), so scoring each distinct question once keeps a few popular
    questions from deciding the figure.
    """
    verdicts: dict[int, bool] = {}
    for index, response in enumerate(result.responses):
        question = inputs.order[index]
        if question in verdicts:
            continue
        dataset, example = inputs.questions[question]
        verdicts[question] = (response.outcome not in FAILED
                              and evaluate_answer(dataset, response.answer,
                                                  example.gold_answer))
    return sum(verdicts.values()) / len(verdicts)


# --- end-to-end metrics (tracing off) -----------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p99_ms(values_s: list) -> float:
    supported = highest_supported(len(values_s))
    if supported is None or supported < 99.0:
        raise RuntimeError(f"{len(values_s)} samples cannot support a p99")
    return 1000.0 * percentile(values_s, 99.0)


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list]:
    setups = []
    while len(setups) < SETUP_TRIALS or sum(setups) < SETUP_BUDGET_S:
        if setups:
            session.close()
            del inputs, bill, session
        _clear_process_caches()
        started = time.perf_counter()
        inputs, bill, session = _set_up(workload, seed, seconds)
        setups.append(time.perf_counter() - started)
    try:
        result = session.run(inputs.requests, inputs.due)
    finally:
        session.close()
    count = len(result.responses)
    problems = _problems(inputs, result)
    failed = sum(1 for r in result.responses
                 if r is not None and r.outcome in FAILED)
    within_slo = sum(
        1 for response, latency in zip(result.responses, result.latencies)
        if response.outcome not in FAILED
        and latency * 1000.0 <= workload.slo_ms)
    metrics = {
        "throughput_qps": _metric(count / result.elapsed, "1/s"),
        "latency_p50_ms": _metric(
            1000.0 * percentile(result.latencies, 50.0), "ms"),
        "latency_p99_ms": _metric(_p99_ms(result.latencies), "ms"),
        "slo_attainment": _metric(within_slo / count, "ratio"),
        "accuracy": _metric(_accuracy(inputs, result), "ratio"),
        "tokens_per_q": _metric(bill.tokens / count, "tokens"),
        "answered_share": _metric(1.0 - failed / count, "ratio"),
        "setup_s": _metric(IMPORT_SECONDS + sum(setups) / len(setups),
                           "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return _result(problems, count, failed, metrics), problems


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(problems, attempted, failed, metrics) -> dict:
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# --- per-layer metrics (one traced pass) --------------------------------------


def _nearest_bench_parent(span, by_id):
    parent = by_id.get(span.parent_id)
    while parent is not None and not parent.kind.startswith("bench."):
        parent = by_id.get(parent.parent_id)
    return parent


def summarize_spans(telemetry) -> tuple[dict, dict]:
    """Per wrapped-call kind totals, and runner wall time per request uid.

    ``self_cpu`` is a call's CPU time minus that of the wrapped calls
    nested inside it, so summing it over kinds counts no CPU twice.
    Runner wall time sums a request's outermost wrapped calls outside
    the serving layer (the ladder's own calls stay in the ladder).
    """
    spans = telemetry.spans
    by_id = {s.span_id: s for s in spans}
    uid_of = {s.trace_id: s.attributes.get("uid")
              for s in spans if s.kind == "request"}
    kinds = {kind: {"calls": 0, "cpu": 0.0, "self_cpu": 0.0, "wall": 0.0,
                    "failed": 0, "retried": 0, "chars": 0}
             for kind in SPAN_LAYER}
    wrapped_wall: dict[str, float] = {}
    for span in spans:
        entry = kinds.get(span.kind)
        if entry is None:
            continue
        cpu = span.attributes.get("cpu", 0.0)
        entry["calls"] += 1
        entry["cpu"] += cpu
        entry["self_cpu"] += cpu
        entry["wall"] += span.duration
        entry["failed"] += span.status == "error"
        entry["retried"] += bool(span.attributes.get("retried"))
        entry["chars"] += span.attributes.get("chars", 0)
        parent = _nearest_bench_parent(span, by_id)
        if parent is not None:
            kinds[parent.kind]["self_cpu"] -= cpu
        elif SPAN_LAYER[span.kind] != "serving":
            uid = uid_of.get(span.trace_id)
            wrapped_wall[uid] = wrapped_wall.get(uid, 0.0) + span.duration
    return kinds, wrapped_wall


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(bill, base, traced, probe, counters) -> dict:
    """The per-layer table of one traced pass (see NOTES.md)."""
    kinds, wrapped_wall = summarize_spans(probe.telemetry)
    count = len(traced.responses)
    responses = traced.responses
    computed = [r for r in responses if not r.coalesced and not r.cached]
    primaries = [r for r in responses if not r.coalesced]
    queue_wait = [latency - response.latency for response, latency
                  in zip(responses, traced.latencies)]
    ladder = [r.latency - wrapped_wall.get(r.uid, 0.0) for r in primaries]
    lag = traced.lags or [0.0]

    def per_call(kind, field="cpu", scale=1e6):
        return scale * _ratio(kinds[kind][field], kinds[kind]["calls"])

    sql, python = kinds["bench.executors.sql"], kinds["bench.executors.python"]
    tiers = _counter_delta(*counters, "sql.tier_dispatch")
    tier_total = sum(tiers.values())
    fallbacks = sum(_counter_delta(*counters, "sql.tier_fallback").values())
    lookups = _counter_delta(*counters, "cache.lookups")

    def cache_hits(name):
        hits = lookups.get((("cache", name), ("result", "hit")), 0.0)
        misses = lookups.get((("cache", name), ("result", "miss")), 0.0)
        return _ratio(hits, hits + misses)

    def tier_share(tier):
        return _ratio(sum(v for labels, v in tiers.items()
                          if ("tier", tier) in labels), tier_total)

    busy = {layer: 0.0 for layer in LAYERS}
    for kind, entry in kinds.items():
        busy[SPAN_LAYER[kind]] += entry["self_cpu"]
    values = {
        "serving.queue_wait_ms_p50": (
            1000.0 * percentile(queue_wait, 50.0), "ms"),
        "serving.queue_wait_ms_p99": (_p99_ms(queue_wait), "ms"),
        "serving.ladder_us_per_q": (
            1e6 * sum(ladder) / len(ladder), "us"),
        "serving.cache_hit_ratio": (
            _ratio(sum(r.cached and not r.coalesced for r in responses),
                   count), "ratio"),
        "serving.coalesced_ratio": (
            _ratio(sum(r.coalesced for r in responses), count), "ratio"),
        "serving.attempts_per_q": (
            _ratio(sum(r.attempts for r in computed), len(computed)),
            "count"),
        "serving.degraded_ratio": (
            _ratio(sum(r.degraded for r in responses), count), "ratio"),
        "aio.prompts_per_round_trip": (
            _ratio(bill.prompts, bill.round_trips), "count"),
        "aio.loop_lag_ms_p99": (_p99_ms(lag), "ms"),
        "engine.iterations_per_chain": (
            _ratio(probe.chain_iterations, probe.chains), "count"),
        "engine.prompt_encode_us_per_call": (
            per_call("bench.engine.prompt_build"), "us"),
        "engine.prompt_chars_per_call": (
            per_call("bench.engine.prompt_build", "chars", 1.0), "chars"),
        "engine.action_parse_us_per_call": (
            per_call("bench.engine.action_parse"), "us"),
        "engine.vote_tally_cpu_share": (
            _ratio(kinds["bench.engine.vote_tally"]["cpu"], traced.cpu),
            "ratio"),
        "llm.prompts_per_q": (bill.prompts / count, "count"),
        "llm.round_trips_per_q": (bill.round_trips / count, "count"),
        "llm.prompt_tokens_per_q": (bill.prompt_tokens / count, "tokens"),
        "llm.completion_tokens_per_q": (
            bill.completion_tokens / count, "tokens"),
        "llm.model_cpu_us_per_call": (per_call("bench.llm.complete"), "us"),
        "llm.api_wait_ms_per_q": (
            1000.0 * kinds["bench.llm.api_wait"]["wall"] / count, "ms"),
        "executors.sql_calls_per_q": (sql["calls"] / count, "count"),
        "executors.sql_cpu_us_per_call": (
            per_call("bench.executors.sql"), "us"),
        "executors.sql_wait_us_per_call": (
            1e6 * _ratio(sql["wall"] - sql["cpu"], sql["calls"]), "us"),
        "executors.sql_retry_ratio": (
            _ratio(sql["retried"], sql["calls"]), "ratio"),
        "executors.sql_fail_ratio": (
            _ratio(sql["failed"], sql["calls"]), "ratio"),
        "executors.python_calls_per_q": (python["calls"] / count, "count"),
        "executors.python_cpu_us_per_call": (
            per_call("bench.executors.python"), "us"),
        "executors.python_fail_ratio": (
            _ratio(python["failed"], python["calls"]), "ratio"),
        "sqlengine.tier_share.vector": (tier_share("vector"), "ratio"),
        "sqlengine.tier_share.compiled": (tier_share("compiled"), "ratio"),
        "sqlengine.tier_share.interpreted": (
            tier_share("interpreted"), "ratio"),
        "sqlengine.fallbacks_per_call": (
            _ratio(fallbacks, kinds["bench.sqlengine.execute"]["calls"]),
            "ratio"),
        "sqlengine.plan_cache_hit_ratio": (cache_hits("sql_plan"), "ratio"),
        "perf.encode_cache_hit_ratio": (cache_hits("encode"), "ratio"),
        "telemetry.overhead_ratio": (
            traced.elapsed / base.elapsed - 1.0, "ratio"),
        "bench.unattributed_cpu_share": (
            1.0 - _ratio(sum(busy.values()), traced.cpu), "ratio"),
    }
    for layer in LAYERS:
        values[f"{layer}.busy_share"] = (_ratio(busy[layer], traced.cpu),
                                         "ratio")
    return {name: _metric(value, unit)
            for name, (value, unit) in values.items()}


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list]:
    _clear_process_caches()
    inputs, bill, session = _set_up(workload, seed, seconds)
    try:
        base = session.run(inputs.requests, inputs.due)
    finally:
        session.close()
    problems = _problems(inputs, base)
    base_answers = [r.answer_text for r in base.responses]
    del inputs, bill, session

    _clear_process_caches()
    probe = LayerProbe()
    with probe.patched():
        inputs, bill, session = _set_up(workload, seed, seconds, probe=probe)
        try:
            session.attach(probe.telemetry)
            before = _counters()
            heartbeat = (HEARTBEAT_S if workload.server == "async"
                         and inputs.due is None else None)
            traced = session.run(inputs.requests, inputs.due,
                                 heartbeat=heartbeat)
            after = _counters()
        finally:
            session.close()
    problems += _problems(inputs, traced)
    differing = [index for index, (old, response)
                 in enumerate(zip(base_answers, traced.responses))
                 if response is None or response.answer_text != old]
    if differing:
        problems.append(f"traced answers differ from untraced ones on "
                        f"{len(differing)} requests, first {differing[0]}")
    metrics = layer_metrics(bill, base, traced, probe, (before, after))
    TRACE_DIR.mkdir(exist_ok=True)
    probe.telemetry.save(TRACE_DIR / f"{workload.name}.jsonl")
    failed = sum(1 for r in traced.responses
                 if r is not None and r.outcome in FAILED)
    return (_result(problems, len(traced.responses), failed, metrics),
            problems)


# --- command line -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    result, problems = run(workload, args.seed, args.seconds)
    for problem in problems[:20]:
        print(f"output check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
