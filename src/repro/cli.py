"""Command-line interface: ``python -m repro`` / ``reactable-repro``.

Subcommands:

* ``ask`` — answer one natural-language question over a CSV table with a
  scripted demo chain (or over a generated benchmark question).
* ``demo`` — run the paper's Figure 1 running example end to end and print
  the full transcript.
* ``generate`` — emit a synthetic benchmark as JSON lines.
* ``evaluate`` — run one configuration over a benchmark and report
  accuracy plus the iteration histogram.
* ``batch`` — the same evaluation through the concurrent serving layer
  (worker pool + answer cache), with serving metrics.  ``--strategy``
  (or ``REPRO_STRATEGY``) picks any registered reasoning strategy or an
  ``ensemble:a+b+c`` heterogeneous vote.
* ``bench strategies`` — the cross-strategy evaluation matrix: every
  registered strategy plus the heterogeneous ensemble over seeded
  WikiTQ/TabFact suites, written to ``results/strategy_matrix.txt``.
* ``chaos`` — sweep deterministic fault-injection rates over a benchmark
  through the hardened serving stack and report the degradation curve
  (accuracy, answer rate, classified outcomes, breaker/retry activity).
* ``perf`` — the performance-layer smoke: optimisations disabled must
  produce identical results (compiled vs interpreted SQL, caches on vs
  off); ``--timings`` additionally runs the benchmark regression gate.
* ``trace`` — inspect a telemetry trace file written by ``batch``,
  ``chaos``, or ``analyze``: ``summary`` (per-request span depth,
  per-stage wall time, token totals), ``critical-path``, ``flame``
  (text flamegraph), and ``export --format chrome`` (Perfetto /
  ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core import ReActTableAgent, make_voter
from repro.datasets import generate_dataset
from repro.evalkit import evaluate_agent
from repro.executors import default_registry, sql_only_registry
from repro.llm import SimulatedTQAModel, get_profile
from repro.table import io as table_io


def _cmd_demo(args) -> int:
    from repro.table import DataFrame

    table = DataFrame({
        "Rank": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "Cyclist": [
            "Alejandro Valverde (ESP)", "Alexandr Kolobnev (RUS)",
            "Davide Rebellin (ITA)", "Paolo Bettini (ITA)",
            "Franco Pellizotti (ITA)", "Denis Menchov (RUS)",
            "Samuel Sanchez (ESP)", "Stephane Goubert (FRA)",
            "Haimar Zubeldia (ESP)", "David Moncoutie (FRA)",
        ],
        "Team": ["Caisse d'Epargne", "Team CSC Saxo Bank", "Gerolsteiner",
                 "Quick Step", "Liquigas", "Rabobank", "Euskaltel",
                 "AG2R", "Euskaltel", "Cofidis"],
        "Points": [40, 30, 25, 20, 15, 11, 7, 5, 3, 1],
    }, name="T0")
    question = "which country had the most cyclists finish in the top 10?"

    # Build a tiny bank holding just this question's gold plan.
    from repro.datasets.spec import QuestionBank, TQAExample
    from repro.plans import (AnswerStep, ExtractStep, FilterStep,
                             GroupCountStep, Plan)

    plan = Plan([
        FilterStep(condition="Rank <= 10", columns=("Cyclist",),
                   reads=("Rank",)),
        ExtractStep(source="Cyclist", target="Country",
                    pattern=r"\((\w+)\)"),
        GroupCountStep(key="Country", limit=1),
        AnswerStep(kind="cell"),
    ])
    example = TQAExample(uid="demo-0", dataset="wikitq", table=table,
                         question=question, plan=plan,
                         gold_answer=plan.execute(table).answer,
                         difficulty=0.05)
    bank = QuestionBank()
    bank.register(example)

    # The simulated model errs at a realistic rate; for a *demo* we want
    # the happy path, so scan model seeds until the chain solves cleanly.
    result = None
    for seed in range(64):
        model = SimulatedTQAModel(bank, get_profile(args.model),
                                  seed=seed)
        agent = ReActTableAgent(model)
        candidate = agent.run(table, question)
        if (candidate.answer == example.gold_answer
                and not candidate.forced
                and candidate.iterations == example.plan.num_iterations):
            result = candidate
            break
        result = result or candidate
    print(f"Question: {question}\n")
    for step in result.transcript.steps:
        print(f"  {step.action.kind.upper()}: {step.action.payload}")
        if step.table is not None:
            print("  ->", step.table.to_rows())
    print(f"\nAnswer: {result.answer_text}  "
          f"(gold: {'|'.join(example.gold_answer)}; "
          f"{result.iterations} iterations)")
    return 0


def _cmd_generate(args) -> int:
    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    for example in benchmark.examples:
        record = {
            "uid": example.uid,
            "question": example.question,
            "answer": example.gold_answer,
            "iterations": example.num_iterations,
            "table": json.loads(table_io.to_json(example.table)),
        }
        print(json.dumps(record, ensure_ascii=False))
    return 0


def _cmd_evaluate(args) -> int:
    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    model = SimulatedTQAModel(benchmark.bank, get_profile(args.model),
                              seed=args.model_seed)
    registry = (sql_only_registry() if args.sql_only
                else default_registry(sql_backend=args.sql_backend))
    kwargs = {"registry": registry}
    if args.voting != "none":
        kwargs["n"] = args.samples
    voter = make_voter(args.voting, model, **kwargs)
    report = evaluate_agent(voter, benchmark)
    print(f"dataset={args.dataset} model={model.name} "
          f"voting={args.voting} n={len(benchmark)}")
    print(f"accuracy: {report.accuracy:.3f}")
    print(f"iteration histogram: {dict(sorted(report.iteration_histogram.items()))}")
    if args.dataset == "fetaqa":
        rouge = report.rouge()
        print("ROUGE-1/2/L: "
              + " / ".join(f"{rouge[k]:.3f}"
                           for k in ("rouge1", "rouge2", "rougeL")))
    return 0


def _resolve_strategy(value: str | None) -> str:
    """The effective ``--strategy`` value, validated against the registry.

    Precedence: explicit flag, then ``REPRO_STRATEGY``, then the react
    default.  Raises :class:`repro.errors.StrategyError` for unknown
    names and malformed ensemble specs, so callers can turn it into a
    clean usage error instead of a traceback.
    """
    from repro.strategies import (get_strategy, is_ensemble_spec,
                                  parse_ensemble_spec)

    strategy = value or os.environ.get("REPRO_STRATEGY") or "react"
    if is_ensemble_spec(strategy):
        parse_ensemble_spec(strategy)
    else:
        get_strategy(strategy)
    return strategy


def _cmd_batch(args) -> int:
    from repro.errors import StrategyError
    from repro.serving import (AgentSpec, AnswerCache, BatchEvaluator,
                               RetryPolicy, ServingMetrics)
    from repro.tracing import ChainTracer

    try:
        strategy = _resolve_strategy(args.strategy)
    except StrategyError as exc:
        print(f"bad --strategy value: {exc}", file=sys.stderr)
        return 2
    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    spec = AgentSpec(bank=benchmark.bank, profile=args.model,
                     voting=args.voting, samples=args.samples,
                     sql_only=args.sql_only, sql_backend=args.sql_backend,
                     strategy=strategy)
    cache = (AnswerCache(args.cache_size) if args.cache_size > 0
             else None)
    policy = RetryPolicy(timeout=args.timeout, max_retries=args.retries)
    metrics = ServingMetrics()
    tracer = ChainTracer() if args.trace else None
    # --async (or REPRO_ASYNC_SERVER=1) swaps the thread pool for the
    # asyncio serving core: same ladder, coroutine concurrency.
    use_async = args.use_async or (
        os.environ.get("REPRO_ASYNC_SERVER", "0") == "1")
    # --reflect (or REPRO_REFLECT=1) arms the reflexion rung; None
    # leaves the decision to the serving layer's env switch.
    reflect = True if args.reflect else None
    if use_async:
        from repro.aio import AsyncBatchEvaluator

        evaluator = AsyncBatchEvaluator(
            spec, max_inflight=args.max_inflight, seed=args.model_seed,
            cache=cache, policy=policy, metrics=metrics, tracer=tracer,
            reflect=reflect)
        concurrency = f"async max_inflight={args.max_inflight}"
    else:
        evaluator = BatchEvaluator(spec, workers=args.workers,
                                   seed=args.model_seed, cache=cache,
                                   policy=policy, metrics=metrics,
                                   tracer=tracer,
                                   batch_scheduler=(
                                       True if args.batch_scheduler
                                       else None),
                                   reflect=reflect)
        concurrency = f"workers={args.workers}"
    report = evaluator.evaluate(benchmark)
    snapshot = metrics.snapshot()
    print(f"dataset={args.dataset} model={args.model} "
          f"voting={args.voting} strategy={strategy} n={len(benchmark)} "
          f"{concurrency}")
    print(f"accuracy: {report.accuracy:.3f}")
    print(f"iteration histogram: {dict(sorted(report.iteration_histogram.items()))}")
    if args.dataset == "fetaqa":
        rouge = report.rouge()
        print("ROUGE-1/2/L: "
              + " / ".join(f"{rouge[k]:.3f}"
                           for k in ("rouge1", "rouge2", "rougeL")))
    print(f"throughput: {snapshot['throughput_qps']:.2f} questions/s  "
          f"p50/p95 latency: {snapshot['latency_p50']:.4f}s"
          f"/{snapshot['latency_p95']:.4f}s")
    print(f"cache hit rate: {snapshot['cache_hit_rate']:.1%}  "
          f"timeouts: {snapshot['timeouts']}  "
          f"retries: {snapshot['retries']}  "
          f"forced answers: {snapshot['forced_answers']}")
    if reflect or snapshot["reflections"]:
        outcomes = snapshot["outcomes"]
        print(f"reflections: {snapshot['reflections']}  "
              f"reflected outcomes: {outcomes.get('reflected', 0)}")
    if args.metrics_out:
        path = metrics.save(args.metrics_out)
        print(f"metrics written: {path}")
    if tracer is not None:
        path = tracer.telemetry.save(args.trace)
        print(f"trace written: {path} "
              f"({len(tracer.telemetry.spans)} spans, "
              f"{len(tracer)} events)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.aio import AsyncServer
    from repro.serving import (AgentSpec, AnswerCache, BreakerConfig,
                               RetryPolicy, ServingMetrics, TQARequest)
    from repro.serving.daemon import ServeDaemon, http_get
    from repro.telemetry import SLOConfig, SLOTracker, TailSampler
    from repro.tracing import ChainTracer

    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    spec = AgentSpec(bank=benchmark.bank, profile=args.model,
                     voting=args.voting, samples=args.samples,
                     sql_only=args.sql_only, sql_backend=args.sql_backend)
    tenants = [name for name in args.tenants.split(",") if name]

    async def run() -> int:
        server = AsyncServer(
            spec, max_inflight=args.max_inflight,
            max_queued=args.max_queued,
            cache=(AnswerCache(args.cache_size)
                   if args.cache_size > 0 else None),
            policy=RetryPolicy(timeout=args.timeout,
                               max_retries=args.retries),
            metrics=ServingMetrics(), tracer=ChainTracer(),
            breakers=(BreakerConfig(
                failure_threshold=args.breaker_threshold)
                if args.breaker_threshold > 0 else None))
        slo = SLOTracker(SLOConfig(
            availability_target=args.slo_availability,
            latency_target=args.slo_latency_target,
            latency_threshold=args.slo_latency,
            budget_window=args.slo_window))
        sampler = TailSampler(ok_rate=args.sample_rate,
                              capacity=args.trace_capacity,
                              seed=args.seed)
        daemon = ServeDaemon(server, host=args.host, port=args.port,
                             slo=slo, sampler=sampler)
        await daemon.start()
        host, port = daemon.address
        print(f"serving on http://{host}:{port}  "
              f"(/metrics /healthz /readyz /slo /traces)")
        try:
            if args.requests > 0:
                examples = benchmark.examples
                responses = await asyncio.gather(*(
                    asyncio.ensure_future(server.answer(TQARequest(
                        table=examples[i % len(examples)].table,
                        question=examples[i % len(examples)].question,
                        seed=i,
                        uid=f"{examples[i % len(examples)].uid}#{i}",
                        tenant=tenants[i % len(tenants)])))
                    for i in range(args.requests)))
                outcomes: dict[str, int] = {}
                for response in responses:
                    outcomes[response.outcome] = (
                        outcomes.get(response.outcome, 0) + 1)
                snapshot = server.metrics.snapshot()
                print(f"replayed {len(responses)} requests over "
                      f"{len(tenants)} tenants  outcomes: "
                      f"{dict(sorted(outcomes.items()))}")
                print(f"p50/p95 latency: "
                      f"{snapshot['latency_p50']:.4f}s"
                      f"/{snapshot['latency_p95']:.4f}s  "
                      f"cache hit rate: "
                      f"{snapshot['cache_hit_rate']:.1%}")
                if args.scrape:
                    _, _, text = await http_get(host, port, "/metrics")
                    shown = [line for line in text.splitlines()
                             if line.startswith(("serving_outcomes",
                                                 "daemon_", "slo_",
                                                 "sampling_"))]
                    print("--- /metrics (excerpt) ---")
                    print("\n".join(shown[:20]))
                    _, _, slo_text = await http_get(host, port, "/slo")
                    print("--- /slo ---")
                    print(slo_text.rstrip())
            else:
                print("press Ctrl-C to drain and stop")
                while True:
                    await asyncio.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            await daemon.stop()
            print("drained and stopped")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultConfig, FaultyAgentSpec
    from repro.retry import ExponentialBackoff
    from repro.serving import (AgentSpec, BatchEvaluator, BreakerConfig,
                               OUTCOMES, RetryPolicy, ServingMetrics)
    from repro.tracing import ChainTracer

    try:
        rates = [float(rate) for rate in args.rates.split(",") if rate]
    except ValueError:
        print(f"bad --rates value {args.rates!r} "
              f"(expected e.g. 0,0.05,0.2)", file=sys.stderr)
        return 2
    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    spec = AgentSpec(bank=benchmark.bank, profile=args.model,
                     voting=args.voting, samples=args.samples,
                     sql_only=args.sql_only, sql_backend=args.sql_backend)
    backoff = (ExponentialBackoff(base=args.backoff)
               if args.backoff > 0 else None)
    breakers = (BreakerConfig(failure_threshold=args.breaker_threshold,
                              cooldown=args.breaker_cooldown)
                if args.breaker_threshold > 0 else None)
    policy = RetryPolicy(timeout=args.timeout, max_retries=args.retries,
                         backoff=backoff)
    tracer = ChainTracer() if args.trace else None
    # --async runs the sweep through the asyncio serving core instead of
    # the thread pool — the rate-0 verification then proves *that*
    # ladder's fault-path passthrough is bit-identical too.
    use_async = args.use_async or (
        os.environ.get("REPRO_ASYNC_SERVER", "0") == "1")

    def build_evaluator(eval_spec, eval_metrics=None, eval_tracer=None):
        if use_async:
            from repro.aio import AsyncBatchEvaluator

            return AsyncBatchEvaluator(
                eval_spec, max_inflight=args.workers,
                seed=args.model_seed, policy=policy,
                metrics=eval_metrics, tracer=eval_tracer,
                breakers=breakers)
        return BatchEvaluator(eval_spec, workers=args.workers,
                              seed=args.model_seed, policy=policy,
                              metrics=eval_metrics, tracer=eval_tracer,
                              breakers=breakers)

    concurrency = (f"async max_inflight={args.workers}" if use_async
                   else f"workers={args.workers}")
    print(f"dataset={args.dataset} model={args.model} n={len(benchmark)} "
          f"{concurrency} retries={args.retries} "
          f"model_retries={args.model_retries}")
    header = (f"{'rate':>6}  {'accuracy':>8}  {'answered':>8}  "
              f"{'degraded':>8}  {'errors':>6}  {'faults':>6}  "
              f"{'retries':>7}  {'breaker':>7}")
    print(header)
    print("-" * len(header))
    last_metrics = None
    exit_code = 0
    for rate in rates:
        metrics = ServingMetrics()

        def on_fault(site, kind, index, _metrics=metrics):
            _metrics.record_fault(site, kind)
            if tracer is not None:
                tracer.emit_for(0, "fault", 0, site=site, kind=kind,
                                index=index)

        faulty = FaultyAgentSpec(spec, FaultConfig.uniform(
                                     rate, latency_seconds=args.fault_latency),
                                 model_retries=args.model_retries,
                                 backoff=backoff, on_fault=on_fault)
        evaluator = build_evaluator(faulty, eval_metrics=metrics,
                                    eval_tracer=tracer)
        report = evaluator.evaluate(benchmark)
        responses = evaluator.last_responses
        unclassified = [r.uid for r in responses
                        if r.outcome not in OUTCOMES]
        answered = sum(1 for r in responses
                       if not r.outcome.startswith("error"))
        snapshot = metrics.snapshot()
        print(f"{rate:>6.2f}  {report.accuracy:>8.3f}  "
              f"{answered / len(responses):>8.1%}  "
              f"{snapshot['degraded']:>8}  {snapshot['errors']:>6}  "
              f"{snapshot['faults_injected']:>6}  "
              f"{snapshot['retries']:>7}  "
              f"{snapshot['breaker_opened']:>7}")
        if unclassified:
            print(f"  !! {len(unclassified)} responses without a "
                  f"classified outcome: {unclassified[:5]}")
            exit_code = 1
        if rate == 0.0 and args.verify_passthrough:
            plain = build_evaluator(spec)
            plain_report = plain.evaluate(benchmark)
            identical = (
                plain_report == report
                and [(r.uid, r.answer, r.iterations, r.forced)
                     for r in plain.last_responses]
                == [(r.uid, r.answer, r.iterations, r.forced)
                    for r in responses])
            print(f"  0% fault run bit-identical to uninjected run: "
                  f"{identical}")
            if not identical:
                exit_code = 1
        last_metrics = metrics
    if args.metrics_out and last_metrics is not None:
        path = last_metrics.save(args.metrics_out)
        print(f"metrics written (last rate): {path}")
    if tracer is not None:
        path = tracer.telemetry.save(args.trace)
        print(f"trace written: {path} "
              f"({len(tracer.telemetry.spans)} spans, "
              f"{len(tracer)} events)")
    return exit_code


def _cmd_bench(args) -> int:
    from repro.reporting import save_result
    from repro.reporting.strategy_matrix import render_matrix, run_matrix

    if args.bench_command == "strategies":
        results = run_matrix(size=args.size, seed=args.seed,
                             model_seed=args.model_seed,
                             profile=args.model,
                             use_scheduler=args.batch_scheduler)
        text = render_matrix(results, size=args.size, profile=args.model)
        print(text)
        if not args.no_save:
            path = save_result("strategy_matrix", text)
            print(f"\nmatrix written: {path}")
    return 0


def _cmd_perf(args) -> int:
    from repro.perf import gate as perf_gate

    gate_args: list[str] = []
    if args.case:
        gate_args.extend(["--case", args.case])
    elif not args.timings:
        gate_args.append("--check-only")
    if args.update_baseline:
        gate_args.append("--update-baseline")
    if args.baseline:
        gate_args.extend(["--baseline", args.baseline])
    return perf_gate.main(gate_args)


def _cmd_analyze(args) -> int:
    from repro.reporting.analysis import analyze_agent
    from repro.tracing import ChainTracer

    benchmark = generate_dataset(args.dataset, size=args.size,
                                 seed=args.seed)
    model = SimulatedTQAModel(benchmark.bank, get_profile(args.model),
                              seed=args.model_seed)
    tracer = ChainTracer() if args.trace else None
    agent = ReActTableAgent(model, tracer=tracer)
    report = analyze_agent(agent, benchmark)
    print(report.render())
    if tracer is not None:
        from repro.telemetry import TraceAnalyzer, load_trace

        path = tracer.telemetry.save(args.trace)
        print(f"\ntrace written: {path} "
              f"({len(tracer.telemetry.spans)} spans, "
              f"{len(tracer)} events)")
        # The same per-stage view `repro trace summary <path>` gives.
        analyzer = TraceAnalyzer(load_trace(path))
        summary = analyzer.summary()
        print(f"traced: {summary['total_requests']} chains, "
              f"{summary['prompt_tokens']} prompt + "
              f"{summary['completion_tokens']} completion tokens over "
              f"{summary['model_calls']} model calls")
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry import (TraceAnalyzer, load_trace,
                                 write_chrome_trace)

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    analyzer = TraceAnalyzer(trace)
    if args.trace_command == "summary":
        print(analyzer.summary_text())
    elif args.trace_command == "critical-path":
        print(analyzer.critical_path_text())
    elif args.trace_command == "flame":
        print(analyzer.flamegraph_text(width=args.width))
    elif args.trace_command == "export":
        out = args.output
        if args.format == "chrome":
            out = out or "trace.chrome.json"
            path = write_chrome_trace(trace, out)
            print(f"chrome trace written: {path} "
                  f"(open in Perfetto / chrome://tracing)")
        else:
            out = out or "trace.copy.jsonl"
            from pathlib import Path
            from shutil import copyfile
            copyfile(args.path, out)
            print(f"trace copied: {Path(out)}")
    return 0


def _at_least(minimum: int):
    """argparse ``type``: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _positive_seconds(text: str) -> float:
    """argparse ``type``: a duration in seconds greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reactable-repro",
        description="ReAcTable (VLDB 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the Figure 1 running example")
    demo.add_argument("--model", default="codex-sim")
    demo.set_defaults(func=_cmd_demo)

    gen = sub.add_parser("generate", help="emit a benchmark as JSONL")
    gen.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    gen.add_argument("--size", type=int, default=100)
    gen.add_argument("--seed", type=int, default=17)
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("evaluate", help="run one configuration")
    ev.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    ev.add_argument("--size", type=int, default=200)
    ev.add_argument("--seed", type=int, default=17)
    ev.add_argument("--model", default="codex-sim")
    ev.add_argument("--model-seed", type=int, default=1)
    ev.add_argument("--voting", default="none",
                    choices=("none", "s-vote", "t-vote", "e-vote"))
    ev.add_argument("--samples", type=_at_least(1), default=5)
    ev.add_argument("--sql-only", action="store_true")
    ev.add_argument("--sql-backend", default="sqlite",
                    choices=("sqlite", "native"))
    ev.set_defaults(func=_cmd_evaluate)

    batch = sub.add_parser(
        "batch", help="evaluate through the concurrent serving layer")
    batch.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    batch.add_argument("--size", type=int, default=200)
    batch.add_argument("--seed", type=int, default=17)
    batch.add_argument("--model", default="codex-sim")
    batch.add_argument("--model-seed", type=int, default=1)
    batch.add_argument("--voting", default="none",
                       choices=("none", "s-vote", "t-vote", "e-vote"))
    batch.add_argument("--samples", type=_at_least(1), default=5)
    batch.add_argument("--sql-only", action="store_true")
    batch.add_argument("--sql-backend", default="sqlite",
                       choices=("sqlite", "native"))
    batch.add_argument("--workers", type=_at_least(1), default=4,
                       help="concurrent agent workers")
    batch.add_argument("--cache-size", type=int, default=1024,
                       help="answer-cache entries (0 disables caching)")
    batch.add_argument("--timeout", type=_positive_seconds, default=None,
                       help="per-attempt timeout in seconds")
    batch.add_argument("--retries", type=_at_least(0), default=1,
                       help="extra attempts before degrading")
    batch.add_argument("--async", dest="use_async", action="store_true",
                       help="serve through the asyncio core (continuous "
                            "batching + admission control; also enabled "
                            "by REPRO_ASYNC_SERVER=1)")
    batch.add_argument("--max-inflight", type=_at_least(1), default=64,
                       help="async mode: concurrent in-flight request "
                            "budget")
    batch.add_argument("--batch-scheduler", action="store_true",
                       help="drive voted runners through the sans-IO "
                            "BatchScheduler (coalesced model calls; also "
                            "enabled by REPRO_BATCH_SCHEDULER=1)")
    batch.add_argument("--strategy", default=None, metavar="NAME",
                       help="reasoning strategy (react, cot, "
                            "chain-of-table, commented-code) or an "
                            "ensemble:a+b+c heterogeneous vote; defaults "
                            "to $REPRO_STRATEGY, then react")
    batch.add_argument("--reflect", action="store_true",
                       help="arm the reflexion rung: failed attempts "
                            "harvest a failure report, generate a verbal "
                            "reflection, and re-run with it injected "
                            "(also enabled by REPRO_REFLECT=1)")
    batch.add_argument("--metrics-out", metavar="PATH",
                       help="write serving metrics as JSON to PATH")
    batch.add_argument("--trace", metavar="PATH",
                       help="write a serving-lifecycle trace to PATH")
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="long-running daemon: async serving core + "
                      "scrapeable observability endpoints")
    serve.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    serve.add_argument("--size", type=int, default=50)
    serve.add_argument("--seed", type=int, default=17)
    serve.add_argument("--model", default="codex-sim")
    serve.add_argument("--voting", default="none",
                       choices=("none", "s-vote", "t-vote", "e-vote"))
    serve.add_argument("--samples", type=_at_least(1), default=5)
    serve.add_argument("--sql-only", action="store_true")
    serve.add_argument("--sql-backend", default="sqlite",
                       choices=("sqlite", "native"))
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="control-plane port (0 = ephemeral)")
    serve.add_argument("--max-inflight", type=_at_least(1), default=16)
    serve.add_argument("--max-queued", type=_at_least(0), default=256)
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="answer-cache entries (0 disables caching)")
    serve.add_argument("--timeout", type=_positive_seconds, default=None,
                       help="per-attempt timeout in seconds")
    serve.add_argument("--retries", type=_at_least(0), default=1)
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="0 disables the circuit breaker")
    serve.add_argument("--tenants", default="gold,silver,bronze,default",
                       help="comma-separated tenant rotation for "
                            "replayed traffic")
    serve.add_argument("--requests", type=int, default=0,
                       help="replay N benchmark requests then drain and "
                            "exit (0 = serve until Ctrl-C)")
    serve.add_argument("--scrape", action="store_true",
                       help="after a replay, self-scrape /metrics and "
                            "/slo and print them")
    serve.add_argument("--slo-availability", type=float, default=0.995)
    serve.add_argument("--slo-latency-target", type=float, default=0.99)
    serve.add_argument("--slo-latency", type=float, default=1.0,
                       help="latency objective threshold in seconds")
    serve.add_argument("--slo-window", type=float, default=3600.0,
                       help="error-budget window in seconds")
    serve.add_argument("--sample-rate", type=float, default=0.1,
                       help="tail-sampling keep rate for OK traces")
    serve.add_argument("--trace-capacity", type=int, default=256,
                       help="ring-buffer capacity per trace class")
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep through the hardened stack")
    chaos.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    chaos.add_argument("--size", type=int, default=50)
    chaos.add_argument("--seed", type=int, default=17)
    chaos.add_argument("--model", default="codex-sim")
    chaos.add_argument("--model-seed", type=int, default=1)
    chaos.add_argument("--voting", default="none",
                       choices=("none", "s-vote", "t-vote", "e-vote"))
    chaos.add_argument("--samples", type=_at_least(1), default=5)
    chaos.add_argument("--sql-only", action="store_true")
    chaos.add_argument("--sql-backend", default="sqlite",
                       choices=("sqlite", "native"))
    chaos.add_argument("--workers", type=_at_least(1), default=4)
    chaos.add_argument("--async", dest="use_async", action="store_true",
                       help="sweep through the asyncio serving core "
                            "instead of the thread pool (also enabled by "
                            "REPRO_ASYNC_SERVER=1); the rate-0 check then "
                            "verifies that ladder's passthrough")
    chaos.add_argument("--rates", default="0,0.05,0.2",
                       help="comma-separated per-call fault rates")
    chaos.add_argument("--fault-latency", type=float, default=0.02,
                       help="injected latency-spike duration (seconds)")
    chaos.add_argument("--timeout", type=_positive_seconds, default=None,
                       help="per-attempt serving deadline (seconds)")
    chaos.add_argument("--retries", type=_at_least(0), default=2,
                       help="pool-level extra attempts before degrading")
    chaos.add_argument("--model-retries", type=int, default=2,
                       help="in-stack RetryingModel retries (0 disables)")
    chaos.add_argument("--backoff", type=float, default=0.0,
                       help="base backoff delay in seconds (0 disables)")
    chaos.add_argument("--breaker-threshold", type=int, default=5,
                       help="breaker consecutive-failure threshold "
                            "(0 disables the breaker)")
    chaos.add_argument("--breaker-cooldown", type=float, default=0.25,
                       help="breaker cooldown before half-open (seconds)")
    chaos.add_argument("--no-verify-passthrough", dest="verify_passthrough",
                       action="store_false",
                       help="skip the rate-0 bit-identical verification")
    chaos.add_argument("--metrics-out", metavar="PATH",
                       help="write last rate's serving metrics to PATH")
    chaos.add_argument("--trace", metavar="PATH",
                       help="write a fault/serving trace to PATH")
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench", help="cross-configuration evaluation matrices")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    b_strategies = bench_sub.add_parser(
        "strategies", help="every registered strategy + the "
                           "heterogeneous ensemble over seeded "
                           "wikitq/tabfact suites")
    b_strategies.add_argument("--size", type=int, default=60)
    b_strategies.add_argument("--seed", type=int, default=11)
    b_strategies.add_argument("--model", default="codex-sim")
    b_strategies.add_argument("--model-seed", type=int, default=1)
    b_strategies.add_argument("--batch-scheduler", action="store_true",
                              help="drive the ensemble through the "
                                   "sans-IO BatchScheduler")
    b_strategies.add_argument("--no-save", action="store_true",
                              help="print the matrix without writing "
                                   "results/strategy_matrix.txt")
    b_strategies.set_defaults(func=_cmd_bench)

    perf = sub.add_parser(
        "perf", help="performance-layer smoke / benchmark gate")
    perf.add_argument("--timings", action="store_true",
                      help="also run the timing suite and regression gate")
    perf.add_argument("--case", metavar="NAME", default=None,
                      help="run a single timing case by name")
    perf.add_argument("--update-baseline", action="store_true",
                      help="rewrite results/BENCH_perf_substrates.json")
    perf.add_argument("--baseline", metavar="PATH", default=None,
                      help="alternate baseline JSON path")
    perf.set_defaults(func=_cmd_perf)

    trace = sub.add_parser(
        "trace", help="inspect a telemetry trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    t_summary = trace_sub.add_parser(
        "summary", help="per-request span/time/token breakdown")
    t_summary.add_argument("path", help="trace JSONL file")
    t_summary.set_defaults(func=_cmd_trace)
    t_crit = trace_sub.add_parser(
        "critical-path", help="longest span chain per request")
    t_crit.add_argument("path", help="trace JSONL file")
    t_crit.set_defaults(func=_cmd_trace)
    t_flame = trace_sub.add_parser(
        "flame", help="text flamegraph per request")
    t_flame.add_argument("path", help="trace JSONL file")
    t_flame.add_argument("--width", type=int, default=60,
                         help="bar width in characters")
    t_flame.set_defaults(func=_cmd_trace)
    t_export = trace_sub.add_parser(
        "export", help="convert the trace for external viewers")
    t_export.add_argument("path", help="trace JSONL file")
    t_export.add_argument("--format", default="chrome",
                          choices=("chrome", "jsonl"),
                          help="chrome trace_event JSON or raw JSONL")
    t_export.add_argument("-o", "--output", metavar="PATH", default=None,
                          help="output path (defaults beside the input)")
    t_export.set_defaults(func=_cmd_trace)

    an = sub.add_parser("analyze",
                        help="error analysis with optional tracing")
    an.add_argument("dataset", choices=("wikitq", "tabfact", "fetaqa"))
    an.add_argument("--size", type=int, default=100)
    an.add_argument("--seed", type=int, default=17)
    an.add_argument("--model", default="codex-sim")
    an.add_argument("--model-seed", type=int, default=1)
    an.add_argument("--trace", metavar="PATH",
                    help="also write a JSONL chain trace to PATH")
    an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
