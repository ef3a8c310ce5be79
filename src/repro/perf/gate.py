"""The benchmark regression gate behind ``tools/perf_gate.py``.

Two jobs, both runnable without pytest:

1. **Correctness smoke** (rate-0-style): with every optimisation disabled
   the engine must produce *identical* results — vectorized vs
   interpreted SQL, encode cache on vs off (rendered tables and parsed prompts), plan
   cache on vs off, one memoising executor vs a fresh executor per call,
   the simulated model's one completion per distinct draw vs every
   slot recomputed, the batched driver's shared chain states vs one
   engine per chain, and each sqlite query on the thread's warm database
   vs the same query on a new one.  This is the check ``repro perf`` runs
   as a tier-1-adjacent smoke.

2. **Timing gate**: measure the optimised path against its disabled
   counterpart (same process, same machine, back to back), enforce the
   hard speedup floors from the PR acceptance criteria, and compare the
   speedup ratios against the checked-in baseline in
   ``results/BENCH_perf_substrates.json`` — failing on a >20% regression.
   Ratios, not wall-clock seconds, are gated: they are what survive a
   machine change.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.aio import AsyncChainDriver
from repro.core.actions import Action, ActionKind
from repro.core.prompt import (
    PromptBuilder,
    Transcript,
    TranscriptStep,
    parse_prompt,
)
from repro.datasets.generators import generate_dataset
from repro.engine.driver import EffectHandler, run_chain
from repro.engine.effects import Execute, ExecResult
from repro.executors import sql_executor
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import Completion, CompletionRequest
from repro.llm.simulated import SimulatedTQAModel
from repro.perf.encode_cache import (
    DEFAULT_ENCODE_CACHE,
    encode_head_row_cached,
)
from repro.serving.spec import AgentSpec
from repro.sqlengine.executor import execute_sql
from repro.sqlengine.plancache import DEFAULT_PLAN_CACHE, parse_select_cached
from repro.table.frame import DataFrame
from repro.table.io import encode_head_row
from repro.table.ops import group_by, sort_by

__all__ = ["run_checks", "run_timings", "run_gate", "main",
           "DEFAULT_BASELINE"]

DEFAULT_BASELINE = Path("results") / "BENCH_perf_substrates.json"

#: Matches benchmarks/bench_perf_substrates.py so the two report on the
#: same workload.
GROUP_SQL = ("SELECT bucket, COUNT(*), SUM(value) FROM T0 "
             "WHERE value > 5000 GROUP BY bucket "
             "ORDER BY COUNT(*) DESC")

#: Vectorized-engine workloads, timed against ``REPRO_SQL_VECTOR=0``
#: (the interpreter — same parser, same plan cache, no kernels and no
#: plan rewrites).
FILTER_SQL = ("SELECT id, value FROM T0 "
              "WHERE value > 2500 AND value < 7500 AND bucket <> 'c'")
JOIN_SQL = ("SELECT a.id, b.weight FROM L a JOIN R b "
            "ON a.key = b.key")
LIMIT_SQL = "SELECT id FROM T0 WHERE value > 10 LIMIT 5"
DISTINCT_SQL = "SELECT DISTINCT bucket, value > 5000 FROM T0"

#: Every timing case ``run_timings`` knows (for ``--case`` validation).
CASE_NAMES = (
    "native_group_aggregate",
    "vector_filter_scan",
    "vector_group_aggregate",
    "vector_hash_join",
    "vector_limit_scan",
    "vector_distinct",
    "prompt_encode_repeat",
    "plan_cache_parse",
    "dataframe_sort",
    "dataframe_group_aggregate",
)

#: Hard speedup floors.  The gated ``vector_*`` floors were 3.0x over a
#: row-compiled tier that has since been deleted.  Against the
#: interpreter each is 3.0x times that case's interpreter / row-compiled
#: time (interleaved best of 20 on a 2-CPU host, the lower of two runs),
#: so it guards no less than before.
FLOORS = {
    "native_group_aggregate": 2.0,
    "prompt_encode_repeat": 3.0,
    "vector_filter_scan": 5.5,
    "vector_group_aggregate": 8.8,
    "vector_hash_join": 9.4,
}

#: Fixed query list for the vectorized-vs-interpreted smoke (the full
#: randomized differential test lives in tests/sqlengine).
SMOKE_QUERIES = [
    "SELECT * FROM T0",
    "SELECT id, value FROM T0 WHERE value > 5000",
    "SELECT bucket, COUNT(*), SUM(value) FROM T0 GROUP BY bucket",
    GROUP_SQL,
    "SELECT bucket, AVG(value) AS a FROM T0 GROUP BY bucket "
    "HAVING a > 4000 ORDER BY a DESC",
    "SELECT UPPER(bucket), value * 2 FROM T0 "
    "WHERE label LIKE '%(X)%' ORDER BY value DESC LIMIT 5",
    "SELECT DISTINCT bucket FROM T0 ORDER BY bucket",
    "SELECT DISTINCT bucket, value > 5000 FROM T0",
    "SELECT CASE WHEN value > 5000 THEN 'hi' ELSE 'lo' END AS band, "
    "COUNT(*) FROM T0 GROUP BY band",
    "SELECT id FROM T0 WHERE bucket IN ('a', 'b') AND value "
    "BETWEEN 100 AND 9000",
    "SELECT MIN(value), MAX(value), COUNT(DISTINCT bucket) FROM T0",
    "SELECT value / 0 FROM T0 LIMIT 3",
    "SELECT CAST(value AS TEXT) || '!' FROM T0 LIMIT 3",
]


def _large_frame(rows: int = 2000) -> DataFrame:
    rng = random.Random(5)
    return DataFrame({
        "id": list(range(rows)),
        "bucket": [rng.choice("abcdefgh") for _ in range(rows)],
        "value": [rng.randint(0, 10_000) for _ in range(rows)],
        "label": [f"row {i} ({rng.choice('XYZ')})"
                  for i in range(rows)],
    }, name="T0")


def _join_catalog(left_rows: int = 600, right_rows: int = 100) -> dict:
    rng = random.Random(7)
    left = DataFrame({
        "id": list(range(left_rows)),
        "key": [f"k{rng.randrange(right_rows)}"
                for _ in range(left_rows)],
    }, name="L")
    right = DataFrame({
        "key": [f"k{i}" for i in range(right_rows)],
        "weight": [rng.randint(0, 100) for i in range(right_rows)],
    }, name="R")
    return {"L": left, "R": right}


@contextmanager
def _env(name: str, value: str):
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def _best_of(fn, *, repeats: int = 3, number: int = 3) -> float:
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


# --- correctness (rate-0) ---------------------------------------------------


def _frames_equal(left: DataFrame, right: DataFrame) -> bool:
    return (left.columns == right.columns
            and left.to_rows() == right.to_rows())


def _run_or_error(sql: str, catalog) -> tuple:
    try:
        result = execute_sql(sql, catalog)
        return ("ok", result.columns, result.to_rows())
    except Exception as exc:  # noqa: BLE001 - parity includes error class
        return ("error", type(exc).__name__, str(exc))


def _chain_prompts(frame: DataFrame) -> list[str]:
    """The prompts of a chain over ``frame``: T0, then two intermediates."""
    builder, catalog = PromptBuilder(), {"T0": frame}
    transcript = Transcript(frame, "which bucket holds the most rows?")
    prompts = [builder.build(transcript)]
    for sql in ("SELECT bucket, value FROM T0 WHERE value > 5000",
                "SELECT bucket, COUNT(*) FROM T0 GROUP BY bucket"):
        transcript.steps.append(TranscriptStep(
            Action(ActionKind.SQL, sql), execute_sql(sql, catalog)))
        prompts.append(builder.build(transcript))
    return prompts


def _parsed(prompts: list[str]) -> list[tuple]:
    """Every ``parse_prompt`` field, frame names included."""
    return [(parsed, parsed.t0.name, parsed.current_table.name)
            for parsed in map(parse_prompt, prompts)]


class _EffectRecorder(EffectHandler):
    """An effect handler that keeps every Execute effect it performs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.effects: list[Execute] = []

    def execute(self, effect: Execute) -> ExecResult:
        self.effects.append(effect)
        return super().execute(effect)


class _BatchRecorder(EffectHandler):
    """An effect handler that keeps every batched model request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests: list[CompletionRequest] = []

    def model_batch(self, requests):
        self.requests.extend(requests)
        return super().model_batch(requests)


def _svote_effects(backend: str) -> list[Execute]:
    """The Execute effects of one s-vote attempt, in the order they ran.

    The question's five chains run Python and SQL, repeat most of their
    executions, install a module at runtime and fail one query.
    """
    bench = generate_dataset("tabfact", size=1, seed=7)
    example = bench.examples[0]
    voter = AgentSpec(bank=bench.bank, voting="s-vote",
                      sql_backend=backend).build(3)
    recorder = _EffectRecorder(voter.model, voter.registry,
                               catch=voter.handler_catch)
    for engine in voter.chain_engines(example.table, example.question):
        run_chain(engine, recorder)
    return recorder.effects


def _renamed(effect: Execute) -> Execute:
    """``effect`` over the same tables under other names.

    Its queries no longer find ``T<k>``, so they run again through the
    FROM-rewrite retries; a memo that ignored names would replay the
    original outcome.
    """
    return dataclasses.replace(effect, tables=tuple(
        frame.with_name(f"S{index}")
        for index, frame in enumerate(effect.tables)))


def _fresh_like(registry: ExecutorRegistry) -> ExecutorRegistry:
    """New executors, with nothing remembered, in ``registry``'s state."""
    fresh = default_registry(sql_backend=registry.get("sql").backend)
    fresh.get("python")._installed.update(registry.get("python")._installed)
    return fresh


def _exec_signature(result: ExecResult) -> tuple:
    """What a caller observes: the failure, or the frame and notes."""
    if result.outcome is None:
        error = result.error
        return ("error", type(error), str(error),
                getattr(error, "code", None))
    outcome, table = result.outcome, result.outcome.table
    return ("ok", table.name, table.columns,
            [str(dtype) for dtype in table.dtypes.values()],
            repr(table.to_rows()), outcome.handling_notes,
            outcome.executed_against)


def _memo_matches_fresh(backend: str) -> bool:
    """One shared registry must match a fresh registry on every call.

    Each Execute effect of a built s-vote attempt runs twice, then twice
    more over renamed tables.  Each call's reference is a fresh registry
    in the shared one's install state.
    """
    shared = default_registry(sql_backend=backend)
    for effect in _svote_effects(backend):
        renamed = _renamed(effect)
        for call in (effect, effect, renamed, renamed):
            fresh = EffectHandler(None, _fresh_like(shared)).execute(call)
            memoised = EffectHandler(None, shared).execute(call)
            if _exec_signature(memoised) != _exec_signature(fresh):
                return False
    return True


def _sqlite_calls() -> list[tuple[str, dict[str, DataFrame]]]:
    """The ``run_sqlite_query`` calls of two attempts, in the order made.

    One greedy and one s-vote attempt, each on the first question of a
    one-question wikitq set.  The calls include the FROM-rewrite retries
    and the simulated model's private executions.
    """
    calls: list[tuple[str, dict[str, DataFrame]]] = []
    original = sql_executor.run_sqlite_query

    def recording(sql, tables):
        calls.append((sql, dict(tables)))
        return original(sql, tables)

    sql_executor.run_sqlite_query = recording
    try:
        for dataset_seed, voting in ((95, "none"), (9, "s-vote")):
            bench = generate_dataset("wikitq", size=1, seed=dataset_seed)
            example = bench.examples[0]
            AgentSpec(bank=bench.bank, voting=voting).build(3).run(
                example.table, example.question)
    finally:
        sql_executor.run_sqlite_query = original
    return calls


def _query_signature(sql: str, tables: dict[str, DataFrame]) -> tuple:
    """What a caller observes of one sqlite query: frame or failure."""
    try:
        frame = sql_executor.run_sqlite_query(sql, tables)
    except Exception as exc:  # noqa: BLE001 - parity includes error class
        return ("error", type(exc), str(exc))
    return ("ok", frame.columns,
            [str(dtype) for dtype in frame.dtypes.values()],
            repr(frame.to_rows()))


def _warm_database_matches_fresh() -> bool:
    """Each sqlite query on the warm database must match a new database.

    The 27 queries of one built greedy attempt and one s-vote attempt, 17
    of them failing candidates, replay in run order, each over its
    tables, over the same tables renamed ``S<k>`` and over its tables
    again.  Consecutive queries so keep, replace, drop and add tables,
    and a renamed query that names ``T<k>`` fails unless a stale table
    survived.  Each result is compared with the same query after
    ``clear()``.
    """
    calls = _sqlite_calls()
    database = sql_executor.WARM_DATABASE
    database.clear()
    try:
        for sql, tables in calls:
            renamed = {f"S{index}": frame
                       for index, frame in enumerate(tables.values())}
            for history in (tables, renamed, tables):
                warm = _query_signature(sql, history)
                database.clear()
                if _query_signature(sql, history) != warm:
                    return False
    finally:
        database.clear()
    return True


def _svote_attempt(dataset_seed: int, *, shared: bool = True):
    """One built s-vote attempt through :class:`AsyncChainDriver`.

    Returns the voter, the batched requests in the order they were made,
    and the tally.  The five chains start as one shared engine; with
    ``shared=False`` each takes its own copy of the prompt builder, so
    no two chains can share.
    """
    bench = generate_dataset("wikitq", size=1, seed=dataset_seed)
    example = bench.examples[0]
    voter = AgentSpec(bank=bench.bank, voting="s-vote").build(3)
    recorder = _BatchRecorder(voter.model, voter.registry,
                              catch=voter.handler_catch)
    engines = voter.chain_engines(example.table, example.question)
    if not shared:
        for engine in engines:
            engine.prompt_builder = copy.copy(engine.prompt_builder)
    results = AsyncChainDriver(handler=recorder).run_sync(engines)
    return voter, recorder.requests, voter.tally(results)


def _svote_model_calls() -> tuple[SimulatedTQAModel, list]:
    """The model and model calls of one s-vote attempt.

    Chains that share a prompt share one call with ``n > 1``: four calls
    of five slots, two of them with a second draw.
    """
    voter, requests, _ = _svote_attempt(9)
    return voter.model, requests


def _sharing_matches_unshared() -> bool:
    """Chains sharing an engine must match chains that cannot share.

    The driver forks a shared engine only where its chains' completions
    differ; a wrong fork gives some chain another chain's step, which
    shows in the later requests or in the tally.  This attempt's shared
    engine forks twice, and its vote splits three ways.
    """
    _, requests, tally = _svote_attempt(50)
    _, unshared_requests, unshared_tally = _svote_attempt(50, shared=False)
    return requests == unshared_requests and tally == unshared_tally


def _per_slot(model: SimulatedTQAModel,
              request: CompletionRequest) -> list[Completion]:
    """Every slot of ``request`` computed on its own: no draw sharing."""
    parsed = parse_prompt(request.prompt)
    example = model.bank.lookup(parsed.question, parsed.t0)
    return [model._complete_draw(example, parsed, request.temperature, draw)
            for draw in model._slot_draws(example, request.temperature,
                                          request.n)]


def _sharing_matches_per_slot() -> bool:
    """``complete`` must equal recomputing each slot on its own.

    The calls of one built s-vote attempt run in order through one fresh
    fork's ``complete`` and slot by slot on another, so both forks are in
    the same state at every call; they must agree on every slot and on
    the draw counter.  Each call runs as recorded and again greedy,
    where every call takes the same draw.
    """
    model, requests = _svote_model_calls()
    shared, per_slot = model.fork(model.seed), model.fork(model.seed)
    handler = EffectHandler(shared, None)
    for request in requests:
        for temperature in (request.temperature, 0.0):
            replay = dataclasses.replace(request, temperature=temperature)
            completions, = handler.model_batch([replay])
            if (completions != _per_slot(per_slot, replay)
                    or shared._draws != per_slot._draws):
                return False
    return True


def run_checks() -> list[str]:
    """Optimisations-off must equal optimisations-on.  Returns failures."""
    failures: list[str] = []
    frame = _large_frame(300)
    catalog = {"T0": frame}

    for sql in SMOKE_QUERIES:
        vectorized = _run_or_error(sql, catalog)
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _run_or_error(sql, catalog)
        if vectorized != interpreted:
            failures.append(
                f"vectorized != interpreted for {sql!r}: "
                f"{vectorized[:2]} vs {interpreted[:2]}")

    with _env("REPRO_SQL_PLAN_CACHE", "0"):
        uncached_plan = _run_or_error(GROUP_SQL, catalog)
    if _run_or_error(GROUP_SQL, catalog) != uncached_plan:
        failures.append("plan cache changed a query result")

    DEFAULT_ENCODE_CACHE.clear()
    direct = encode_head_row(frame, max_rows=50)
    with _env("REPRO_ENCODE_CACHE", "0"):
        disabled = encode_head_row_cached(frame, max_rows=50)
    cold = encode_head_row_cached(frame, max_rows=50)
    warm = encode_head_row_cached(frame, max_rows=50)
    if not (direct == disabled == cold == warm):
        failures.append("encode cache changed a rendering")

    mutated = frame.copy()
    mutated["value"] = [v + 1 for v in frame.column("value").values]
    if encode_head_row_cached(mutated, max_rows=50) == warm:
        failures.append("encode cache returned stale rendering "
                        "after mutation")

    prompts = _chain_prompts(frame)
    with _env("REPRO_ENCODE_CACHE", "0"):
        undecoded = _parsed(prompts)
    DEFAULT_ENCODE_CACHE.clear()
    if not (undecoded == _parsed(prompts) == _parsed(prompts)):
        failures.append("decode memo changed a parsed prompt")
    for backend in ("sqlite", "native"):
        if not _memo_matches_fresh(backend):
            failures.append(
                f"executor memo changed an execution ({backend} backend)")
    if not _sharing_matches_per_slot():
        failures.append("draw sharing changed a completion")
    if not _sharing_matches_unshared():
        failures.append("shared chain states changed an s-vote attempt")
    if not _warm_database_matches_fresh():
        failures.append("warm sqlite database changed a query")
    return failures


# --- timings ----------------------------------------------------------------


def run_timings(*, repeats: int = 3, only: str | None = None) -> dict:
    """Time each optimisation against its disabled counterpart.

    ``only`` restricts the run to a single named case (``repro perf
    --case <name>``); unknown names yield an empty ``cases`` dict.
    """
    frame = _large_frame()
    catalog = {"T0": frame}
    cases: dict[str, dict] = {}

    def wanted(name: str) -> bool:
        return only is None or name == only

    def case(name: str, slow_s: float, fast_s: float) -> None:
        cases[name] = {
            "slow_s": slow_s,
            "fast_s": fast_s,
            "speedup": slow_s / fast_s if fast_s else float("inf"),
            "floor": FLOORS.get(name),
        }

    # Vectorized engine vs the interpreter (REPRO_SQL_VECTOR=0): same
    # parser and plan cache on both sides, so the ratio isolates the
    # columnar kernels, plan rewrites, and hash join.  The two group
    # cases time the same pair under the floors they have had since the
    # engine had a row-compiled tier between them.
    if wanted("native_group_aggregate"):
        run_query = lambda: execute_sql(GROUP_SQL, catalog)  # noqa: E731
        run_query()  # warm the plan cache for both sides
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _best_of(run_query, repeats=repeats)
        vectorized = _best_of(run_query, repeats=repeats)
        case("native_group_aggregate", interpreted, vectorized)

    if wanted("vector_filter_scan"):
        run_filter = lambda: execute_sql(FILTER_SQL, catalog)  # noqa: E731
        run_filter()  # warm plan + kernel caches (steady-state serving)
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _best_of(run_filter, repeats=repeats)
        vectorized = _best_of(run_filter, repeats=repeats)
        case("vector_filter_scan", interpreted, vectorized)

    if wanted("vector_group_aggregate"):
        run_group = lambda: execute_sql(GROUP_SQL, catalog)  # noqa: E731
        run_group()
        with _env("REPRO_SQL_VECTOR", "0"):
            interpreted = _best_of(run_group, repeats=repeats)
        vectorized = _best_of(run_group, repeats=repeats)
        case("vector_group_aggregate", interpreted, vectorized)

    if wanted("vector_hash_join"):
        join_catalog = _join_catalog()
        run_join = lambda: execute_sql(JOIN_SQL, join_catalog)  # noqa: E731
        run_join()
        with _env("REPRO_SQL_VECTOR", "0"):
            nested_loop = _best_of(run_join, repeats=repeats, number=1)
        hashed = _best_of(run_join, repeats=repeats, number=1)
        case("vector_hash_join", nested_loop, hashed)

    if wanted("vector_limit_scan"):
        tall = _large_frame(30_000)
        tall_catalog = {"T0": tall}
        run_limit = lambda: execute_sql(LIMIT_SQL, tall_catalog)  # noqa: E731
        run_limit()
        with _env("REPRO_SQL_VECTOR", "0"):
            full_scan = _best_of(run_limit, repeats=repeats)
        short_circuit = _best_of(run_limit, repeats=repeats)
        case("vector_limit_scan", full_scan, short_circuit)

    # Informational (no floor): the DISTINCT dedupe is a small fraction
    # of a query's wall time, so the ratio documents rather than gates.
    if wanted("vector_distinct"):
        run_distinct = lambda: execute_sql(DISTINCT_SQL, catalog)  # noqa: E731
        run_distinct()
        with _env("REPRO_SQL_VECTOR", "0"):
            row_scan = _best_of(run_distinct, repeats=repeats)
        columnar = _best_of(run_distinct, repeats=repeats)
        case("vector_distinct", row_scan, columnar)

    if wanted("prompt_encode_repeat"):
        def encode_many():
            for _ in range(20):
                encode_head_row_cached(frame, max_rows=200)

        with _env("REPRO_ENCODE_CACHE", "0"):
            uncached = _best_of(encode_many, repeats=repeats, number=1)
        DEFAULT_ENCODE_CACHE.clear()
        encode_many()  # warm
        cached = _best_of(encode_many, repeats=repeats, number=1)
        case("prompt_encode_repeat", uncached, cached)

    if wanted("plan_cache_parse"):
        def parse_many():
            for _ in range(50):
                parse_select_cached(GROUP_SQL)

        with _env("REPRO_SQL_PLAN_CACHE", "0"):
            unplanned = _best_of(parse_many, repeats=repeats, number=1)
        parse_many()  # warm
        planned = _best_of(parse_many, repeats=repeats, number=1)
        case("plan_cache_parse", unplanned, planned)

    # Informational substrate timings (no disabled counterpart).
    if wanted("dataframe_sort"):
        cases["dataframe_sort"] = {
            "fast_s": _best_of(
                lambda: sort_by(frame, ["value"], descending=True),
                repeats=repeats),
        }
    if wanted("dataframe_group_aggregate"):
        cases["dataframe_group_aggregate"] = {
            "fast_s": _best_of(
                lambda: group_by(frame, ["bucket"]).aggregate(
                    [("sum", "value", "total")]),
                repeats=repeats),
        }
    return {
        "suite": "perf_substrates",
        "rows": frame.num_rows,
        "plan_cache": DEFAULT_PLAN_CACHE.stats(),
        "encode_cache": DEFAULT_ENCODE_CACHE.stats(),
        "cases": cases,
    }


def run_gate(*, baseline_path: Path = DEFAULT_BASELINE,
             update_baseline: bool = False,
             repeats: int = 3) -> tuple[dict, list[str]]:
    """Checks + timings + floor and regression enforcement."""
    failures = run_checks()
    report = run_timings(repeats=repeats)

    for name, floor in FLOORS.items():
        speedup = report["cases"][name]["speedup"]
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"{floor:.1f}x floor")

    if baseline_path.exists() and not update_baseline:
        baseline = json.loads(baseline_path.read_text())
        for name, entry in baseline.get("cases", {}).items():
            if name not in FLOORS:
                # Informational cases (no floor) document a ratio but
                # don't gate — their small margins are too noisy for
                # the regression comparison.
                continue
            expected = entry.get("speedup")
            current = report["cases"].get(name, {}).get("speedup")
            if expected is None or current is None:
                continue
            # The FLOORS check above enforces the absolute minimum; the
            # drift band only needs to catch a case collapsing toward
            # the row path, so it tolerates shared-machine timing noise
            # (sub-ms fast paths swing well past 20% run to run).
            if current < expected * 0.5:
                failures.append(
                    f"{name}: speedup regressed >50% "
                    f"({current:.2f}x vs baseline {expected:.2f}x)")
    else:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(report, indent=2) + "\n")
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Performance smoke + benchmark regression gate")
    parser.add_argument("--check-only", action="store_true",
                        help="run only the correctness smoke (no timings)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing case")
    parser.add_argument("--case", metavar="NAME", default=None,
                        help="run a single timing case (skips the "
                             "baseline comparison)")
    args = parser.parse_args(argv)

    if args.case:
        if args.case not in CASE_NAMES:
            print(f"unknown case {args.case!r}; known cases: "
                  f"{', '.join(CASE_NAMES)}", file=sys.stderr)
            return 2
        report = run_timings(repeats=args.repeats, only=args.case)
        failures = []
        for name, entry in report["cases"].items():
            floor = FLOORS.get(name)
            if "speedup" in entry:
                print(f"  {name:28s} {entry['slow_s'] * 1e3:9.3f} ms -> "
                      f"{entry['fast_s'] * 1e3:9.3f} ms  "
                      f"({entry['speedup']:.2f}x)")
                if floor is not None and entry["speedup"] < floor:
                    failures.append(
                        f"{name}: speedup {entry['speedup']:.2f}x below "
                        f"the {floor:.1f}x floor")
            else:
                print(f"  {name:28s} {entry['fast_s'] * 1e3:9.3f} ms")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    if args.check_only:
        failures = run_checks()
        print(f"perf checks: {'FAIL' if failures else 'ok'}")
    else:
        report, failures = run_gate(baseline_path=args.baseline,
                                    update_baseline=args.update_baseline,
                                    repeats=args.repeats)
        for name, entry in report["cases"].items():
            if "speedup" in entry:
                print(f"  {name:28s} {entry['slow_s'] * 1e3:9.3f} ms -> "
                      f"{entry['fast_s'] * 1e3:9.3f} ms  "
                      f"({entry['speedup']:.2f}x)")
            else:
                print(f"  {name:28s} {entry['fast_s'] * 1e3:9.3f} ms")
        print(f"baseline: {args.baseline}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
