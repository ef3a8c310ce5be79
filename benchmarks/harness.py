"""Shared helpers for the paper-reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure from the paper:
it runs the relevant configurations over a synthetic benchmark, prints a
paper-vs-measured table, persists it under ``results/``, and asserts the
qualitative *shape* (who wins, direction of ablations) — not the absolute
numbers, since the workload is synthetic.

Scale is controlled with ``REPRO_SCALE`` (questions per dataset; default
400).  Larger values tighten the measurements at proportional cost.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

from repro.core import (
    CodexCoTAgent,
    ExecutionBasedVoting,
    ReActTableAgent,
    SimpleMajorityVoting,
    TreeExplorationVoting,
    get_majority,
)
from repro.datasets import Benchmark, generate_dataset
from repro.evalkit import evaluate_agent
from repro.executors import default_registry, sql_only_registry
from repro.llm import SimulatedTQAModel, get_profile

__all__ = [
    "scale",
    "benchmark_for",
    "model_for",
    "serving_spec_for",
    "accuracy_suite",
    "CoTMajorityAgent",
    "FallbackBenchmark",
    "VOTE_SAMPLES",
    "VOTE_TEMPERATURE",
]


class FallbackBenchmark:
    """``time.perf_counter`` stand-in for pytest-benchmark's fixture.

    Registered by ``conftest.py`` when pytest-benchmark is not installed,
    so the ``bench_*`` suites still run (best-of-N wall time, recorded in
    ``.stats``) instead of erroring on the missing ``benchmark`` fixture.
    Calling it times ``rounds`` calls; :meth:`pedantic` takes the rounds
    and calls per round from its caller, as pytest-benchmark's does.
    """

    def __init__(self, rounds: int = 5):
        self.rounds = rounds
        self.stats: dict[str, float] = {}

    def __call__(self, fn, *args, **kwargs):
        return self._time(fn, args, kwargs, self.rounds, 1)

    def pedantic(self, target, args=(), kwargs=None, rounds=1,
                 iterations=1):
        return self._time(target, args, kwargs or {}, rounds, iterations)

    def _time(self, fn, args, kwargs, rounds, iterations):
        """Best and mean seconds per call over ``rounds`` timed rounds."""
        best = float("inf")
        total = 0.0
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(iterations):
                result = fn(*args, **kwargs)
            elapsed = (time.perf_counter() - start) / iterations
            total += elapsed
            best = min(best, elapsed)
        self.stats = {"min": best, "mean": total / rounds,
                      "rounds": rounds}
        return result

VOTE_SAMPLES = 5
VOTE_TEMPERATURE = 0.6

#: Seeds fixed so every bench is reproducible run to run.
DATASET_SEED = 11
MODEL_SEED = 1


def scale(default: int = 400) -> int:
    """Questions per dataset, from the REPRO_SCALE environment knob."""
    return int(os.environ.get("REPRO_SCALE", default))


@lru_cache(maxsize=None)
def benchmark_for(dataset: str, size: int | None = None) -> Benchmark:
    return generate_dataset(dataset, size=size or scale(),
                            seed=DATASET_SEED)


def model_for(benchmark: Benchmark, profile_name: str = "codex-sim",
              *, seed: int = MODEL_SEED) -> SimulatedTQAModel:
    """A fresh simulated model (fresh draw counter → stable results)."""
    return SimulatedTQAModel(benchmark.bank, get_profile(profile_name),
                             seed=seed)


def serving_spec_for(benchmark: Benchmark,
                     profile_name: str = "codex-sim"):
    """The serving-layer agent recipe matching :func:`model_for`."""
    from repro.serving import AgentSpec

    return AgentSpec(bank=benchmark.bank, profile=profile_name)


class CoTMajorityAgent:
    """Simple majority voting over the Codex-CoT baseline (Tables 4/5)."""

    def __init__(self, model, *, n: int = VOTE_SAMPLES,
                 temperature: float = VOTE_TEMPERATURE):
        self.model = model
        self.n = n
        self.temperature = temperature

    def run(self, table, question):
        agent = CodexCoTAgent(self.model, temperature=self.temperature)
        results = [agent.run(table, question) for _ in range(self.n)]
        winner = get_majority([result.answer for result in results])
        chosen = results[0]
        chosen.answer = winner
        return chosen


def accuracy_suite(benchmark: Benchmark, profile_name: str = "codex-sim",
                   *, registry_factory=default_registry,
                   configurations=("greedy", "s-vote", "t-vote",
                                   "e-vote")) -> dict[str, float | None]:
    """Accuracy of the standard ReAcTable configurations.

    Returns ``{config: accuracy}``; ``None`` marks configurations that are
    not applicable (e-vote on models without log-probabilities, matching
    the paper's "N.A." entries).
    """
    results: dict[str, float | None] = {}
    for config in configurations:
        model = model_for(benchmark, profile_name)
        registry = registry_factory()
        if config == "greedy":
            agent = ReActTableAgent(model, registry=registry)
        elif config == "s-vote":
            agent = SimpleMajorityVoting(
                model, registry=registry, n=VOTE_SAMPLES,
                temperature=VOTE_TEMPERATURE)
        elif config == "t-vote":
            agent = TreeExplorationVoting(
                model, registry=registry, n=VOTE_SAMPLES,
                temperature=VOTE_TEMPERATURE)
        elif config == "e-vote":
            if not model.supports_logprobs:
                results[config] = None
                continue
            agent = ExecutionBasedVoting(
                model, registry=registry, n=VOTE_SAMPLES,
                temperature=VOTE_TEMPERATURE)
        else:
            raise ValueError(config)
        results[config] = evaluate_agent(agent, benchmark).accuracy
    return results


def sql_only_suite(benchmark: Benchmark,
                   profile_name: str = "codex-sim") -> dict[str, float | None]:
    """The Tables 8/9 ablation: only the SQL executor available."""
    return accuracy_suite(benchmark, profile_name,
                          registry_factory=sql_only_registry)
