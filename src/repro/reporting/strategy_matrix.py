"""Cross-strategy evaluation matrix: every strategy × every suite.

The ``repro bench strategies`` subcommand (and the tier-2 benchmark
``benchmarks/bench_strategy_matrix.py``) runs every registered strategy
over seeded WikiTQ and TabFact suites and renders one accuracy matrix,
with the best strategy of each suite underneath.
"""

from __future__ import annotations

from repro.core.agent import ReActTableAgent
from repro.datasets import generate_dataset
from repro.evalkit import evaluate_agent
from repro.llm import SimulatedTQAModel, get_profile
from repro.strategies.registry import strategy_names

__all__ = ["DATASETS", "run_matrix", "render_matrix", "best_single"]

DATASETS = ("wikitq", "tabfact")
#: Benchmark seed shared with ``benchmarks/harness.py``.
DATASET_SEED = 11
MODEL_SEED = 1


def run_matrix(*, datasets: tuple[str, ...] = DATASETS, size: int = 60,
               seed: int = DATASET_SEED, model_seed: int = MODEL_SEED,
               profile: str = "codex-sim",
               strategies: tuple[str, ...] | None = None
               ) -> dict[str, dict[str, float]]:
    """Accuracy per ``{dataset: {strategy: accuracy}}`` cell.

    Each cell gets a fresh model (same seed), so strategies see identical
    stochastic conditions and the columns are directly comparable.
    """
    names = tuple(strategies) if strategies else strategy_names()
    results: dict[str, dict[str, float]] = {}
    for dataset in datasets:
        benchmark = generate_dataset(dataset, size=size, seed=seed)
        cells: dict[str, float] = {}
        for name in names:
            model = SimulatedTQAModel(benchmark.bank, get_profile(profile),
                                      seed=model_seed)
            agent = ReActTableAgent(model, strategy=name)
            cells[name] = evaluate_agent(agent, benchmark).accuracy
        results[dataset] = cells
    return results


def best_single(cells: dict[str, float]) -> tuple[str, float]:
    """The best row of one dataset column."""
    name = max(cells, key=cells.get)
    return name, cells[name]


def render_matrix(results: dict[str, dict[str, float]], *, size: int,
                  profile: str = "codex-sim") -> str:
    """ASCII matrix: strategy rows × dataset columns."""
    datasets = list(results)
    rows = list(next(iter(results.values())))
    title = (f"Cross-strategy evaluation matrix "
             f"({profile}, {size} questions/suite)")
    header = f"{'Strategy':<18}" + "".join(
        f"{dataset:>10}" for dataset in datasets)
    lines = [title, "=" * max(len(title), len(header)), header,
             "-" * len(header)]
    for row in rows:
        cells = "".join(f"{results[dataset][row]:>10.1%}"
                        for dataset in datasets)
        lines.append(f"{row:<18}{cells}")
    lines.append("-" * len(header))
    best = "".join(f"{best_single(results[dataset])[0]:>10}"
                   for dataset in datasets)
    lines.append(f"{'best single':<18}{best}")
    return "\n".join(lines)
