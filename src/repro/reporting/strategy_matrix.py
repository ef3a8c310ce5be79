"""Cross-strategy evaluation matrix: every strategy × every suite.

The ``repro bench strategies`` subcommand (and the tier-2 benchmark
``benchmarks/bench_strategy_matrix.py``) runs every registered strategy
plus the heterogeneous ensemble over seeded WikiTQ and TabFact suites
and renders one accuracy matrix.  The interesting shape, mirroring the
paper's voting tables: approach diversity is a second axis of ensembling
— the ensemble row should match or beat the best single strategy on at
least one suite, because majority across *approaches* votes down the
failure modes idiosyncratic to each.
"""

from __future__ import annotations

from repro.datasets import generate_dataset
from repro.evalkit import evaluate_agent
from repro.llm import SimulatedTQAModel, get_profile
from repro.strategies.agent import StrategyAgent
from repro.strategies.ensemble import HeterogeneousEnsemble
from repro.strategies.registry import strategy_names

__all__ = ["DATASETS", "ENSEMBLE_ROW", "run_matrix", "render_matrix",
           "best_single"]

DATASETS = ("wikitq", "tabfact")
#: Key of the synthetic matrix row holding the heterogeneous ensemble.
ENSEMBLE_ROW = "ensemble"
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
    stochastic conditions and the columns are directly comparable.  The
    ensemble votes across *all* the evaluated strategies.
    """
    names = tuple(strategies) if strategies else strategy_names()
    results: dict[str, dict[str, float]] = {}
    for dataset in datasets:
        benchmark = generate_dataset(dataset, size=size, seed=seed)
        cells: dict[str, float] = {}
        for name in names:
            model = SimulatedTQAModel(benchmark.bank, get_profile(profile),
                                      seed=model_seed)
            agent = StrategyAgent(model, strategy=name)
            cells[name] = evaluate_agent(agent, benchmark).accuracy
        model = SimulatedTQAModel(benchmark.bank, get_profile(profile),
                                  seed=model_seed)
        ensemble = HeterogeneousEnsemble(model, names)
        cells[ENSEMBLE_ROW] = evaluate_agent(ensemble, benchmark).accuracy
        results[dataset] = cells
    return results


def best_single(cells: dict[str, float]) -> tuple[str, float]:
    """The best non-ensemble row of one dataset column."""
    singles = {name: acc for name, acc in cells.items()
               if name != ENSEMBLE_ROW}
    name = max(singles, key=singles.get)
    return name, singles[name]


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
        label = row if row != ENSEMBLE_ROW else "ensemble (all)"
        cells = "".join(f"{results[dataset][row]:>10.1%}"
                        for dataset in datasets)
        lines.append(f"{label:<18}{cells}")
    lines.append("-" * len(header))
    best = "".join(f"{best_single(results[dataset])[0]:>10}"
                   for dataset in datasets)
    lines.append(f"{'best single':<18}{best}")
    lines.append("")
    lines.append("The ensemble row votes one branch per strategy "
                 "(majority across the\nextracted answers); approach "
                 "diversity complements sampling diversity.")
    return "\n".join(lines)
