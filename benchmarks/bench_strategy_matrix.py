"""Cross-strategy evaluation matrix: strategies × suites.

Not a paper experiment — this measures the strategy layer
(``repro.strategies``): every registered reasoning strategy over the
seeded WikiTQ and TabFact suites.  Shape contracts:

* the registry exposes at least four strategies (react, cot,
  chain-of-table, commented-code), every one of them live;
* react — the paper's method, grounded on intermediate tables — beats
  the one-shot CoT program on WikiTQ (the Table 4 mechanism).

The rendered matrix is persisted to ``results/strategy_matrix.txt``
(also produced by ``repro bench strategies``).
"""

from harness import scale

from repro.reporting import save_result
from repro.reporting.strategy_matrix import render_matrix, run_matrix

#: Matches the ``repro bench strategies`` default at the stock scale, so
#: the committed artifact and the bench regeneration agree bit-for-bit.
SIZE = max(40, scale(240) // 4)


def run_experiment() -> dict[str, dict[str, float]]:
    return run_matrix(size=SIZE)


def test_strategy_matrix(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    text = render_matrix(results, size=SIZE)
    print("\n" + text + "\n")
    save_result("strategy_matrix", text)

    for dataset, cells in results.items():
        # >= 4 strategies, all of them live.
        assert len(cells) >= 4, dataset
        assert all(accuracy > 0.0 for accuracy in cells.values()), dataset
    # Grounding on intermediate tables must beat the one-shot program
    # where answers are open-ended (TabFact's binary verdicts give CoT
    # a coin-flip floor, so the contract is pinned on WikiTQ).
    assert results["wikitq"]["react"] > results["wikitq"]["cot"]
