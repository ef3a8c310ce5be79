"""Table 5 — ReAcTable vs Codex-CoT on TabFact.

Paper shape: Codex-CoT trails ReAcTable by 12 points (71.1 vs 83.1); with
s-vote the gap stays large (72.3 vs 86.1).  Unlike WikiTQ, s-vote slightly
helps CoT here (binary verdicts concentrate the vote).
"""

from harness import VOTE_SAMPLES, VOTE_TEMPERATURE, benchmark_for, model_for

from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.evalkit import evaluate_agent
from repro.reporting import ComparisonTable, save_result
from repro.reporting.paper import TABLE5_COT_TABFACT


def run_experiment() -> dict[str, float]:
    benchmark = benchmark_for("tabfact")
    agents = {
        "Codex-CoT": ReActTableAgent(model_for(benchmark), strategy="cot"),
        "Codex-CoT with s-vote": SimpleMajorityVoting(
            model_for(benchmark), strategy="cot", n=VOTE_SAMPLES,
            temperature=VOTE_TEMPERATURE),
        "ReAcTable": ReActTableAgent(model_for(benchmark)),
        "ReAcTable with s-vote": SimpleMajorityVoting(
            model_for(benchmark), n=5),
    }
    return {
        name: evaluate_agent(agent, benchmark).accuracy
        for name, agent in agents.items()
    }


def test_table05_cot_tabfact(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ComparisonTable(
        "Table 5: ReAcTable vs Codex-CoT on TabFact")
    for name, paper_value in TABLE5_COT_TABFACT.items():
        table.row(name, paper_value, measured[name])
    table.print()
    save_result("table05_cot_tabfact", table.render())

    assert measured["ReAcTable"] > measured["Codex-CoT"] + 0.02, \
        "intermediate tables must contribute a large gain on TabFact"
    assert (measured["ReAcTable with s-vote"]
            > measured["Codex-CoT with s-vote"] + 0.05), \
        "the gap must persist under voting"
