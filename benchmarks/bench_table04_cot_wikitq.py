"""Table 4 — ReAcTable vs Codex-CoT on WikiTQ (the intermediate-table
ablation).

Paper shape: removing intermediate tables costs 16.4 points (65.8 → 49.4);
s-vote *helps* ReAcTable (+2.2) but *hurts* Codex-CoT (−1.7), because the
high-temperature sampling compounds CoT's ungrounded uncertainty.
"""

from harness import VOTE_SAMPLES, VOTE_TEMPERATURE, benchmark_for, model_for

from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.evalkit import evaluate_agent
from repro.reporting import ComparisonTable, save_result
from repro.reporting.paper import TABLE4_COT_WIKITQ


def run_experiment() -> dict[str, float]:
    benchmark = benchmark_for("wikitq")
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


def test_table04_cot_wikitq(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ComparisonTable(
        "Table 4: ReAcTable vs Codex-CoT on WikiTQ")
    for name, paper_value in TABLE4_COT_WIKITQ.items():
        table.row(name, paper_value, measured[name])
    table.print()
    save_result("table04_cot_wikitq", table.render())

    assert measured["ReAcTable"] > measured["Codex-CoT"] + 0.08, \
        "intermediate tables must contribute a large gain"
    assert (measured["ReAcTable with s-vote"]
            > measured["ReAcTable"]), "s-vote must help ReAcTable"
    assert (measured["Codex-CoT with s-vote"]
            < measured["Codex-CoT"] + 0.03), \
        "s-vote must not help Codex-CoT (high-temperature uncertainty)"
