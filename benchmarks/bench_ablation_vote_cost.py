"""Ablation (beyond the paper): the prompting cost of majority voting.

Section 5.3 warns that "majority voting introduces additional prompting
costs ... one should exercise caution".  This bench quantifies the
trade-off: accuracy vs LLM calls and estimated tokens per question, for
every configuration.
"""

from harness import VOTE_SAMPLES, benchmark_for, model_for

from repro.core import (
    ExecutionBasedVoting,
    ReActTableAgent,
    SimpleMajorityVoting,
    TreeExplorationVoting,
)
from repro.evalkit import evaluate_agent
from repro.reporting import ComparisonTable, save_result
from repro.telemetry import Telemetry, cost_summary


def run_experiment() -> dict[str, tuple[float, float, float]]:
    bench = benchmark_for("wikitq")
    configurations = {
        "greedy": lambda model: ReActTableAgent(model),
        "s-vote": lambda model: SimpleMajorityVoting(
            model, n=VOTE_SAMPLES),
        "t-vote": lambda model: TreeExplorationVoting(
            model, n=VOTE_SAMPLES),
        "e-vote": lambda model: ExecutionBasedVoting(
            model, n=VOTE_SAMPLES),
    }
    measured = {}
    for name, factory in configurations.items():
        # The model_call spans charge every call and its estimated tokens.
        telemetry = Telemetry()
        with telemetry.activate():
            report = evaluate_agent(factory(model_for(bench)), bench)
        cost = cost_summary(telemetry.spans)
        questions = report.num_questions
        measured[name] = (
            report.accuracy,
            cost["model_calls"] / questions,
            cost["total_tokens"] / questions,
        )
    return measured


def test_ablation_vote_cost(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    def fmt(value):
        accuracy, calls, tokens = value
        return f"{accuracy * 100:.1f}% / {calls:.1f} / {tokens:,.0f}"

    table = ComparisonTable(
        "Ablation: accuracy / LLM calls / tokens per question (WikiTQ)",
        value_formatter=fmt)
    for name, value in measured.items():
        table.row(name, None, value)
    table.print()
    save_result("ablation_vote_cost", table.render())

    greedy_calls = measured["greedy"][1]
    svote_calls = measured["s-vote"][1]
    assert svote_calls > greedy_calls * (VOTE_SAMPLES - 1), \
        "s-vote must cost roughly n times the greedy configuration"
    # e-vote samples n completions per *step*, so it needs fewer calls
    # than s-vote's n full chains but more tokens than greedy.
    assert measured["e-vote"][2] > measured["greedy"][2]
