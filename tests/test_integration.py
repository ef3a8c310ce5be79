"""End-to-end integration tests: full stacks over generated benchmarks."""

import pytest

from repro import (
    ExecutionBasedVoting,
    ReActTableAgent,
    SimpleMajorityVoting,
    SimulatedTQAModel,
    TreeExplorationVoting,
    evaluate_agent,
    evaluate_answer,
    get_profile,
    sql_only_registry,
)


class TestReActChainsOverBenchmark:
    def test_wikitq_agent_is_well_above_chance(self, wikitq_small):
        model = SimulatedTQAModel(wikitq_small.bank, seed=1)
        report = evaluate_agent(ReActTableAgent(model), wikitq_small)
        assert report.accuracy > 0.35

    def test_tabfact_agent_is_well_above_chance(self, tabfact_small):
        model = SimulatedTQAModel(tabfact_small.bank, seed=1)
        report = evaluate_agent(ReActTableAgent(model), tabfact_small)
        assert report.accuracy > 0.55

    def test_iterations_match_figure4_bounds(self, wikitq_small):
        model = SimulatedTQAModel(wikitq_small.bank, seed=1)
        report = evaluate_agent(ReActTableAgent(model), wikitq_small)
        assert max(report.iteration_histogram) <= 8

    def test_every_result_is_reproducible(self, wikitq_small):
        example = wikitq_small.examples[0]
        runs = []
        for _ in range(2):
            model = SimulatedTQAModel(wikitq_small.bank, seed=4)
            agent = ReActTableAgent(model)
            runs.append(agent.run(example.table, example.question))
        assert runs[0].answer == runs[1].answer
        assert runs[0].iterations == runs[1].iterations


class TestVotingOverBenchmark:
    def test_all_voting_mechanisms_run(self, wikitq_small):
        for voter_class in (SimpleMajorityVoting, TreeExplorationVoting,
                            ExecutionBasedVoting):
            model = SimulatedTQAModel(wikitq_small.bank, seed=1)
            voter = voter_class(model, n=3)
            report = evaluate_agent(voter, wikitq_small, limit=10)
            assert report.num_questions == 10

    def test_cot_below_react(self):
        # The headline ablation, at small scale with a margin.
        from repro.datasets import generate_dataset
        benchmark = generate_dataset("wikitq", size=150, seed=21)
        react = evaluate_agent(
            ReActTableAgent(SimulatedTQAModel(benchmark.bank, seed=1)),
            benchmark)
        cot = evaluate_agent(
            ReActTableAgent(SimulatedTQAModel(benchmark.bank, seed=1),
                            strategy="cot"),
            benchmark)
        assert react.accuracy > cot.accuracy


class TestSqlOnlyAblation:
    def test_sql_only_chains_never_use_python(self, wikitq_small):
        model = SimulatedTQAModel(wikitq_small.bank, seed=1)
        agent = ReActTableAgent(model, registry=sql_only_registry())
        for example in wikitq_small.examples[:20]:
            result = agent.run(example.table, example.question)
            kinds = {step.action.kind
                     for step in result.transcript.steps}
            assert "python" not in kinds


class TestProfilesOverBenchmark:
    def test_turbo_verbose_answers_hurt_wikitq_more_than_tabfact(self):
        from repro.datasets import generate_dataset
        wikitq = generate_dataset("wikitq", size=120, seed=31)
        tabfact = generate_dataset("tabfact", size=120, seed=31)
        turbo = get_profile("turbo-sim")
        wikitq_acc = evaluate_agent(
            ReActTableAgent(SimulatedTQAModel(wikitq.bank, turbo,
                                              seed=1)),
            wikitq).accuracy
        tabfact_acc = evaluate_agent(
            ReActTableAgent(SimulatedTQAModel(tabfact.bank, turbo,
                                              seed=1)),
            tabfact).accuracy
        assert tabfact_acc > wikitq_acc


class TestFetaqaPipeline:
    def test_sentences_scored_with_rouge(self, fetaqa_small):
        model = SimulatedTQAModel(fetaqa_small.bank, seed=1)
        report = evaluate_agent(ReActTableAgent(model), fetaqa_small)
        rouge = report.rouge()
        assert rouge["rouge1"] > 0.3
        assert rouge["rouge1"] >= rouge["rouge2"]


class TestGoldPlansSolvable:
    @pytest.mark.parametrize("dataset", ["wikitq", "tabfact", "fetaqa"])
    def test_gold_traces_reproduce_gold_answers(self, dataset, request):
        benchmark = request.getfixturevalue(f"{dataset}_small")
        for example in benchmark.examples[:10]:
            trace = example.plan.execute(example.table)
            assert trace.answer == example.gold_answer
            assert evaluate_answer(dataset, trace.answer,
                                   example.gold_answer)
