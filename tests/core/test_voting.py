"""Tests for the three voting mechanisms (Algorithms 1-3)."""

import pytest

from repro.core import (
    ExecutionBasedVoting,
    SimpleMajorityVoting,
    TreeExplorationVoting,
    get_majority,
    make_voter,
)
from repro.core.agent import ReActTableAgent
from repro.errors import ModelError
from repro.llm import Completion, LanguageModel, ScriptedModel


QUESTION = "which country had the most cyclists finish in the top 10?"


class TestGetMajority:
    def test_most_frequent_wins(self):
        answers = [["a"], ["b"], ["a"], ["c"], ["a"]]
        assert get_majority(answers) == ["a"]

    def test_tie_broken_by_first_seen(self):
        assert get_majority([["x"], ["y"], ["y"], ["x"]]) == ["x"]

    def test_normalisation_merges_variants(self):
        answers = [["Italy"], ["italy "], ["Spain"]]
        assert get_majority(answers) == ["Italy"]

    def test_multi_value_answers(self):
        answers = [["a", "b"], ["a", "b"], ["a"]]
        assert get_majority(answers) == ["a", "b"]

    def test_empty_input(self):
        assert get_majority([]) == []

    def test_empty_answers_count_too(self):
        assert get_majority([[], [], ["x"]]) == []


class TestSimpleMajorityVoting:
    def test_majority_over_chains(self, cyclists):
        # Five chains: three answer ITA, two answer ESP.
        outputs = []
        for answer in ("ITA", "ESP", "ITA", "ESP", "ITA"):
            outputs.append(f"ReAcTable: Answer: ```{answer}```.")
        model = ScriptedModel(outputs)
        voter = SimpleMajorityVoting(model, n=5)
        result = voter.run(cyclists, QUESTION)
        assert result.answer == ["ITA"]
        assert result.num_chains == 5
        assert result.votes[
            "ita"] == 3

    def test_iterations_reported_for_winner(self, cyclists):
        outputs = [
            # chain 1: two iterations, answers ITA
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0;```.",
            "ReAcTable: Answer: ```ITA```.",
            # chain 2: one iteration, answers ESP
            "ReAcTable: Answer: ```ESP```.",
            # chain 3: one iteration, answers ITA
            "ReAcTable: Answer: ```ITA```.",
        ]
        model = ScriptedModel(outputs)
        voter = SimpleMajorityVoting(model, n=3)
        result = voter.run(cyclists, QUESTION)
        assert result.answer == ["ITA"]
        assert result.iterations == 2  # first winning chain used two


class TestTreeExplorationVoting:
    def test_answers_collected_across_branches(self, cyclists):
        class FanoutModel(LanguageModel):
            name = "fanout"

            def complete(self, prompt, *, temperature=0.0, n=1):
                # Root call: two code continuations and an answer; the
                # code branches then answer directly.
                if "Intermediate table" not in prompt.rsplit(
                        "data above", 1)[1] and \
                        prompt.count("Intermediate table") <= 2:
                    pass
                if prompt.rstrip().endswith("correctly."):
                    return [
                        Completion("ReAcTable: SQL: ```SELECT Cyclist "
                                   "FROM T0;```."),
                        Completion("ReAcTable: Answer: ```ESP```."),
                        Completion("ReAcTable: Answer: ```ITA```."),
                    ][:n] * (1 if n <= 3 else 1)
                return [Completion("ReAcTable: Answer: ```ITA```.")
                        for _ in range(n)]

        voter = TreeExplorationVoting(FanoutModel(), n=3)
        result = voter.run(cyclists, QUESTION)
        # Leaves: ESP(1), ITA(1) from root + 3 ITA from the SQL branch.
        assert result.answer == ["ITA"]
        assert result.num_chains == 5

    def test_failed_branches_pruned(self, cyclists):
        class BrokenBranchModel(LanguageModel):
            name = "broken"

            def complete(self, prompt, *, temperature=0.0, n=1):
                return [
                    Completion("ReAcTable: SQL: ```SELECT Nope "
                               "FROM T0;```."),
                    Completion("ReAcTable: Answer: ```ok```."),
                ][:n]

        voter = TreeExplorationVoting(BrokenBranchModel(), n=2)
        result = voter.run(cyclists, QUESTION)
        assert result.answer == ["ok"]

    def test_branch_cap_respected(self, cyclists):
        class EndlessCode(LanguageModel):
            name = "endless"
            calls = 0

            def complete(self, prompt, *, temperature=0.0, n=1):
                EndlessCode.calls += 1
                if prompt.rstrip().endswith("ReAcTable: Answer:"):
                    return [Completion("ReAcTable: Answer: ```x```.")
                            for _ in range(n)]
                return [Completion(
                    "ReAcTable: SQL: ```SELECT * FROM T0;```.")
                    for _ in range(n)]

        voter = TreeExplorationVoting(EndlessCode(), n=2,
                                      max_branches=5, max_depth=4)
        result = voter.run(cyclists, QUESTION)
        assert result.answer == ["x"]


class TestExecutionBasedVoting:
    def test_equivalent_tables_merge_and_best_wins(self, cyclists):
        # Two syntactically different queries with identical results
        # (they should merge), plus a distinct lower-scored one.
        class StepModel(LanguageModel):
            name = "steps"
            supports_logprobs = True

            def complete(self, prompt, *, temperature=0.0, n=1):
                if "Intermediate table" in prompt.rsplit(
                        'data above: "which country', 1)[1]:
                    return [Completion(
                        "ReAcTable: Answer: ```done```.", -1.0)
                        for _ in range(n)]
                return [
                    Completion("ReAcTable: SQL: ```SELECT Cyclist "
                               "FROM T0;```.", -5.0),
                    Completion("ReAcTable: SQL: ```SELECT Cyclist "
                               "FROM T0 WHERE 1 = 1;```.", -2.0),
                    Completion("ReAcTable: SQL: ```SELECT Team "
                               "FROM T0;```.", -3.0),
                ][:n]

        voter = ExecutionBasedVoting(StepModel(), n=3)
        result = voter.run(cyclists, QUESTION)
        assert result.answer == ["done"]

    def test_non_executing_code_never_wins(self, cyclists):
        model = ScriptedModel(
            [
                "ReAcTable: SQL: ```SELECT Nope FROM T0;```.",
                "ReAcTable: Answer: ```fallback```.",
            ],
            logprobs=[-0.1, -9.0],
        )

        class Wrap(LanguageModel):
            name = "wrap"
            supports_logprobs = True

            def complete(self, prompt, *, temperature=0.0, n=1):
                return [model.complete(prompt, temperature=temperature)[0]
                        for _ in range(n)]

        voter = ExecutionBasedVoting(Wrap(), n=2)
        result = voter.run(cyclists, QUESTION)
        # The broken SQL scores higher but cannot execute; the answer
        # group is the only candidate.
        assert result.answer == ["fallback"]

    def test_requires_logprobs(self, cyclists):
        class NoLogprobs(LanguageModel):
            name = "chat"
            supports_logprobs = False

            def complete(self, prompt, *, temperature=0.0, n=1):
                return [Completion("ReAcTable: Answer: ```x```.")]

        with pytest.raises(ModelError):
            ExecutionBasedVoting(NoLogprobs())


class TestMakeVoter:
    def test_none_returns_plain_agent(self):
        model = ScriptedModel([])
        agent = make_voter("none", model)
        assert isinstance(agent, ReActTableAgent)
        assert agent.temperature == 0.0

    def test_kinds(self):
        model = ScriptedModel([])
        model.supports_logprobs = True
        assert isinstance(make_voter("s-vote", model),
                          SimpleMajorityVoting)
        assert isinstance(make_voter("t-vote", model),
                          TreeExplorationVoting)
        assert isinstance(make_voter("e-vote", model),
                          ExecutionBasedVoting)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_voter("z-vote", ScriptedModel([]))

    @pytest.mark.parametrize("kind", ["s-vote", "t-vote", "e-vote"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_voters_need_at_least_one_sample(self, kind, n):
        model = ScriptedModel([])
        model.supports_logprobs = True
        with pytest.raises(ValueError, match="n must be >= 1"):
            make_voter(kind, model, n=n)
