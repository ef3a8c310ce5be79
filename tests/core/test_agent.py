"""Tests for the ReAcTable agent loop, driven by scripted models."""

import pytest

from repro.core import ReActTableAgent
from repro.errors import IterationLimitError
from repro.executors import default_registry
from repro.llm import ScriptedModel
from repro.table import DataFrame


QUESTION = "which country had the most cyclists finish in the top 10?"


class TestHappyPath:
    def test_single_answer(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```Italy```."])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["Italy"]
        assert result.iterations == 1
        assert not result.forced

    def test_figure1_chain(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0 "
            "WHERE Rank <= 10;```.",
            "ReAcTable: Python: ```T1['Country'] = T1.apply(lambda x: "
            "re.search(r\"\\((\\w+)\\)\", x['Cyclist']).group(1), "
            "axis=1)```.",
            "ReAcTable: SQL: ```SELECT Country, COUNT(*) FROM T2 "
            "GROUP BY Country ORDER BY COUNT(*) DESC LIMIT 1;```.",
            "ReAcTable: Answer: ```ESP```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["ESP"]
        assert result.iterations == 4
        # Three intermediate tables were produced.
        assert len(result.transcript.tables) == 4

    def test_prompts_grow_with_context(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0;```.",
            "ReAcTable: Answer: ```done```.",
        ])
        ReActTableAgent(model).run(cyclists, QUESTION)
        assert len(model.prompts) == 2
        # The few-shot demo contains one "Intermediate table (T1)"; the
        # second prompt adds the live chain's own.
        demo_count = model.prompts[0].count("Intermediate table (T1):")
        assert model.prompts[1].count(
            "Intermediate table (T1):") == demo_count + 1

    def test_multi_value_answer(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```2001|2002```."])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["2001", "2002"]


class TestExceptionHandling:
    def test_sql_retry_recovers(self, cyclists):
        # The second query names T1 but filters on Rank (only in T0):
        # the executor's retry handles it, and the chain continues.
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0;```.",
            "ReAcTable: SQL: ```SELECT Cyclist FROM T1 "
            "WHERE Rank <= 2;```.",
            "ReAcTable: Answer: ```ok```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["ok"]
        assert any("retried" in event
                   for event in result.handling_events)

    def test_unrecoverable_sql_forces_answer(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Nope FROM T0;```.",
            "ReAcTable: Answer: ```forced```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["forced"]
        assert result.forced
        assert model.prompts[-1].endswith("ReAcTable: Answer:")

    @pytest.mark.parametrize("backend", ["sqlite", "native"])
    @pytest.mark.parametrize("cell", [2 ** 70, "\ud800"],
                             ids=["past_64_bits", "lone_surrogate"])
    def test_cell_sqlite_cannot_take_ends_in_an_answer(self, backend, cell):
        # sqlite cannot bind an integer past 64 bits or a lone surrogate:
        # its query fails and the chain forces an answer; the native
        # engine runs the query.  Either way the run answers.
        table = DataFrame({"k": ["a", "b"], "v": [1, cell]}, name="T0")
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT k FROM T0 WHERE k = 'b';```.",
            "ReAcTable: Answer: ```b```.",
        ])
        agent = ReActTableAgent(
            model, registry=default_registry(sql_backend=backend))
        result = agent.run(table, "which k?")
        assert result.answer == ["b"]
        assert result.forced == (backend == "sqlite")

    def test_python_crash_forces_answer(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: Python: ```T0['x'] = T0.apply("
            "lambda r: 1 / 0, axis=1)```.",
            "ReAcTable: Answer: ```forced```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.forced
        assert any("failed" in event
                   for event in result.handling_events)

    def test_unparseable_completion_forces_answer(self, cyclists):
        model = ScriptedModel([
            "hmm, let me think about this...",
            "ReAcTable: Answer: ```after force```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["after force"]
        assert result.forced

    def test_unknown_language_forces_answer(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: Scala: ```df.filter(...)```.",
            "ReAcTable: Answer: ```forced```.",
        ])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.forced

    def test_empty_completion_batch_forces_answer(self, cyclists):
        # A mis-sized backend response (the chaos harness's ``wrong_n``
        # fault) is absorbed like an unparseable completion.
        class WrongNModel(ScriptedModel):
            def complete(self, prompt, *, temperature=0.0, n=1):
                if not self.prompts:
                    self.prompts.append(prompt)
                    return []
                return super().complete(prompt, temperature=temperature,
                                        n=n)

        model = WrongNModel(["ReAcTable: Answer: ```recovered```."])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["recovered"]
        assert result.forced
        assert "empty completion batch; forcing answer" \
            in result.handling_events

    def test_empty_batch_on_forced_prompt_gives_empty_answer(
            self, cyclists):
        class AlwaysEmptyModel(ScriptedModel):
            def complete(self, prompt, *, temperature=0.0, n=1):
                self.prompts.append(prompt)
                return []

        result = ReActTableAgent(AlwaysEmptyModel([])).run(cyclists,
                                                           QUESTION)
        assert result.answer == []
        assert result.forced

    def test_doubly_unparseable_gives_empty_answer(self, cyclists):
        model = ScriptedModel(["garbage one", "garbage two"])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == []
        assert result.forced


class TestIterationLimits:
    def test_limit_one_forces_immediately(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```direct```."])
        agent = ReActTableAgent(model, max_iterations=1)
        result = agent.run(cyclists, QUESTION)
        assert result.iterations == 1
        assert result.forced
        assert model.prompts[0].endswith("ReAcTable: Answer:")

    def test_limit_two_allows_one_code_step(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0;```.",
            "ReAcTable: Answer: ```x```.",
        ])
        agent = ReActTableAgent(model, max_iterations=2)
        result = agent.run(cyclists, QUESTION)
        assert result.iterations == 2
        assert not model.prompts[0].endswith("ReAcTable: Answer:")
        assert model.prompts[1].endswith("ReAcTable: Answer:")

    def test_invalid_limit_rejected(self, cyclists):
        model = ScriptedModel([])
        with pytest.raises(IterationLimitError):
            ReActTableAgent(model, max_iterations=0)

    def test_hard_cap_terminates_code_loop(self, cyclists):
        # A model that wants to emit SQL forever still terminates.
        from repro.core.agent import HARD_ITERATION_CAP
        outputs = ["ReAcTable: SQL: ```SELECT * FROM T0;```."] * 40
        outputs.append("ReAcTable: Answer: ```stopped```.")
        # The forced prompt arrives before we run out of scripted SQL.
        model = ScriptedModel(outputs[:HARD_ITERATION_CAP - 1]
                              + ["ReAcTable: Answer: ```stopped```."])
        result = ReActTableAgent(model).run(cyclists, QUESTION)
        assert result.answer == ["stopped"]
        assert result.iterations <= HARD_ITERATION_CAP


class TestPerRunSeed:
    class ForkableModel(ScriptedModel):
        """Scripted model whose forks are observable."""

        def __init__(self, outputs):
            super().__init__(outputs)
            self.forked_with = []

        def fork(self, seed):
            self.forked_with.append(seed)
            fork = TestPerRunSeed.ForkableModel(list(self._outputs))
            fork.prompts = self.prompts   # share the prompt log
            return fork

    def test_run_without_seed_uses_model_directly(self, cyclists):
        model = self.ForkableModel(["ReAcTable: Answer: ```x```."])
        ReActTableAgent(model).run(cyclists, QUESTION)
        assert model.forked_with == []

    def test_run_with_seed_forks_the_model(self, cyclists):
        model = self.ForkableModel(["ReAcTable: Answer: ```x```."])
        agent = ReActTableAgent(model)
        result = agent.run(cyclists, QUESTION, seed=7)
        assert result.answer == ["x"]
        assert model.forked_with == [7]
        # The original model's script was left untouched by the run.
        assert model._cursor == 0

    def test_default_fork_returns_self(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```x```."])
        assert model.fork(3) is model
        result = ReActTableAgent(model).run(cyclists, QUESTION, seed=3)
        assert result.answer == ["x"]


class TestColumnNormalization:
    def test_messy_headers_normalised_in_prompt(self):
        from repro.table import DataFrame

        messy = DataFrame({
            "2008 Results!": [1, 2],
            "UCI ProTour Points": [40, 30],
        })
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT results FROM T0 "
            "WHERE uci_protour_points > 35;```.",
            "ReAcTable: Answer: ```1```.",
        ])
        agent = ReActTableAgent(model, normalize_columns=True)
        result = agent.run(messy, "which result scored over 35 points?")
        assert result.answer == ["1"]
        assert "[HEAD]:results|uci_protour_points" in model.prompts[0]

    def test_normalisation_dedupes_collisions(self):
        from repro.table import DataFrame

        messy = DataFrame({"Rank ": [1], "#Rank": [2]})
        model = ScriptedModel(["ReAcTable: Answer: ```x```."])
        agent = ReActTableAgent(model, normalize_columns=True)
        agent.run(messy, "q?")
        assert "[HEAD]:rank|rank_2" in model.prompts[0]

    def test_off_by_default(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```x```."])
        agent = ReActTableAgent(model)
        agent.run(cyclists, "q?")
        assert "[HEAD]:Rank|Cyclist" in model.prompts[0]
