"""Tests for the Codex-CoT baseline: the agent under ``strategy="cot"``."""

from repro.core import ReActTableAgent
from repro.llm import ScriptedModel


QUESTION = "which country had the most cyclists finish in the top 10?"


def cot_agent(model):
    return ReActTableAgent(model, strategy="cot")


class TestCodexCoT:
    def test_single_completion_chain(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0 "
            "WHERE Rank <= 10;```.\n"
            "ReAcTable: Python: ```T1['Country'] = T1.apply(lambda x: "
            "re.search(r\"\\((\\w+)\\)\", x['Cyclist']).group(1), "
            "axis=1)```.\n"
            "ReAcTable: Answer: ```ESP```.",
        ])
        result = cot_agent(model).run(cyclists, QUESTION)
        assert result.answer == ["ESP"]
        assert result.iterations == 1           # one LLM call
        assert len(model.prompts) == 1
        assert len(result.transcript.tables) == 3  # blocks executed

    def test_prompt_is_cot_style(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```x```."])
        cot_agent(model).run(cyclists, QUESTION)
        assert "in a single response" in model.prompts[0]
        assert "Intermediate table" not in model.prompts[0]

    def test_crashing_block_does_not_stop_answer(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Nope FROM T0;```.\n"
            "ReAcTable: Answer: ```blind guess```.",
        ])
        result = cot_agent(model).run(cyclists, QUESTION)
        assert result.answer == ["blind guess"]
        assert any("failed" in event
                   for event in result.handling_events)

    def test_no_answer_line_yields_empty(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0;```.",
        ])
        result = cot_agent(model).run(cyclists, QUESTION)
        assert result.answer == []

    def test_blank_and_garbage_lines_skipped(self, cyclists):
        model = ScriptedModel([
            "\nsome reasoning prose\n"
            "ReAcTable: Answer: ```fine```.\n",
        ])
        result = cot_agent(model).run(cyclists, QUESTION)
        assert result.answer == ["fine"]

    def test_stops_at_first_answer(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: Answer: ```first```.\n"
            "ReAcTable: Answer: ```second```.",
        ])
        result = cot_agent(model).run(cyclists, QUESTION)
        assert result.answer == ["first"]
