"""Unit tests for the two strategies added with the registry.

Engines are built through their registered strategy factories (the
resolution seam ``tools/lint_strategies.py`` pins), then driven sans-IO
with hand-fed effects or end-to-end with scripted models:

* Chain-of-Table — the operator vocabulary's parse/render round trip,
  lowering of operator actions into executable plan steps, and the
  forcing ladder on operators that do not parse;
* commented-code — the block-based completion parser (comments flush
  blocks, multi-line bodies survive) and the single-completion run.
"""

import pytest

from repro.core.actions import ActionKind
from repro.core.agent import ReActTableAgent
from repro.engine.effects import Execute, ModelCall, ModelResult
from repro.errors import OperatorParseError
from repro.llm.base import Completion, ScriptedModel
from repro.plans.operators import (
    AddColumnOp,
    GroupOp,
    SelectRowsOp,
    SortOp,
    parse_operator,
    render_operator,
)
from repro.plans.steps import (
    AggregateStep,
    ExtractStep,
    FilterStep,
    GroupAggStep,
    GroupCountStep,
    ProjectStep,
    SuperlativeStep,
)
from repro.strategies import EngineRequest, get_strategy

QUESTION = "which country had the most cyclists finish in the top 10?"


def build(strategy, table, question=QUESTION, **kwargs):
    return get_strategy(strategy).build_engine(
        EngineRequest(table=table, question=question, **kwargs))


def reply(*texts):
    return ModelResult(tuple(Completion(t) for t in texts))


class TestOperatorParse:
    def test_select_rows_condition(self):
        op = parse_operator("select_rows(condition=Rank <= 10; "
                            "columns=Cyclist)")
        assert op == SelectRowsOp(condition="Rank <= 10",
                                  columns=("Cyclist",))
        assert isinstance(op.to_step(), FilterStep)

    def test_select_rows_projection(self):
        op = parse_operator("select_rows(columns=A, B; distinct=true)")
        assert op == SelectRowsOp(columns=("A", "B"), distinct=True)
        assert isinstance(op.to_step(), ProjectStep)

    def test_add_column(self):
        op = parse_operator(r"add_column(source=Cyclist; target=Country; "
                            r"pattern=\((\w+)\); cast=true)")
        assert op == AddColumnOp(source="Cyclist", target="Country",
                                 pattern=r"\((\w+)\)", cast_numeric=True)

    def test_group_count_and_agg(self):
        count = parse_operator("group(key=Country; agg=count; "
                               "desc=true; limit=1)")
        assert isinstance(count.to_step(), GroupCountStep)
        agg = parse_operator("group(key=Team; agg=sum; value=Points; "
                             "desc=false; limit=2)")
        assert agg == GroupOp(key="Team", agg="sum", value="Points",
                              descending=False, limit=2)
        assert isinstance(agg.to_step(), GroupAggStep)

    def test_sort(self):
        op = parse_operator("sort(by=Points; columns=Cyclist, Points; "
                            "desc=false; k=3)")
        assert op == SortOp(by="Points", columns=("Cyclist", "Points"),
                            descending=False, k=3)
        assert isinstance(op.to_step(), SuperlativeStep)

    def test_unknown_operator_lists_vocabulary(self):
        with pytest.raises(OperatorParseError, match="select_rows"):
            parse_operator("pivot(key=A)")

    def test_not_a_call_rejected(self):
        with pytest.raises(OperatorParseError, match="not an operator"):
            parse_operator("SELECT * FROM T0")

    def test_malformed_field_rejected(self):
        with pytest.raises(OperatorParseError, match="key=value"):
            parse_operator("group(key=A; nonsense)")

    def test_missing_required_key_rejected(self):
        with pytest.raises(OperatorParseError, match="missing"):
            parse_operator("add_column(source=A; target=B)")

    def test_projection_needs_condition_or_columns(self):
        with pytest.raises(OperatorParseError):
            parse_operator("select_rows(distinct=true)").to_step()


class TestOperatorRender:
    ROUND_TRIP = [
        FilterStep(condition="Rank <= 10", columns=("Cyclist",)),
        ProjectStep(columns=("A", "B"), distinct=True),
        ExtractStep(source="Cyclist", target="Country",
                    pattern=r"\((\w+)\)"),
        GroupCountStep(key="Country", descending=True, limit=1),
        GroupAggStep(key="Team", agg="sum", value="Points",
                     descending=False, limit=2),
        SuperlativeStep(target="Cyclist", by="Points",
                        descending=True, k=1),
    ]

    @pytest.mark.parametrize("step", ROUND_TRIP,
                             ids=[type(s).__name__ for s in ROUND_TRIP])
    def test_render_parse_round_trip_preserves_code(self, step):
        text = render_operator(step)
        assert text is not None
        lowered = parse_operator(text).to_step()
        assert lowered.render("T0") == step.render("T0")

    def test_inexpressible_steps_render_none(self):
        # Whole-table aggregates fall outside the operator vocabulary.
        assert render_operator(AggregateStep(agg="count")) is None


class TestChainOfTableEngine:
    OPERATOR = ("ReAcTable: Operator: ```select_rows("
                "condition=Rank <= 10; columns=Cyclist)```.")
    ANSWER = "ReAcTable: Answer: ```ESP```."

    def test_operator_lowers_to_plan_step_code(self, cyclists):
        engine = build("chain-of-table", cyclists)
        effect = engine.next_effect()
        assert isinstance(effect, ModelCall)
        assert "select_rows" in effect.prompt   # vocabulary in prompt
        engine.send(reply(self.OPERATOR))
        effect = engine.next_effect()
        assert isinstance(effect, Execute)
        expected = parse_operator("select_rows(condition=Rank <= 10; "
                                  "columns=Cyclist)").to_step()
        assert effect.code == expected.render("T0")
        assert effect.language == expected.language

    def test_bad_operator_forces_direct_answer(self, cyclists):
        engine = build("chain-of-table", cyclists)
        engine.next_effect()
        engine.send(reply("ReAcTable: Operator: ```pivot(key=A)```."))
        effect = engine.next_effect()
        # The Section 3.3 ladder, one rung earlier: no Execute, straight
        # to a forced model call.
        assert isinstance(effect, ModelCall)
        assert effect.forced
        assert any("unusable operator" in event
                   for event in engine.events)
        engine.send(reply(self.ANSWER))
        assert engine.result.forced
        assert engine.result.answer == ["ESP"]

    def test_non_operator_action_also_forces(self, cyclists):
        engine = build("chain-of-table", cyclists)
        engine.next_effect()
        engine.send(reply("ReAcTable: SQL: ```SELECT 1;```."))
        effect = engine.next_effect()
        assert isinstance(effect, ModelCall) and effect.forced
        assert any("unexpected action kind" in event
                   for event in engine.events)

    def test_full_run_through_strategy_agent(self, cyclists):
        model = ScriptedModel([
            "ReAcTable: Operator: ```group(key=Team; agg=count; "
            "desc=true; limit=1)```.",
            self.ANSWER,
        ])
        result = ReActTableAgent(model, strategy="chain-of-table").run(
            cyclists, QUESTION)
        assert result.answer == ["ESP"]
        assert result.iterations == 2
        assert not result.forced
        # The operator evolved the table: T1 joined the transcript.
        assert len(result.transcript.tables) == 2


class TestCommentedCodeEngine:
    def test_comment_lines_flush_blocks_and_are_kept(self, cyclists):
        engine = build("commented-code", cyclists)
        actions = engine._parse_completion(
            "# keep the top-10 finishers\n"
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0 "
            "WHERE Rank <= 10;```.\n"
            "# answer from the grouped table\n"
            "ReAcTable: Answer: ```ESP```.\n")
        assert [a.kind for a in actions] == [ActionKind.SQL,
                                             ActionKind.ANSWER]
        assert engine.comments == ["keep the top-10 finishers",
                                   "answer from the grouped table"]

    def test_multi_line_python_bodies_survive(self, cyclists):
        engine = build("commented-code", cyclists)
        actions = engine._parse_completion(
            "# derive the country column\n"
            "ReAcTable: Python: ```T1['Country'] = T1.apply(\n"
            "    lambda x: x['Cyclist'][-4:-1],\n"
            "    axis=1)```.\n")
        assert len(actions) == 1
        assert actions[0].kind == ActionKind.PYTHON
        assert "lambda x" in actions[0].payload
        assert "axis=1" in actions[0].payload

    def test_head_line_flushes_previous_block(self, cyclists):
        engine = build("commented-code", cyclists)
        actions = engine._parse_completion(
            "ReAcTable: SQL: ```SELECT * FROM T0;```.\n"
            "ReAcTable: Answer: ```42```.\n")
        assert [a.kind for a in actions] == [ActionKind.SQL,
                                             ActionKind.ANSWER]

    def test_unparseable_blocks_skipped(self, cyclists):
        engine = build("commented-code", cyclists)
        actions = engine._parse_completion(
            "some prose the model emitted\n"
            "# a real step\n"
            "ReAcTable: Answer: ```fine```.\n")
        assert [a.kind for a in actions] == [ActionKind.ANSWER]

    def test_prompt_asks_for_commented_program(self, cyclists):
        model = ScriptedModel(["ReAcTable: Answer: ```x```."])
        ReActTableAgent(model, strategy="commented-code").run(
            cyclists, QUESTION)
        assert len(model.prompts) == 1
        assert "'#'" in model.prompts[0]
        assert "Intermediate table" not in model.prompts[0]

    def test_single_completion_run_executes_blocks(self, cyclists):
        model = ScriptedModel([
            "# top-10 finishers only\n"
            "ReAcTable: SQL: ```SELECT Cyclist FROM T0 "
            "WHERE Rank <= 10;```.\n"
            "# read the answer off\n"
            "ReAcTable: Answer: ```ESP```.",
        ])
        result = ReActTableAgent(model, strategy="commented-code").run(
            cyclists, QUESTION)
        assert result.answer == ["ESP"]
        assert result.iterations == 1           # one LLM call
        assert len(result.transcript.tables) == 2
