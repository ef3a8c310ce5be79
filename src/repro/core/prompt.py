"""Prompt construction and re-parsing (the Figure 2 template).

The prompt built at iteration *k* contains: the few-shot demonstrations,
the original table T0, the question, and — for every completed iteration —
the LLM's action line plus the intermediate table its code produced.

``parse_prompt`` inverts the template.  It is used by the simulated LLM,
which receives *only* the prompt string (exactly like an API model) and
must recover the question, the original table, the current table and how
many steps have been taken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.actions import Action, format_action
from repro.errors import PromptError
from repro.perf.encode_cache import (
    decode_head_row_cached,
    encode_head_row_cached,
)
from repro.table.frame import DataFrame

__all__ = [
    "TranscriptStep",
    "Transcript",
    "PromptBuilder",
    "ParsedPrompt",
    "parse_prompt",
    "build_cot_prompt",
    "build_commented_prompt",
    "DEFAULT_FEW_SHOT",
]

_TABLE_MARKER = "The database table T0 is shown as follows:"
_QUESTION_MARKER = 'Answer the following question based on the data above: "'
_INTERMEDIATE_MARKER = "Intermediate table ("
_FORCED_ANSWER_SUFFIX = "ReAcTable: Answer:"
_COT_INSTRUCTION_HINT = "in a single response"
# Strategy-layer instruction hints (repro.strategies): each non-react
# strategy marks its instruction line so the simulated model — which
# receives only the prompt string — can recover which completion mode is
# being asked for.  The hints are disjoint from each other and from the
# CoT hint above.
_OPERATOR_INSTRUCTION_HINT = "one table-evolving operator"
_COMMENTED_INSTRUCTION_HINT = "comment line"
# The reflexion tier's template extensions (repro.reflect).  A prompt
# ending with the reflection suffix asks the model to *write* a verbal
# reflection about a failed run; a prompt whose preamble carries
# "Reflection k:" lines under the header is a chain re-run that should
# *use* those reflections.
_REFLECTION_SUFFIX = "ReAcTable: Reflection:"
_REFLECTION_HEADER = "Reflections from previous failed attempts:"
_REFLECTION_LINE = re.compile(r"^Reflection \d+:", re.MULTILINE)
_FAILURE_CATEGORY = re.compile(r"previous attempt failed \(([a-z_]+)\)")


@dataclass
class TranscriptStep:
    """One completed iteration: the action and the table it produced."""

    action: Action
    table: DataFrame | None = None      # None for answer actions
    #: Notes from the executor's exception handling (not shown in prompts).
    handling_notes: list[str] = field(default_factory=list)


@dataclass
class Transcript:
    """The evolving state of one ReAcTable chain."""

    t0: DataFrame
    question: str
    steps: list[TranscriptStep] = field(default_factory=list)

    @property
    def tables(self) -> list[DataFrame]:
        """Table history [T0, T1, ...] (code steps only)."""
        history = [self.t0]
        history.extend(
            step.table for step in self.steps if step.table is not None)
        return history

    @property
    def num_code_steps(self) -> int:
        return sum(1 for step in self.steps if step.table is not None)

    def fork(self) -> "Transcript":
        """A shallow-history copy (for tree-exploration voting branches)."""
        return Transcript(self.t0, self.question, list(self.steps))


def _default_few_shot() -> str:
    """The static few-shot demonstration (the paper's running example).

    One fully-worked WikiTQ example in the exact transcript format, so the
    model "sees" the SQL -> Python -> SQL -> Answer pattern.
    """
    return (
        f"{_TABLE_MARKER}\n"
        "[HEAD]:Rank|Cyclist|Team|Points\n"
        "[ROW] 1: 1|Alejandro Valverde (ESP)|Caisse d'Epargne|40\n"
        "[ROW] 2: 2|Alexandr Kolobnev (RUS)|Team CSC Saxo Bank|30\n"
        "[ROW] 3: 10|David Moncoutie (FRA)|Cofidis|NULL\n"
        f"{_QUESTION_MARKER}which country had the most cyclists finish "
        "within the top 10?\". Generate SQL or Python code step-by-step "
        "given the question and table to answer the question correctly.\n"
        "ReAcTable: SQL: ```SELECT Cyclist FROM T0 WHERE Rank <= 10;```.\n"
        "Intermediate table (T1):\n"
        "[HEAD]:Cyclist\n"
        "[ROW] 1: Alejandro Valverde (ESP)\n"
        "[ROW] 2: Alexandr Kolobnev (RUS)\n"
        "[ROW] 3: David Moncoutie (FRA)\n"
        "ReAcTable: Python: ```T1['Country'] = T1.apply(lambda x: "
        "re.search(r\"\\((\\w+)\\)\", x['Cyclist']).group(1), "
        "axis=1)```.\n"
        "Intermediate table (T2):\n"
        "[HEAD]:Cyclist|Country\n"
        "[ROW] 1: Alejandro Valverde (ESP)|ESP\n"
        "[ROW] 2: Alexandr Kolobnev (RUS)|RUS\n"
        "[ROW] 3: David Moncoutie (FRA)|FRA\n"
        "ReAcTable: SQL: ```SELECT Country, COUNT(*) FROM T2 GROUP BY "
        "Country ORDER BY COUNT(*) DESC LIMIT 1;```.\n"
        "Intermediate table (T3):\n"
        "[HEAD]:Country|COUNT(*)\n"
        "[ROW] 1: ESP|1\n"
        "ReAcTable: Answer: ```ESP```.\n"
    )


DEFAULT_FEW_SHOT = _default_few_shot()


class PromptBuilder:
    """Instantiates the prompt template at every iteration."""

    def __init__(self, *, few_shot: str | None = None,
                 languages: tuple[str, ...] = ("sql", "python"),
                 max_prompt_rows: int | None = 50):
        self.few_shot = DEFAULT_FEW_SHOT if few_shot is None else few_shot
        self.languages = tuple(languages)
        self.max_prompt_rows = max_prompt_rows

    def _instruction(self) -> str:
        names = {"sql": "SQL", "python": "Python"}
        rendered = " or ".join(
            names.get(lang, lang.capitalize()) for lang in self.languages)
        return (f"Generate {rendered} code step-by-step given the question "
                f"and table to answer the question correctly.")

    def build(self, transcript: Transcript, *,
              force_answer: bool = False) -> str:
        """Build the prompt for the next iteration.

        ``force_answer=True`` appends the leading word ``Answer`` so the
        model must answer directly (the Section 3.3 "other exceptions"
        handler and the Table 7 iteration-limit mechanism).
        """
        parts = []
        if self.few_shot:
            parts.append(self.few_shot.rstrip())
            parts.append("")
        parts.append(_TABLE_MARKER)
        # Cached: T0 (and every unchanged T1..Tk below) renders once per
        # chain instead of once per iteration.
        parts.append(encode_head_row_cached(transcript.t0,
                                            max_rows=self.max_prompt_rows))
        parts.append(
            f'{_QUESTION_MARKER}{transcript.question}". '
            f"{self._instruction()}")
        table_index = 0
        for step in transcript.steps:
            parts.append(format_action(step.action))
            if step.table is not None:
                table_index += 1
                parts.append(f"Intermediate table (T{table_index}):")
                parts.append(encode_head_row_cached(
                    step.table, max_rows=self.max_prompt_rows))
        prompt = "\n".join(parts)
        if force_answer:
            prompt += f"\n{_FORCED_ANSWER_SUFFIX}"
        return prompt


def build_cot_prompt(t0: DataFrame, question: str, *,
                     languages: tuple[str, ...] = ("sql", "python"),
                     max_prompt_rows: int | None = 50) -> str:
    """The Codex-CoT ablation prompt (Section 4.3.1).

    Unlike the ReAcTable template, this asks for *all* the code in one
    completion — no intermediate tables are ever fed back.
    """
    names = {"sql": "SQL", "python": "Python"}
    rendered = " or ".join(
        names.get(lang, lang.capitalize()) for lang in languages)
    return (
        f"{_TABLE_MARKER}\n"
        f"{encode_head_row_cached(t0, max_rows=max_prompt_rows)}\n"
        f'{_QUESTION_MARKER}{question}". '
        f"Generate all the {rendered} code needed to answer the question "
        f"in a single response, thinking step by step, then state the "
        f"final answer."
    )


def build_commented_prompt(t0: DataFrame, question: str, *,
                           languages: tuple[str, ...] = ("sql", "python"),
                           max_prompt_rows: int | None = 50) -> str:
    """The commented-program prompt (the arxiv 2602.00543 strategy).

    Like the CoT prompt this asks for the whole program at once, but in
    *commented* form: a ``#`` comment line describing each step precedes
    its code block.  Spelling out the intent before the code anchors
    each block (and lets the engine keep multi-line blocks together),
    which is the strategy's measurable edge over plain CoT.
    """
    names = {"sql": "SQL", "python": "Python"}
    rendered = " or ".join(
        names.get(lang, lang.capitalize()) for lang in languages)
    return (
        f"{_TABLE_MARKER}\n"
        f"{encode_head_row_cached(t0, max_rows=max_prompt_rows)}\n"
        f'{_QUESTION_MARKER}{question}". '
        f"Generate the complete {rendered} program needed to answer the "
        f"question, writing a {_COMMENTED_INSTRUCTION_HINT} starting "
        f"with '#' before each code block to describe what it does, "
        f"then state the final answer."
    )


@dataclass
class ParsedPrompt:
    """What the simulated model recovers from a prompt string."""

    question: str
    t0: DataFrame
    num_code_steps: int
    current_table: DataFrame
    force_answer: bool
    languages: tuple[str, ...]
    cot: bool = False
    #: The prompt asks for table-evolving operators (chain-of-table).
    chain_of_table: bool = False
    #: The prompt asks for a commented program (commented-code strategy).
    commented: bool = False
    #: Questions of the few-shot demonstrations preceding the live one.
    demo_questions: tuple[str, ...] = ()
    #: The prompt asks for a verbal reflection, not the next action.
    reflect: bool = False
    #: Verbal reflections prepended to a chain re-run (0 = plain chain).
    num_reflections: int = 0
    #: Failure category quoted in a reflection-request prompt ("" outside
    #: reflection requests).
    failure_category: str = ""


def parse_prompt(prompt: str) -> ParsedPrompt:
    """Invert :meth:`PromptBuilder.build` (ignoring few-shot demos)."""
    # The *last* table marker belongs to the live question; everything
    # before it is few-shot demonstration text.
    marker_at = prompt.rfind(_TABLE_MARKER)
    if marker_at == -1:
        raise PromptError("prompt has no table marker")
    body = prompt[marker_at + len(_TABLE_MARKER):]
    demo_questions = _extract_questions(prompt[:marker_at])

    question_at = body.find(_QUESTION_MARKER)
    if question_at == -1:
        raise PromptError("prompt has no question marker")
    t0_text = body[:question_at]
    rest = body[question_at + len(_QUESTION_MARKER):]
    quote_end = rest.find('". ')
    if quote_end == -1:
        raise PromptError("unterminated question quote")
    question = rest[:quote_end]
    after_question = rest[quote_end:]

    # Memoised: every iteration's prompt re-sends the same T0..Tk texts.
    t0 = decode_head_row_cached(t0_text, name="T0")

    languages: list[str] = []
    instruction_line = after_question.split("\n", 1)[0]
    if "SQL" in instruction_line:
        languages.append("sql")
    if "Python" in instruction_line:
        languages.append("python")
    if not languages:
        languages = ["sql", "python"]

    num_code_steps = after_question.count(_INTERMEDIATE_MARKER)
    current_table = t0
    last_marker = after_question.rfind(_INTERMEDIATE_MARKER)
    if last_marker != -1:
        block = after_question[last_marker:]
        lines = block.splitlines()[1:]
        table_lines = []
        for line in lines:
            if line.startswith(("[HEAD]", "[ROW]", "[...]")):
                table_lines.append(line)
            elif table_lines:
                break
        current_table = decode_head_row_cached(
            "\n".join(table_lines), name=f"T{num_code_steps}")

    force_answer = prompt.rstrip().endswith(_FORCED_ANSWER_SUFFIX)
    reflect = prompt.rstrip().endswith(_REFLECTION_SUFFIX)
    failure_category = ""
    if reflect:
        category_match = _FAILURE_CATEGORY.search(body)
        if category_match:
            failure_category = category_match.group(1)
    # Reflections are prepended *before* the few-shot block, so they land
    # in the pre-marker text alongside the demonstrations.
    num_reflections = len(_REFLECTION_LINE.findall(prompt[:marker_at]))
    return ParsedPrompt(
        question=question,
        t0=t0,
        num_code_steps=num_code_steps,
        current_table=current_table,
        force_answer=force_answer,
        languages=tuple(languages),
        cot=_COT_INSTRUCTION_HINT in instruction_line,
        chain_of_table=_OPERATOR_INSTRUCTION_HINT in instruction_line,
        commented=_COMMENTED_INSTRUCTION_HINT in instruction_line,
        demo_questions=demo_questions,
        reflect=reflect,
        num_reflections=num_reflections,
        failure_category=failure_category,
    )


def _extract_questions(text: str) -> tuple[str, ...]:
    """All quoted questions in a block of demonstration text."""
    questions = []
    cursor = 0
    while True:
        start = text.find(_QUESTION_MARKER, cursor)
        if start == -1:
            return tuple(questions)
        start += len(_QUESTION_MARKER)
        end = text.find('". ', start)
        if end == -1:
            return tuple(questions)
        questions.append(text[start:end])
        cursor = end
