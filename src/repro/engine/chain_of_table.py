"""Sans-IO engine for the Chain-of-Table strategy (arxiv 2401.04398).

Chain-of-Table evolves the *table* instead of writing free-form code:
each completion names one typed operator (``select_rows`` /
``add_column`` / ``group`` / ``sort``), the operator is applied, and the
evolved table is fed back — the same progressive-grounding mechanism as
ReAcTable, with a constrained action vocabulary.

The engine subclasses :class:`~repro.engine.core.ChainEngine` and
overrides exactly one seam: :meth:`ChainOfTableEngine._stage` *lowers*
an operator action into the plan step it denotes, whose rendered
SQL/Python becomes a standard :class:`~repro.engine.effects.Execute`
effect.  Everything else — the forcing ladder, transcript bookkeeping,
iteration caps, clone semantics for branch-forking voters — is
inherited, so every existing driver (``run_chain``, the batched chain
driver, the voters) drives this engine unchanged.

An operator that does not parse or does not lower is handled like an
unusable completion: the event is logged and the chain forces a direct
answer (the Section 3.3 ladder, one rung earlier).
"""

from __future__ import annotations

from repro.core.actions import Action
from repro.core.prompt import (
    _OPERATOR_INSTRUCTION_HINT,
    _QUESTION_MARKER,
    _TABLE_MARKER,
    PromptBuilder,
)
from repro.engine.core import ChainEngine
from repro.engine.effects import Execute
from repro.errors import OperatorParseError
from repro.plans.operators import OPERATOR_NAMES, parse_operator
from repro.plans.steps import CodeStep

__all__ = [
    "OPERATOR_ACTION_KIND",
    "ChainOfTablePromptBuilder",
    "ChainOfTableEngine",
    "DEFAULT_OPERATOR_FEW_SHOT",
]

#: The action head operator completions carry (``ReAcTable: Operator:``).
#: ``parse_action`` passes unknown kinds through lowercased, so no parser
#: changes are needed to speak this vocabulary.
OPERATOR_ACTION_KIND = "operator"


def _default_operator_few_shot() -> str:
    """The running example of the paper, worked in operator form."""
    return (
        f"{_TABLE_MARKER}\n"
        "[HEAD]:Rank|Cyclist|Team|Points\n"
        "[ROW] 1: 1|Alejandro Valverde (ESP)|Caisse d'Epargne|40\n"
        "[ROW] 2: 2|Alexandr Kolobnev (RUS)|Team CSC Saxo Bank|30\n"
        "[ROW] 3: 10|David Moncoutie (FRA)|Cofidis|NULL\n"
        f"{_QUESTION_MARKER}which country had the most cyclists finish "
        "within the top 10?\". Evolve the table step-by-step, applying "
        "one table-evolving operator per step (select_rows, add_column, "
        "group, sort), to answer the question correctly.\n"
        "ReAcTable: Operator: ```select_rows(condition=Rank <= 10; "
        "columns=Cyclist)```.\n"
        "Intermediate table (T1):\n"
        "[HEAD]:Cyclist\n"
        "[ROW] 1: Alejandro Valverde (ESP)\n"
        "[ROW] 2: Alexandr Kolobnev (RUS)\n"
        "[ROW] 3: David Moncoutie (FRA)\n"
        "ReAcTable: Operator: ```add_column(source=Cyclist; "
        "target=Country; pattern=\\((\\w+)\\))```.\n"
        "Intermediate table (T2):\n"
        "[HEAD]:Cyclist|Country\n"
        "[ROW] 1: Alejandro Valverde (ESP)|ESP\n"
        "[ROW] 2: Alexandr Kolobnev (RUS)|RUS\n"
        "[ROW] 3: David Moncoutie (FRA)|FRA\n"
        "ReAcTable: Operator: ```group(key=Country; agg=count; "
        "desc=true; limit=1)```.\n"
        "Intermediate table (T3):\n"
        "[HEAD]:Country|COUNT(*)\n"
        "[ROW] 1: ESP|1\n"
        "ReAcTable: Answer: ```ESP```.\n"
    )


DEFAULT_OPERATOR_FEW_SHOT = _default_operator_few_shot()


class ChainOfTablePromptBuilder(PromptBuilder):
    """The Figure-2 template with the operator instruction and few-shot."""

    def __init__(self, *, few_shot: str | None = None,
                 max_prompt_rows: int | None = 50):
        super().__init__(
            few_shot=(DEFAULT_OPERATOR_FEW_SHOT if few_shot is None
                      else few_shot),
            languages=("sql", "python"),
            max_prompt_rows=max_prompt_rows)

    def _instruction(self) -> str:
        return (f"Evolve the table step-by-step, applying "
                f"{_OPERATOR_INSTRUCTION_HINT} per step "
                f"({', '.join(OPERATOR_NAMES)}), to answer the "
                f"question correctly.")


class ChainOfTableEngine(ChainEngine):
    """One Chain-of-Table reasoning chain as a pure state machine."""

    def _lower(self, action: Action) -> tuple[CodeStep | None, str]:
        """Lower an operator action to a plan step; ``(None, why)`` fails."""
        if action.kind != OPERATOR_ACTION_KIND:
            return None, f"unexpected action kind {action.kind!r}"
        try:
            return parse_operator(action.payload).to_step(), ""
        except OperatorParseError as exc:
            return None, str(exc)

    def _current_table_name(self) -> str:
        current = self.transcript.tables[-1]
        return current.name or f"T{self.transcript.num_code_steps}"

    def _stage(self, action: Action) -> None:
        step, error = self._lower(action)
        if step is None:
            # Same contract as an execution failure: log and force.
            self.events.append(f"unusable operator ({error}); "
                               f"forcing answer")
            self._note("operator_fault", self.iterations, error=error)
            self._forced = True
            return
        self._pending_action = action
        self._pending = Execute(language=step.language,
                                code=step.render(
                                    self._current_table_name()),
                                tables=tuple(self.transcript.tables),
                                iteration=self.iterations)
        self._state = "exec"

    def execute_effect(self, action: Action) -> Execute:
        """Branch-mode lowering for the forking voters.

        An operator that does not lower falls back to the raw payload
        under its ``operator`` language tag — no such executor exists,
        so the handler reports a missing executor and the branch prunes
        (tree voting) or scores nothing (execution voting), the same
        fate as non-executing code.
        """
        step, _ = self._lower(action)
        if step is None:
            return super().execute_effect(action)
        return Execute(language=step.language,
                       code=step.render(self._current_table_name()),
                       tables=tuple(self.transcript.tables),
                       iteration=self.depth + 1)
