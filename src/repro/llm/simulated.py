"""The simulated LLM: a deterministic, seeded stand-in for the GPT models.

The model receives *only the prompt string*, exactly like an API model.  It
re-parses the prompt (question, original table, current intermediate table,
steps taken so far), recovers the gold plan from its question bank (its
"pre-training corpus"), and emits the next action — either the correct
rendering of the next plan step, or a genuinely erroneous variant drawn
from a calibrated error model.  Everything downstream (executors, exception
handling, voting) then operates on real generated code.

Success of each step is a Bernoulli draw whose logit combines:

* the profile's ``skill``;
* the example's latent ``difficulty`` (scaled);
* per-question correlated noise (so repeated samples of a hard question
  fail *together* — without this, majority voting would be implausibly
  effective);
* a **grounding bonus** per intermediate table already produced — the
  paper's core mechanism (Section 4.3.1);
* a CoT penalty when the whole program must be produced in one completion;
* a temperature penalty;
* an extra penalty when a Python-affine step must be attempted in SQL
  (the executor ablation, Section 4.3.3).
"""

from __future__ import annotations

import hashlib
import math
import random

from repro.core.prompt import ParsedPrompt, parse_prompt
from repro.datasets.spec import QuestionBank, TQAExample
from repro.errors import UnknownQuestionError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import Completion, LanguageModel
from repro.llm.profiles import CODEX_SIM, ModelProfile
from repro.plans.corruption import (
    ErrorMode,
    apply_corruption,
    corrupt_code_text,
)
from repro.plans.operators import break_operator, render_operator
from repro.plans.steps import AnswerStep, CodeStep, ExtractStep
from repro.table.frame import DataFrame
from repro.table.schema import is_missing

__all__ = ["SimulatedTQAModel"]


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    expz = math.exp(z)
    return expz / (1.0 + expz)


class SimulatedTQAModel(LanguageModel):
    """Offline stand-in for the completion models the paper uses."""

    def __init__(self, bank: QuestionBank,
                 profile: ModelProfile = CODEX_SIM, *, seed: int = 0):
        self.bank = bank
        self.profile = profile
        self.seed = seed
        self.name = profile.name
        self._draws = 0
        #: ``(uid, ε(q))`` of the last question asked: every probability
        #: of one question reads the same per-question noise.
        self._noise: tuple = (None, 0.0)
        # Private registry for simulating the model's *internal* reasoning
        # about what its CoT code would produce (never shared with agents).
        self._internal: ExecutorRegistry = default_registry(
            sql_backend="sqlite")

    @property
    def supports_logprobs(self) -> bool:
        return self.profile.provides_logprobs

    def fork(self, seed: int) -> "SimulatedTQAModel":
        """A fresh model over the same corpus, reseeded with ``seed``.

        The fork starts with a zero draw counter, so its behaviour
        depends only on ``seed`` and the prompts it sees — never on what
        this instance completed before the fork.
        """
        return SimulatedTQAModel(self.bank, self.profile, seed=seed)

    # --- public API -----------------------------------------------------------

    def complete(self, prompt: str, *, temperature: float = 0.0,
                 n: int = 1) -> list[Completion]:
        parsed = parse_prompt(prompt)
        if parsed.reflect:
            # A reflection request (repro.reflect): write a short verbal
            # diagnosis instead of the next action.
            return self._complete_reflection(parsed, temperature, n)
        try:
            example = self.bank.lookup(parsed.question, parsed.t0)
        except UnknownQuestionError:
            # Out-of-distribution question: the best a model can do is an
            # uncommitted direct answer.
            return [Completion("ReAcTable: Answer: ```unknown```.",
                               self._logprob(False, "oob"))] * n
        # Slots that drew the same draw are one completion: each distinct
        # draw is computed once, in the order the slots first drew it.
        computed: dict[int, Completion] = {}
        completions = []
        for draw in self._slot_draws(example, temperature, n):
            if draw not in computed:
                computed[draw] = self._complete_draw(example, parsed,
                                                     temperature, draw)
            completions.append(computed[draw])
        return completions

    def _complete_draw(self, example: TQAExample, parsed: ParsedPrompt,
                       temperature: float, draw: int) -> Completion:
        """The one completion of ``draw`` in the prompt's mode."""
        if parsed.chain_of_table:
            return self._complete_chain_of_table(example, parsed,
                                                 temperature, draw)
        if parsed.commented:
            return self._complete_commented(example, parsed, temperature,
                                            draw)
        if parsed.cot:
            return self._complete_cot(example, parsed, temperature, draw)
        return self._complete_react(example, parsed, temperature, draw)

    # --- seeding helpers --------------------------------------------------------

    def _next_draw(self, temperature: float) -> int:
        if temperature <= 0:
            return 0  # greedy decoding is deterministic
        self._draws += 1
        return self._draws

    def _slot_draws(self, example: TQAExample, temperature: float,
                    n: int) -> list[int]:
        """The draw of each of ``n`` slots in one call.

        The first slot takes a fresh draw; each later slot is sampled
        independently (a fresh draw) with probability ``batch_diversity``
        and otherwise shares the first slot's draw.
        """
        base_draw = self._next_draw(temperature)
        if n <= 1 or temperature <= 0:
            return [base_draw] * n
        batch_rng = self._rng("batch", example.uid, base_draw)
        return [base_draw] + [
            self._next_draw(temperature)
            if batch_rng.random() < self.profile.batch_diversity
            else base_draw
            for _ in range(n - 1)]

    def _rng(self, *key) -> random.Random:
        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(repr((self.seed, self.profile.name) + key)
                      .encode("utf-8"))
        return random.Random(int.from_bytes(hasher.digest(), "big"))

    def _question_noise(self, example: TQAExample) -> float:
        uid, noise = self._noise
        if uid != example.uid:
            rng = self._rng("qnoise", example.uid)
            noise = rng.gauss(0.0, self.profile.question_noise)
            self._noise = (example.uid, noise)
        return noise

    # --- probability model --------------------------------------------------------

    def _step_probability(self, example: TQAExample, step_index: int, *,
                          grounding: int, cot: bool, temperature: float,
                          sql_fallback: bool,
                          mental: bool = False,
                          demo_similarity: float = 0.0,
                          reflections: int = 0,
                          commented: bool = False) -> float:
        profile = self.profile
        z = profile.skill
        z -= profile.difficulty_scale * example.difficulty
        z -= self._question_noise(example)
        z += profile.demo_affinity * demo_similarity
        z += profile.reflection_bonus * min(reflections, 2)
        if cot:
            penalty = profile.cot_penalty
            if commented:
                # Plan comments scaffold the blind program partially.
                penalty *= max(0.0, 1.0 - profile.commented_relief)
            z -= penalty
            z -= profile.cot_temperature_sensitivity * temperature
        else:
            z += profile.grounding_bonus * min(grounding, 3)
            z -= profile.temperature_sensitivity * temperature
        if sql_fallback:
            z -= profile.sql_fallback_penalty
        if mental:
            z -= profile.mental_penalty
        return _sigmoid(z / profile.sample_noise)

    def _answer_probability(self, example: TQAExample, *,
                            temperature: float, cot: bool,
                            reflections: int = 0,
                            commented: bool = False) -> float:
        profile = self.profile
        z = profile.answer_skill
        z -= profile.difficulty_scale * example.difficulty * 0.55
        z -= self._question_noise(example) * 0.6
        z += profile.reflection_bonus * min(reflections, 2) * 0.5
        if cot:
            penalty = profile.cot_penalty
            if commented:
                penalty *= max(0.0, 1.0 - profile.commented_relief)
            z -= penalty * 0.5
            z -= profile.cot_temperature_sensitivity * temperature * 0.5
        else:
            z -= profile.temperature_sensitivity * temperature * 0.5
        return _sigmoid(z / profile.sample_noise)

    def _demo_similarity(self, example: TQAExample,
                         parsed: ParsedPrompt) -> float:
        """Similarity of the most relevant demonstration, in [0, 1]."""
        if not parsed.demo_questions or self.profile.demo_affinity == 0:
            return 0.0
        from repro.core.fewshot import question_similarity
        return max(question_similarity(example.question, demo)
                   for demo in parsed.demo_questions)

    def _logprob_value(self, correct: bool, rng: random.Random):
        if not self.profile.provides_logprobs:
            return None
        mean = (self.profile.logprob_correct_mean if correct
                else self.profile.logprob_wrong_mean)
        return rng.gauss(mean, self.profile.logprob_std)

    def _logprob(self, correct: bool, *key):
        """``_logprob_value`` over a fresh RNG keyed by ``key``, built
        only when the profile exposes log-probabilities."""
        if not self.profile.provides_logprobs:
            return None
        return self._logprob_value(correct, self._rng(*key))

    # --- ReAct-mode completion ---------------------------------------------------

    def _complete_react(self, example: TQAExample, parsed: ParsedPrompt,
                        temperature: float, draw: int) -> Completion:
        step_index = parsed.num_code_steps
        code_steps = example.plan.code_steps
        if parsed.force_answer or step_index >= len(code_steps):
            return self._emit_answer(example, parsed, temperature, draw)
        # Premature direct answer (more likely at high temperature).
        premature_rng = self._rng("premature", example.uid, step_index,
                                  draw)
        premature_p = self.profile.premature_answer_rate * (1 + temperature)
        if premature_rng.random() < premature_p:
            return self._emit_answer(example, parsed, temperature, draw)
        step = code_steps[step_index]
        sql_fallback = step.language not in parsed.languages
        if sql_fallback and not isinstance(step, ExtractStep):
            # No reasonable SQL surrogate: answer directly instead.
            return self._emit_answer(example, parsed, temperature, draw)
        if sql_fallback:
            # Sometimes the model gives up rather than attempt the awkward
            # SQL reformulation — the Section 4.3.3 "Spain" failure mode.
            giveup = self._rng("giveup", example.uid, step_index, draw)
            if giveup.random() < self.profile.fallback_giveup_rate:
                return self._emit_answer(example, parsed, temperature,
                                         draw)
        probability = self._step_probability(
            example, step_index, grounding=parsed.num_code_steps,
            cot=False, temperature=temperature, sql_fallback=sql_fallback,
            demo_similarity=self._demo_similarity(example, parsed),
            reflections=parsed.num_reflections)
        roll = self._rng("roll", example.uid, step_index, draw)
        correct = roll.random() < probability
        text, language = self._render_step(
            example, step, step_index, parsed.current_table, parsed.t0,
            correct=correct, sql_fallback=sql_fallback)
        label = {"sql": "SQL", "python": "Python"}.get(language,
                                                       language.capitalize())
        completion_text = f"ReAcTable: {label}: ```{text}```."
        logprob = self._logprob(correct, "lp", example.uid, step_index, draw)
        return Completion(completion_text, logprob)

    def _render_step(self, example: TQAExample, step: CodeStep,
                     step_index: int, current: DataFrame, t0: DataFrame,
                     *, correct: bool, sql_fallback: bool) -> tuple[str, str]:
        table_name = current.name or f"T{step_index}"
        if sql_fallback:
            assert isinstance(step, ExtractStep)
            return (self._render_sql_extract(step, table_name,
                                             correct=correct), "sql")
        if correct:
            code = step.render(table_name)
            if step.language == "python":
                quirk = self._rng("quirk", example.uid, step_index)
                if quirk.random() < self.profile.module_quirk_rate:
                    code = corrupt_code_text(
                        code, ErrorMode.MODULE_HALLUCINATION, quirk)
            return code, step.language
        return self._render_corrupted(example, step, step_index, current,
                                      t0, table_name)

    def _render_corrupted(self, example: TQAExample, step: CodeStep,
                          step_index: int, current: DataFrame,
                          t0: DataFrame,
                          table_name: str) -> tuple[str, str]:
        # Corruption content is seeded per (question, step) — NOT per draw —
        # so repeated failures produce the *same* wrong code and therefore
        # the same wrong answer.  This correlation is what keeps majority
        # voting's gains realistic.
        rng = self._rng("corrupt", example.uid, step_index)
        weights = self.profile.error_mode_weights
        modes = list(weights)
        ordering = rng.choices(modes, weights=[weights[m] for m in modes],
                               k=len(modes))
        seen = set()
        for mode in ordering + modes:
            if mode in seen:
                continue
            seen.add(mode)
            if mode is ErrorMode.SYNTAX_ERROR:
                return (corrupt_code_text(step.render(table_name), mode,
                                          rng), step.language)
            if mode is ErrorMode.MODULE_HALLUCINATION:
                if step.language != "python":
                    continue
                # Benign on its own; combine with a wrong constant so the
                # step is still an error.
                damaged = apply_corruption(
                    step, ErrorMode.WRONG_CONSTANT, current=current,
                    original=t0, rng=rng)
                target = damaged if damaged is not None else step
                return (corrupt_code_text(target.render(table_name), mode,
                                          rng), step.language)
            damaged = apply_corruption(step, mode, current=current,
                                       original=t0, rng=rng)
            if damaged is not None:
                return damaged.render(table_name), step.language
        # Every structured mode was inapplicable: break the syntax.
        return (corrupt_code_text(step.render(table_name),
                                  ErrorMode.SYNTAX_ERROR, rng),
                step.language)

    def _render_sql_extract(self, step: ExtractStep, table_name: str, *,
                            correct: bool) -> str:
        """SQL surrogate for a Python regex extraction (SQL-only mode)."""
        offset = "+ 1" if correct else "+ 0"
        source = step.source
        return (
            f"SELECT *, SUBSTR({source}, INSTR({source}, '(') {offset}, "
            f"LENGTH({source}) - INSTR({source}, '(') - 1) "
            f"AS {step.target} FROM {table_name};"
        )

    # --- answers --------------------------------------------------------------------

    def _emit_answer(self, example: TQAExample, parsed: ParsedPrompt,
                     temperature: float, draw: int) -> Completion:
        reading_table = parsed.current_table
        remaining = (len(example.plan.code_steps)
                     - parsed.num_code_steps)
        if remaining > 0:
            # Forced / premature answer: the model runs the remaining steps
            # *in its head* — real reasoning, but at tool-free reliability.
            reading_table = self._mental_execute(
                example, parsed, temperature, draw)
        probability = self._answer_probability(
            example, temperature=temperature, cot=False,
            reflections=parsed.num_reflections)
        roll = self._rng("aroll", example.uid, draw)
        correct = roll.random() < probability
        values = self._derive_answer(example, reading_table)
        if not correct:
            values = self._corrupt_answer(example, values, reading_table)
        text = self._format_answer(example, values, reading_table, draw)
        return Completion(text, self._logprob(correct, "alp", example.uid,
                                              draw))

    def _mental_execute(self, example: TQAExample, parsed: ParsedPrompt,
                        temperature: float, draw: int) -> DataFrame:
        """Simulate the remaining plan steps without tools.

        Each step succeeds with a probability penalised by
        ``mental_penalty`` (no executor, no intermediate feedback); failed
        steps corrupt the imagined table exactly like emitted bad code
        would.  This is why capping the iteration limit at 1 scores close
        to the Codex-CoT baseline (Table 7 vs Table 4).
        """
        tables = [parsed.t0.with_name("T0")]
        if parsed.num_code_steps > 0:
            tables.append(parsed.current_table)
        for step_index in range(parsed.num_code_steps,
                                len(example.plan.code_steps)):
            step = example.plan.code_steps[step_index]
            # Steps the available tools cannot express are also harder
            # to simulate mentally (the model is weak at exactly those
            # operations) — this is what makes the SQL-only ablation bite.
            hard_mentally = step.language not in parsed.languages
            probability = self._step_probability(
                example, step_index, grounding=0, cot=True,
                temperature=temperature, sql_fallback=hard_mentally,
                mental=True)
            roll = self._rng("mroll", example.uid, step_index, draw)
            correct = roll.random() < probability
            code, language = self._render_step(
                example, step, step_index, tables[-1], parsed.t0,
                correct=correct, sql_fallback=False)
            try:
                executor = self._internal.get(language)
                outcome = executor.execute(code, tables)
                tables.append(outcome.table.with_name(
                    f"T{len(tables)}"))
            except Exception:
                pass  # imagined step crashed; reason on with what we have
        return tables[-1]

    def _derive_answer(self, example: TQAExample,
                       current: DataFrame) -> list[str]:
        """Read the answer off whatever table is in front of the model.

        If earlier (corrupted) steps produced a wrong table, the honest
        reading of that table is simply wrong — correctness is emergent.
        """
        try:
            return example.plan.answer_step.derive(current)
        except Exception:
            return [""]

    def _corrupt_answer(self, example: TQAExample, values: list[str],
                        current: DataFrame) -> list[str]:
        rng = self._rng("acorrupt", example.uid)
        kind = example.plan.answer_step.kind
        if kind == "boolean":
            flipped = "no" if values and values[0] == "yes" else "yes"
            return [flipped]
        if not values or not values[0]:
            return ["unknown"]
        choice = rng.random()
        first = values[0]
        if choice < 0.45:
            bumped = _bump_number(first, rng)
            if bumped is not None:
                return [bumped] + values[1:]
        if choice < 0.7 and len(values) > 1:
            return values[:-1]  # drop an element from a list answer
        # Substitute a different cell from the visible table.
        alternatives = [
            str(v) for v in _first_column(current)
            if not is_missing(v) and str(v) != first
        ]
        if alternatives:
            return [rng.choice(alternatives)]
        bumped = _bump_number(first, rng)
        return [bumped if bumped is not None else first + "x"]

    def _format_answer(self, example: TQAExample, values: list[str],
                       reading_table: DataFrame, draw: int) -> str:
        answer_step = example.plan.answer_step
        if answer_step.kind == "sentence":
            joined = self._phrase_sentence(example, values, reading_table,
                                           draw)
        else:
            joined = "|".join(values) if values else "unknown"
            if self.profile.verbose_answer_rate > 0:
                wrap = self._rng("verbose", example.uid, draw)
                if wrap.random() < self.profile.verbose_answer_rate:
                    joined = _verbose_wrap(example.question, values, wrap)
        return f"ReAcTable: Answer: ```{joined}```."

    def _phrase_sentence(self, example: TQAExample, values: list[str],
                         reading_table: DataFrame, draw: int) -> str:
        """Free-form answers are phrased in the model's own words.

        The facts (template slots) come from the table the model is
        looking at; the phrasing is sampled — so even perfectly correct
        FeTaQA answers score ROUGE < 1 against the gold sentence, as real
        system outputs do.
        """
        rng = self._rng("phrase", example.uid, draw)
        style = rng.random()
        if style < 0.10:
            # Sometimes the model's phrasing matches the reference style.
            return values[0] if values else "unknown"
        try:
            slots = example.plan.answer_step.derive_slots(reading_table)
        except Exception:
            slots = []
        if not values or not values[0]:
            return "unknown"
        if not slots:
            return values[0]
        if style < 0.80:
            # Echo the question's own words around the facts: high word
            # overlap with the reference, different word order.
            echoed = _echo_question(example.question, slots, rng)
            if echoed:
                return echoed
        filler = rng.choice((
            "The answer is {0}, with {1}.",
            "It was {0} with {1}.",
            "According to the table, {0} with {1}.",
            "{0}, with a total of {1}.",
        ))
        padded = slots + [""] * 2
        # When the model mis-derived values (corrupted answer), phrase the
        # corrupted values rather than the table slots.
        if values and slots and values[0] and slots[0] not in values[0]:
            padded = [values[0], padded[1] if len(slots) > 1 else ""]
        try:
            return filler.format(*padded)
        except (IndexError, KeyError):
            return values[0]

    # --- reflection-mode completion ------------------------------------------------

    #: Category-specific diagnosis templates; the tail advice is shared.
    _REFLECTION_TEMPLATES = {
        "vote_minority": (
            "The sampled chains disagreed and the winning answer held "
            "only a minority of the votes.",
            "Most chains diverged early, so the majority answer was "
            "weakly supported.",
        ),
        "iteration_cap": (
            "The chain hit its iteration limit before reaching a "
            "final answer.",
            "Too many intermediate steps were spent without converging "
            "on an answer.",
        ),
        "forced_answer": (
            "An execution error forced a direct answer before the plan "
            "finished.",
            "The generated code failed and the chain had to answer "
            "without its intermediate tables.",
        ),
        "executor_error": (
            "The generated code crashed in the executor.",
            "A code step raised instead of producing an intermediate "
            "table.",
        ),
        "empty_answer": (
            "The chain finished without producing any answer values.",
            "No answer could be read off the final table.",
        ),
    }

    def _complete_reflection(self, parsed: ParsedPrompt,
                             temperature: float, n: int) -> list[Completion]:
        """Write a short verbal reflection about a failed run.

        Deterministic per (seed, question, failure category, draw): the
        reflect engine's re-run depends on this text, so the whole
        reflexion cycle stays reproducible.
        """
        try:
            uid = self.bank.lookup(parsed.question, parsed.t0).uid
        except UnknownQuestionError:
            uid = "oob"
        draw = self._next_draw(temperature)
        # Keyed by the number of reflections already prepended so a second
        # reflection on the same failure reads differently from the first.
        rng = self._rng("reflection", uid, parsed.failure_category,
                        parsed.num_reflections, draw)
        diagnoses = self._REFLECTION_TEMPLATES.get(
            parsed.failure_category,
            ("The previous attempt failed before producing a reliable "
             "answer.",))
        advice = rng.choice((
            "Re-check the column names against the table header and "
            "prefer one simple SQL filter per step.",
            "Take smaller steps: filter first, aggregate second, and "
            "verify the intermediate table before answering.",
            "Ground the final answer in the last intermediate table "
            "instead of recalling values from memory.",
        ))
        text = f"{rng.choice(diagnoses)} {advice}"
        return [Completion(text, self._logprob_value(True, rng))] * n

    # --- CoT-mode completion -------------------------------------------------------

    def _complete_cot(self, example: TQAExample, parsed: ParsedPrompt,
                      temperature: float, draw: int) -> Completion:
        """One-shot program generation (the Codex-CoT baseline).

        The model samples every step under the CoT penalty (no grounding),
        simulates execution internally through the real executors, and
        states the answer its own program would produce.
        """
        lines = []
        logprobs = []
        tables = [parsed.t0.with_name("T0")]
        for step_index, step in enumerate(example.plan.code_steps):
            sql_fallback = step.language not in parsed.languages
            if sql_fallback and not isinstance(step, ExtractStep):
                break
            probability = self._step_probability(
                example, step_index, grounding=0, cot=True,
                temperature=temperature, sql_fallback=sql_fallback)
            roll = self._rng("cot-roll", example.uid, step_index, draw)
            correct = roll.random() < probability
            current = tables[-1]
            code, language = self._render_step(
                example, step, step_index, current, parsed.t0,
                correct=correct, sql_fallback=sql_fallback)
            label = {"sql": "SQL", "python": "Python"}[language]
            lines.append(f"ReAcTable: {label}: ```{code}```.")
            logprobs.append(self._logprob(correct, "cot-lp", example.uid,
                                          step_index, draw))
            # Internal simulation of what this code yields (blind: the
            # model never sees the real intermediate tables in CoT mode).
            try:
                executor = self._internal.get(language)
                outcome = executor.execute(code, tables)
                tables.append(outcome.table.with_name(f"T{len(tables)}"))
            except Exception:
                pass  # the imagined program crashed; reason on without it
        answer_p = self._answer_probability(
            example, temperature=temperature, cot=True)
        aroll = self._rng("cot-aroll", example.uid, draw)
        values = self._derive_answer(example, tables[-1])
        if aroll.random() >= answer_p:
            values = self._corrupt_answer(example, values, tables[-1])
        lines.append(self._format_answer(example, values, tables[-1],
                                         draw))
        logprob = None
        present = [lp for lp in logprobs if lp is not None]
        if self.profile.provides_logprobs:
            logprob = (sum(present) / len(present)) if present else (
                self._logprob_value(True, aroll))
        return Completion("\n".join(lines), logprob)

    # --- chain-of-table-mode completion ----------------------------------------

    def _complete_chain_of_table(self, example: TQAExample,
                                 parsed: ParsedPrompt, temperature: float,
                                 draw: int) -> Completion:
        """Next typed operator (the chain-of-table strategy).

        Same per-step Bernoulli model as ReAct mode — grounding bonus
        and all — but the emission vocabulary is the operator algebra:
        a step the vocabulary cannot express makes the model answer
        directly, and an incorrect draw damages the *plan step* and
        re-renders it as a well-formed operator computing the wrong
        thing (plus the occasional outright syntax break).
        """
        step_index = parsed.num_code_steps
        code_steps = example.plan.code_steps
        if parsed.force_answer or step_index >= len(code_steps):
            return self._emit_answer(example, parsed, temperature, draw)
        premature_rng = self._rng("ot-premature", example.uid, step_index,
                                  draw)
        premature_p = self.profile.premature_answer_rate * (1 + temperature)
        if premature_rng.random() < premature_p:
            return self._emit_answer(example, parsed, temperature, draw)
        step = code_steps[step_index]
        operator = render_operator(step)
        if operator is None:
            # Whole-table aggregate / conditional count / diff: the
            # operator vocabulary cannot evolve the table further, so
            # read the answer off what has been built.
            return self._emit_answer(example, parsed, temperature, draw)
        probability = self._step_probability(
            example, step_index, grounding=parsed.num_code_steps,
            cot=False, temperature=temperature, sql_fallback=False,
            demo_similarity=self._demo_similarity(example, parsed),
            reflections=parsed.num_reflections)
        roll = self._rng("ot-roll", example.uid, step_index, draw)
        correct = roll.random() < probability
        if not correct:
            operator = self._corrupt_operator(example, step, step_index,
                                              parsed, operator)
        logprob = self._logprob(correct, "ot-lp", example.uid, step_index,
                                draw)
        return Completion(f"ReAcTable: Operator: ```{operator}```.",
                          logprob)

    def _corrupt_operator(self, example: TQAExample, step: CodeStep,
                          step_index: int, parsed: ParsedPrompt,
                          operator: str) -> str:
        # Same correlation contract as _render_corrupted: corruption
        # content is seeded per (question, step) — never per draw.
        rng = self._rng("ot-corrupt", example.uid, step_index)
        weights = self.profile.error_mode_weights
        modes = list(weights)
        ordering = rng.choices(modes, weights=[weights[m] for m in modes],
                               k=len(modes))
        seen = set()
        for mode in ordering + modes:
            if mode in seen:
                continue
            seen.add(mode)
            if mode is ErrorMode.SYNTAX_ERROR:
                return break_operator(operator, rng)
            if mode is ErrorMode.MODULE_HALLUCINATION:
                continue   # no import surface in operator text
            damaged = apply_corruption(step, mode,
                                       current=parsed.current_table,
                                       original=parsed.t0, rng=rng)
            if damaged is None:
                continue
            rendered = render_operator(damaged)
            if rendered is not None:
                return rendered
        # Every structured mode was inapplicable: break the syntax.
        return break_operator(operator, rng)

    # --- commented-program-mode completion --------------------------------------

    def _complete_commented(self, example: TQAExample,
                            parsed: ParsedPrompt, temperature: float,
                            draw: int) -> Completion:
        """One-shot commented program (the commented-code strategy).

        Structurally the CoT generator with a plan comment preceding
        each block; the comments partially relieve the CoT penalty
        (``commented_relief``) — planning in words before each block is
        a weaker form of the grounding the chain gets from real
        intermediate tables.
        """
        lines = []
        logprobs = []
        tables = [parsed.t0.with_name("T0")]
        for step_index, step in enumerate(example.plan.code_steps):
            sql_fallback = step.language not in parsed.languages
            if sql_fallback and not isinstance(step, ExtractStep):
                break
            probability = self._step_probability(
                example, step_index, grounding=0, cot=True,
                temperature=temperature, sql_fallback=sql_fallback,
                commented=True)
            roll = self._rng("cc-roll", example.uid, step_index, draw)
            correct = roll.random() < probability
            current = tables[-1]
            code, language = self._render_step(
                example, step, step_index, current, parsed.t0,
                correct=correct, sql_fallback=sql_fallback)
            label = {"sql": "SQL", "python": "Python"}[language]
            lines.append(f"# {step.describe()}")
            lines.append(f"ReAcTable: {label}: ```{code}```.")
            logprobs.append(self._logprob(correct, "cc-lp", example.uid,
                                          step_index, draw))
            # Blind internal simulation, exactly like CoT mode.
            try:
                executor = self._internal.get(language)
                outcome = executor.execute(code, tables)
                tables.append(outcome.table.with_name(f"T{len(tables)}"))
            except Exception:
                pass
        answer_p = self._answer_probability(
            example, temperature=temperature, cot=True, commented=True)
        aroll = self._rng("cc-aroll", example.uid, draw)
        values = self._derive_answer(example, tables[-1])
        if aroll.random() >= answer_p:
            values = self._corrupt_answer(example, values, tables[-1])
        lines.append("# state the final answer")
        lines.append(self._format_answer(example, values, tables[-1],
                                         draw))
        logprob = None
        present = [lp for lp in logprobs if lp is not None]
        if self.profile.provides_logprobs:
            logprob = (sum(present) / len(present)) if present else (
                self._logprob_value(True, aroll))
        return Completion("\n".join(lines), logprob)


def _first_column(frame: DataFrame) -> list:
    if frame.num_columns == 0:
        return []
    return frame.column(frame.columns[0]).tolist()


def _bump_number(text: str, rng: random.Random) -> str | None:
    try:
        number = float(text)
    except ValueError:
        return None
    delta = rng.choice((-2, -1, 1, 2))
    if number == int(number):
        return str(int(number) + delta)
    return str(number + delta)


def _echo_question(question: str, slots: list[str],
                   rng: random.Random) -> str | None:
    """Build an answer sentence by echoing the question clause.

    "who recorded the highest points, and how many was it?" with slots
    ("Jamie (BEL)", "115") becomes "Jamie (BEL) recorded the highest
    points with 115." — the typical high-overlap paraphrase real systems
    produce on FeTaQA.
    """
    clause = question.rstrip("?").split(",")[0].strip()
    words = clause.split()
    while words and words[0].lower() in ("who", "which", "what", "by",
                                         "how", "much", "many", "did",
                                         "is", "was"):
        words.pop(0)
    if not words or not slots:
        return None
    # Real paraphrases keep most content words but not the exact runs:
    # drop a quarter of the clause words to break bigram matches.
    kept = [word for word in words if rng.random() >= 0.25]
    if not kept:
        kept = words[:1]
    tail = f" with {slots[1]}" if len(slots) > 1 and slots[1] else ""
    return f"{slots[0]} {' '.join(kept)}{tail}."


def _verbose_wrap(question: str, values: list[str],
                  rng: random.Random) -> str:
    joined = " and ".join(values) if values else "unknown"
    templates = (
        "the answer to the question is {answer}",
        "based on the table, the answer is {answer}",
        "{answer} is the answer according to the data",
    )
    return rng.choice(templates).format(answer=joined)
