"""Exactness of the simulated model's per-call draw sharing.

Slots of one ``complete(n > 1)`` call that drew the same random draw are
one completion, computed once.  These tests pin that nothing else moved:
the output stream over a seeded corpus of prompts, and one computation per
distinct draw on an s-vote attempt.
"""

import hashlib

import pytest

from repro.core import PromptBuilder, ReActTableAgent, Transcript
from repro.core.prompt import parse_prompt
from repro.core.voting import SimpleMajorityVoting
from repro.datasets import generate_dataset
from repro.datasets.spec import QuestionBank
from repro.executors.registry import sql_only_registry
from repro.llm import PROFILES, SimulatedTQAModel
from repro.llm.base import LanguageModel
from repro.reflect.engine import reflection_prompt
from repro.reflect.harvest import FailureReport

#: SHA-256 of the corpus stream of ``_corpus_digest`` (texts, log-probs
#: and final draw counters under every profile).  Recompute it only for
#: a change that is meant to alter what the model says.
CORPUS_DIGEST = (
    "b96e34b1aabe7e2a324a96b18a888c6c2b72a3ad21ab8c0ac0e1904510432b9c")


class PromptRecorder(LanguageModel):
    """Pass-through model keeping every distinct prompt it was sent."""

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.prompts: dict[str, None] = {}

    def complete(self, prompt, *, temperature=0.0, n=1):
        self.prompts.setdefault(prompt)
        return self.inner.complete(prompt, temperature=temperature, n=n)


@pytest.fixture(scope="module")
def corpus():
    """Prompts of every completion mode over wikitq, tabfact and fetaqa.

    Greedy and s-vote chains of the react (with both executors and
    SQL-only), cot, chain-of-table and commented-code strategies, a
    forced answer at every depth of the greedy chain (mental execution),
    a reflection request and an out-of-bank question.
    """
    bank = QuestionBank()
    examples = [example
                for name in ("wikitq", "tabfact", "fetaqa")
                for example in generate_dataset(name, size=3, seed=5,
                                                bank=bank).examples]
    recorder = PromptRecorder(SimulatedTQAModel(bank, seed=2))
    greedy = ReActTableAgent(recorder)
    strategies = ("cot", "chain-of-table", "commented-code")
    runners = [ReActTableAgent(recorder, strategy=s) for s in strategies]
    runners.append(ReActTableAgent(recorder, registry=sql_only_registry()))
    runners.extend(SimpleMajorityVoting(recorder, n=3, use_scheduler=True,
                                        strategy=s)
                   for s in ("react",) + strategies)
    extra = []
    for example in examples:
        for runner in runners:
            runner.run(example.table, example.question)
        chain = greedy.run(example.table, example.question).transcript
        for depth in range(len(chain.steps) + 1):
            extra.append(PromptBuilder().build(
                Transcript(chain.t0, chain.question, chain.steps[:depth]),
                force_answer=True))
        extra.append(reflection_prompt(
            example.table, example.question,
            FailureReport(category="forced_answer",
                          question=example.question)))
    extra.append(PromptBuilder().build(
        Transcript(examples[0].table, "how many unicorns are listed?")))
    return bank, list(dict.fromkeys(list(recorder.prompts) + extra))


def _corpus_digest(bank, prompts) -> str:
    hasher = hashlib.sha256()
    for name in sorted(PROFILES):
        model = SimulatedTQAModel(bank, PROFILES[name], seed=11)
        for prompt in prompts:
            for n in (1, 2, 5):
                for temperature in (0.0, 0.6):
                    hasher.update(repr([
                        (c.text, None if c.logprob is None
                         else round(c.logprob, 9))
                        for c in model.complete(
                            prompt, temperature=temperature, n=n)
                    ]).encode("utf-8"))
        hasher.update(repr((name, model._draws)).encode("utf-8"))
    return hasher.hexdigest()


class TestOutputStream:
    def test_corpus_covers_every_mode(self, corpus):
        bank, prompts = corpus
        parsed = [parse_prompt(prompt) for prompt in prompts]
        covered = {name for p in parsed
                   for name, flag in (("cot", p.cot),
                                      ("chain-of-table", p.chain_of_table),
                                      ("commented", p.commented),
                                      ("reflect", p.reflect),
                                      ("forced", p.force_answer
                                       and p.num_code_steps > 0),
                                      ("sql-only",
                                       "python" not in p.languages))
                   if flag}
        assert covered == {"cot", "chain-of-table", "commented",
                           "reflect", "forced", "sql-only"}
        unknown = [p for p in parsed if p.question not in {
            e.question for e in bank.examples()}]
        assert len(unknown) == 1

    def test_corpus_digest_is_pinned(self, corpus):
        assert _corpus_digest(*corpus) == CORPUS_DIGEST


class CountingModel(SimulatedTQAModel):
    """Records, per ``complete`` call, the draws consumed and computed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[int, list, list]] = []
        self._drawn: list[int] = []
        self._computed: list[int] = []

    def complete(self, prompt, *, temperature=0.0, n=1):
        self._drawn, self._computed = [], []
        completions = super().complete(prompt, temperature=temperature, n=n)
        self.calls.append((n, self._drawn, self._computed))
        return completions

    def _next_draw(self, temperature):
        draw = super()._next_draw(temperature)
        self._drawn.append(draw)
        return draw

    def _complete_react(self, example, parsed, temperature, draw):
        self._computed.append(draw)
        return super()._complete_react(example, parsed, temperature, draw)

    def _complete_cot(self, example, parsed, temperature, draw):
        self._computed.append(draw)
        return super()._complete_cot(example, parsed, temperature, draw)

    def _complete_commented(self, example, parsed, temperature, draw):
        self._computed.append(draw)
        return super()._complete_commented(example, parsed, temperature,
                                           draw)

    def _complete_chain_of_table(self, example, parsed, temperature, draw):
        self._computed.append(draw)
        return super()._complete_chain_of_table(example, parsed,
                                                temperature, draw)


class TestOneComputationPerDraw:
    @pytest.mark.parametrize("strategy", ["react", "chain-of-table"])
    def test_svote_attempt(self, wikitq_small, strategy):
        model = CountingModel(wikitq_small.bank, seed=4)
        voter = SimpleMajorityVoting(model, n=5, use_scheduler=True,
                                     strategy=strategy)
        for example in wikitq_small.examples[:6]:
            voter.run(example.table, example.question)
        slots = computed = 0
        for n, drawn, per_mode in model.calls:
            # Distinct draws are computed once each, in first-use order.
            assert per_mode == list(dict.fromkeys(drawn))
            slots += n
            computed += len(per_mode)
        assert computed < slots
        assert any(n > 1 for n, _, _ in model.calls)
