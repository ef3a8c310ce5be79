"""The reflect engine: one Reflexion cycle over the sans-IO chain engine.

A cycle is one step body (:meth:`ReflectEngine.steps`, see
:mod:`repro.engine.driver`) with two model-facing phases, both round
trips through the standard :class:`~repro.engine.driver.EffectHandler`
seam, so deadline enforcement, fault injection and per-span token
attribution all apply unchanged:

1. **Reflect** — build a reflection-request prompt from the
   :class:`~repro.reflect.harvest.FailureReport` (plus any prior
   reflections recalled from :class:`~repro.reflect.memory.\
ReflectionMemory`), and send it as one round trip inside a
   ``reflection`` span.  The completion text is the verbal reflection; it
   is committed to memory before the re-run.
2. **Re-run** — rebuild the spec's chain engines and drive them with the
   engine's ``prompt_hook`` installed, so every assembled prompt carries
   the reflections block prepended ahead of the few-shot demonstrations.
   Greedy runners re-run one chain; s-vote runners re-run all *n* chains
   and re-tally.  Runners without a chain-engine seam (tree/execution
   voters, which re-sample per step) raise
   :class:`~repro.errors.ReflectionUnsupportedError` — the ladder skips
   the rung.

The request ladder pumps the body through its server's handler;
:meth:`ReflectEngine.run` pumps it through a sync one.  Everything is
keyed off the caller's seed: the spec builds a fresh seeded runner, the
reflection text is a deterministic function of (model seed, question,
failure category, prior-reflection count), and the re-run consumes the
model's draws exactly like a first-class attempt — so a reflected
response is reproducible bit-for-bit.
"""

from __future__ import annotations

from repro.core.prompt import (
    _QUESTION_MARKER,
    _REFLECTION_HEADER,
    _REFLECTION_SUFFIX,
    _TABLE_MARKER,
)
from repro.engine.driver import ChainDriver, EffectHandler
from repro.errors import ReflectionUnsupportedError
from repro.llm.base import CompletionRequest
from repro.perf.encode_cache import encode_head_row_cached
from repro.reflect.harvest import FailureReport, describe
from repro.reflect.memory import ReflectionMemory
from repro.table.frame import DataFrame
from repro.telemetry.spans import span

__all__ = ["ReflectEngine", "inject_reflections", "reflection_prompt"]


def inject_reflections(prompt: str, reflections: tuple[str, ...]) -> str:
    """Prepend the reflections block ahead of a fully-built prompt.

    The block lands *before* the few-shot demonstrations, so
    ``parse_prompt``'s last-marker scan still finds the live question and
    counts the ``Reflection k:`` lines as preamble.
    """
    if not reflections:
        return prompt
    lines = [_REFLECTION_HEADER]
    lines.extend(f"Reflection {index}: {text}"
                 for index, text in enumerate(reflections, start=1))
    return "\n".join(lines) + "\n\n" + prompt


def reflection_prompt(table: DataFrame, question: str,
                      report: FailureReport,
                      prior: tuple[str, ...] = (), *,
                      max_prompt_rows: int | None = 50) -> str:
    """The reflection-request prompt: table, question, evidence, ask."""
    parts = [
        _TABLE_MARKER,
        encode_head_row_cached(table, max_rows=max_prompt_rows),
        f'{_QUESTION_MARKER}{question}". Generate SQL or Python code '
        "step-by-step given the question and table to answer the "
        "question correctly.",
        describe(report),
        "Write one short reflection diagnosing the failure and a plan to "
        "answer correctly next time.",
        _REFLECTION_SUFFIX,
    ]
    return inject_reflections("\n".join(parts), prior)


class ReflectEngine:
    """Drive one reflect-and-re-run cycle against a spec's runner."""

    def __init__(self, spec, *, memory: ReflectionMemory | None = None):
        self.spec = spec
        self.memory = memory if memory is not None else ReflectionMemory()

    def runner(self, seed: int):
        """The spec's runner for ``seed``, refused without a chain-engine
        seam to re-run with reflections."""
        runner = self.spec.build(seed)
        supported = (hasattr(runner, "engine_for")
                     or (hasattr(runner, "chain_engines")
                         and hasattr(runner, "tally")))
        if not supported:
            raise ReflectionUnsupportedError(
                f"runner {type(runner).__name__} exposes no chain-engine "
                f"seam to re-run with reflections")
        return runner

    def run(self, table: DataFrame, question: str, *, seed: int,
            report: FailureReport, deadline: float | None = None,
            index: int = 1):
        """One full cycle; returns the re-run's result.

        ``seed`` seeds the fresh runner (reflection call and re-run
        share its model, so fault plans and deadline checks cover both);
        ``deadline`` is the absolute cutoff on the handler seam.
        """
        runner = self.runner(seed)
        # Honour the runner's exception envelope: CoT-family chains
        # expect non-execution errors contained, not raised.
        handler = EffectHandler(runner.model, runner.registry,
                                deadline=deadline,
                                catch=runner.handler_catch)
        return handler.pump(self.steps(runner, table, question, handler,
                                       report=report, index=index))

    def steps(self, runner, table: DataFrame, question: str, handler, *,
              report: FailureReport, index: int = 1):
        """One cycle's step body over ``runner``; returns the re-run's
        result.  ``index`` is the 1-based reflection number within the
        request, recorded on the ``reflect_run`` span."""
        with span("reflect_run", index=index, category=report.category):
            prior = self.memory.recall(table, question)
            prompt = reflection_prompt(table, question, report, prior)
            with span("reflection", category=report.category):
                (completions,) = yield [CompletionRequest(prompt=prompt)]
            reflection = (completions[0].text.strip() if completions
                          else "") or (
                f"The previous attempt failed ({report.category}); take "
                f"smaller, verified steps this time.")
            self.memory.remember(table, question, reflection)
            reflections = prior + (reflection,)

            def hook(prompt: str) -> str:
                return inject_reflections(prompt, reflections)

            return (yield from self._rerun(runner, table, question, hook,
                                           handler))

    def _rerun(self, runner, table: DataFrame, question: str, hook,
               handler: EffectHandler):
        """Re-run the chain(s) with the reflections hook installed.

        Each chain runs in its own tick loop, one after another, so the
        model's draws follow the order of the sequential voter.
        """
        driver = ChainDriver(handler)
        if hasattr(runner, "chain_engines"):
            engines = runner.chain_engines(table, question)
            for engine in engines:
                engine.prompt_hook = hook
            with span("vote_run", method="s-vote", n=runner.n):
                results = []
                for engine in engines:
                    results += yield from driver.steps([engine])
            return runner.tally(results)
        engine = runner.engine_for(table, question)
        engine.prompt_hook = hook
        with span("agent_run", trace_id=None) as root:
            if root is not None:
                root.set(question=question[:120])
            (result,) = yield from driver.steps([engine])
            return result
