"""The ReAcTable agent loop (Section 3.1) with exception handling (3.3).

One :meth:`ReActTableAgent.run` call answers one question: it iterates
prompt → LLM → action → executor until the model answers directly, handling
executor exceptions per the paper:

* SQL errors retry over previous tables (inside :class:`SQLExecutor`);
* missing Python modules are installed at runtime (inside
  :class:`PythonExecutor`);
* any other failure **forces** the model to answer by appending the leading
  word ``Answer`` to the prompt.

The same forcing path also absorbs a malformed model response: a backend
that returns an empty completion batch (a mis-sized API response, or the
chaos harness's ``wrong_n`` fault) is treated like an unparseable
completion rather than crashing the chain.  Model *exceptions* propagate —
retrying them is the job of :class:`repro.llm.RetryingModel` and the
serving pool's attempt ladder, which classify them via the failure
taxonomy.

An optional ``max_iterations`` cap reproduces the Table 7 experiment: at
the limit the model is forced to answer the same way.

Since the sans-IO refactor the loop itself lives in
:class:`repro.engine.ChainEngine` and runs through the one tick loop,
:class:`repro.engine.ChainDriver`; this class is the single-chain runner
of every registered strategy (prompt-builder selection, model forking,
telemetry activation).  Its step body, :meth:`ReActTableAgent.steps`,
is what both servers pump.  :data:`HARD_ITERATION_CAP` and
:class:`AgentResult` are re-exported from :mod:`repro.engine` for
back-compat.
"""

from __future__ import annotations

from repro.core.prompt import PromptBuilder
from repro.engine.core import HARD_ITERATION_CAP
from repro.engine.driver import ChainDriver, EffectHandler
from repro.engine.result import AgentResult
from repro.errors import IterationLimitError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import LanguageModel
# Submodule imports (not the package __init__): repro.core and
# repro.strategies import each other's leaves, and going through the
# package would re-enter a partially initialised __init__.
from repro.strategies.base import EngineRequest
from repro.strategies.registry import get_strategy
from repro.table.frame import DataFrame
from repro.telemetry.spans import activate, span

__all__ = ["AgentResult", "HARD_ITERATION_CAP", "ReActTableAgent"]


def _normalize_table_columns(table: DataFrame) -> DataFrame:
    from repro.table.schema import dedupe_column_names, normalize_column_name

    normalized = dedupe_column_names(
        [normalize_column_name(name) for name in table.columns])
    return table.rename(dict(zip(table.columns, normalized)))


class ReActTableAgent:
    """The ReAcTable framework without voting (Algorithm 1's inner loop).

    ``strategy`` names any registered strategy: ``ReActTableAgent(model,
    strategy="cot")`` is the Codex-CoT baseline of Section 4.3.1.
    """

    def __init__(self, model: LanguageModel, *,
                 registry: ExecutorRegistry | None = None,
                 prompt_builder: PromptBuilder | None = None,
                 max_iterations: int | None = None,
                 temperature: float = 0.0,
                 few_shot_selector=None,
                 tracer=None,
                 normalize_columns: bool = False,
                 strategy: str = "react"):
        self.model = model
        self.registry = registry or default_registry()
        # Resolved eagerly so an unknown strategy fails at construction.
        self.strategy = get_strategy(strategy)
        languages = tuple(self.registry.languages)
        #: The agent's explicit builder, if any; ``None`` lets the
        #: strategy's factory apply its own prompt template.
        self._explicit_builder = prompt_builder is not None
        self.prompt_builder = prompt_builder or PromptBuilder(
            languages=languages)
        if max_iterations is not None and max_iterations < 1:
            raise IterationLimitError("max_iterations must be >= 1")
        self.max_iterations = max_iterations
        self.temperature = temperature
        #: Optional :class:`repro.core.fewshot.FewShotSelector` — when
        #: set, demonstrations are retrieved per question instead of the
        #: static block (the §5.4 extension).
        self.few_shot_selector = few_shot_selector
        #: Optional :class:`repro.tracing.ChainTracer` for observability.
        self.tracer = tracer
        #: The Section 3.3 mitigation: normalise T0's column names
        #: (spaces, leading digits, special characters) before the chain,
        #: so generated SQL never trips over exotic headers.  Off by
        #: default — it changes the table the model sees.
        self.normalize_columns = normalize_columns

    @property
    def handler_catch(self) -> tuple:
        """The strategy's exception envelope, for external drivers."""
        return self.strategy.handler_catch

    def _builder_for(self, question: str) -> PromptBuilder:
        if self.few_shot_selector is None:
            return self.prompt_builder
        return PromptBuilder(
            few_shot=self.few_shot_selector.few_shot_text(question),
            languages=self.prompt_builder.languages,
            max_prompt_rows=self.prompt_builder.max_prompt_rows)

    def engine_for(self, table: DataFrame, question: str):
        """A fresh engine for one question, agent-configured.

        The hook chain drivers use: the returned engine carries this
        agent's prompt builder, temperature and iteration caps, ready to
        be driven by a :class:`repro.engine.ChainDriver` alongside
        other chains (without a few-shot selector, engines for one
        question share the agent's builder, so the driver can step them
        as one state).  The engine class itself comes from the strategy
        registry — ``react`` by default, any registered strategy via the
        ``strategy`` constructor knob.
        """
        if self.normalize_columns:
            table = _normalize_table_columns(table)
        builder = self._builder_for(question)
        if (self.strategy.name != "react" and not self._explicit_builder
                and self.few_shot_selector is None):
            # No caller customisation: let the strategy's factory pick
            # its own prompt template (the chain-of-table builder, say)
            # instead of forcing the react default on it.
            builder = None
        return self.strategy.build_engine(EngineRequest(
            table=table, question=question,
            languages=tuple(self.registry.languages),
            temperature=self.temperature,
            max_iterations=self.max_iterations,
            prompt_builder=builder))

    def steps(self, table: DataFrame, question: str, handler):
        """The agent's step body: one chain through the tick loop, in an
        ``agent_run`` span; returns its :class:`AgentResult`.

        Executions run through ``handler``; the servers pump this body
        through their own handler (:meth:`EffectHandler.pump`).
        """
        engine = self.engine_for(table, question)
        chain = None
        if self.tracer is not None:
            chain = self.tracer.start_chain(question)
        with span("agent_run", trace_id=chain) as root:
            if root is not None:
                root.set(question=question[:120])
            (result,) = yield from ChainDriver(
                handler, tracer=self.tracer).steps([engine])
        return result

    def run(self, table: DataFrame, question: str, *,
            seed: int | None = None) -> AgentResult:
        """Answer ``question`` over ``table`` with one reasoning chain.

        ``seed`` makes the run self-contained: the model is forked via
        :meth:`~repro.llm.base.LanguageModel.fork` so the chain's
        randomness depends only on the seed and the question, not on any
        previous run — the hook the serving layer uses for per-request
        reproducibility.
        """
        model = self.model if seed is None else self.model.fork(seed)
        # With a tracer, its telemetry store becomes ambient for the
        # chain; without one, activate(None) leaves any enclosing store
        # (the serving pool's request span) in place.
        telemetry = self.tracer.telemetry if self.tracer is not None else None
        with activate(telemetry):
            handler = EffectHandler(model, self.registry,
                                    catch=self.handler_catch)
            return handler.pump(self.steps(table, question, handler))
