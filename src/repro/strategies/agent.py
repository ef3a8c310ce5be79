"""StrategyAgent: one question, any registered strategy.

The strategy-generic counterpart of :class:`~repro.core.ReActTableAgent`
— resolve a strategy by name, build its engine through the registry,
pump it with the generic :func:`~repro.engine.driver.drive` loop (which
handles both the alternating chain shape and the CoT shape's multiple
execute effects per model call).  It exposes the same serving surface as
the specialised agents: ``model`` / ``registry`` attributes (the worker
pool wraps ``model`` in a deadline guard) and an ``engine_for`` hook
(the async server's greedy chain path builds engines through it).
"""

from __future__ import annotations

from repro.engine.driver import EffectHandler, drive
from repro.engine.result import AgentResult
from repro.errors import IterationLimitError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import LanguageModel
from repro.strategies.base import EngineRequest
from repro.strategies.registry import get_strategy
from repro.table.frame import DataFrame
from repro.telemetry.spans import span

__all__ = ["StrategyAgent"]


class StrategyAgent:
    """A single reasoning chain of any registered strategy."""

    def __init__(self, model: LanguageModel, *,
                 strategy: str = "react",
                 registry: ExecutorRegistry | None = None,
                 temperature: float = 0.0,
                 max_iterations: int | None = None):
        self.model = model
        self.registry = registry or default_registry()
        # Resolve eagerly so an unknown name fails at construction, not
        # on the first request.
        self.strategy = get_strategy(strategy)
        if max_iterations is not None and max_iterations < 1:
            raise IterationLimitError("max_iterations must be >= 1")
        self.max_iterations = max_iterations
        self.temperature = temperature

    def engine_for(self, table: DataFrame, question: str):
        """A fresh engine for one question, strategy-configured."""
        return self.strategy.build_engine(EngineRequest(
            table=table, question=question,
            languages=tuple(self.registry.languages),
            temperature=self.temperature,
            max_iterations=self.max_iterations))

    def run(self, table: DataFrame, question: str, *,
            seed: int | None = None) -> AgentResult:
        """Answer ``question`` over ``table`` with one chain.

        Same per-request reproducibility contract as the ReAcTable
        agent: ``seed`` forks the model so the chain's randomness is
        self-contained.
        """
        model = self.model if seed is None else self.model.fork(seed)
        engine = self.engine_for(table, question)
        with span("agent_run", strategy=self.strategy.name) as root:
            if root is not None:
                root.set(question=question[:120])
            handler = EffectHandler(model, self.registry,
                                    catch=self.strategy.handler_catch)
            return drive(engine, handler)
