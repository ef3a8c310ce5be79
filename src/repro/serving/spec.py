"""Agent specifications: recipes for building per-request agents.

Workers never share agents.  Each request is answered by a fresh runner
built from an :class:`AgentSpec` with the request's seed, so every model
holds its own draw state and executor registry — the property that makes
pool results independent of worker count and dispatch order.  Any object
with the same ``build`` / ``build_forced`` / ``config_key`` surface can
stand in for :class:`AgentSpec` (tests use stubs with scripted models).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agent import ReActTableAgent
from repro.core.voting import (
    DEFAULT_VOTE_SAMPLES,
    DEFAULT_VOTE_TEMPERATURE,
    make_voter,
)
from repro.datasets.spec import QuestionBank
from repro.executors.registry import default_registry, sql_only_registry
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedTQAModel

__all__ = ["AgentSpec"]


@dataclass(frozen=True)
class AgentSpec:
    """Everything needed to build one request's agent, minus the seed.

    Mirrors the knobs of the ``evaluate`` CLI: model profile, voting
    method and sample count, executor-registry flavour, and the optional
    iteration cap.  ``bank`` is the simulated model's question corpus.
    """

    bank: QuestionBank
    profile: str = "codex-sim"
    voting: str = "none"
    samples: int = DEFAULT_VOTE_SAMPLES
    temperature: float = DEFAULT_VOTE_TEMPERATURE
    sql_only: bool = False
    sql_backend: str = "sqlite"
    max_iterations: int | None = None
    #: A registered strategy name.
    strategy: str = "react"

    @property
    def config_key(self) -> str:
        """Canonical config string, part of every cache fingerprint."""
        return ("profile={};voting={};samples={};temperature={};"
                "sql_only={};sql_backend={};max_iterations={};"
                "strategy={}").format(
            self.profile, self.voting, self.samples, self.temperature,
            self.sql_only, self.sql_backend, self.max_iterations,
            self.strategy)

    def _model(self, seed: int) -> SimulatedTQAModel:
        return SimulatedTQAModel(self.bank, get_profile(self.profile),
                                 seed=seed)

    def _registry(self):
        if self.sql_only:
            return sql_only_registry()
        return default_registry(sql_backend=self.sql_backend)

    def build(self, seed: int):
        """A fresh runner (agent or voter) seeded per request."""
        kwargs = {"registry": self._registry()}
        if self.strategy != "react":
            kwargs["strategy"] = self.strategy
        if self.max_iterations is not None:
            kwargs["max_iterations"] = self.max_iterations
        if self.voting not in ("none", "greedy"):
            kwargs["n"] = self.samples
            kwargs["temperature"] = self.temperature
        return make_voter(self.voting, self._model(seed), **kwargs)

    def build_forced(self, seed: int) -> ReActTableAgent:
        """The degradation runner: one iteration, forced direct answer.

        Always the react ladder regardless of ``strategy``: forcing is a
        chain-engine capability, and the degraded rung's contract is "one
        model call, direct answer" for every strategy.
        """
        return ReActTableAgent(self._model(seed),
                               registry=self._registry(),
                               max_iterations=1)
