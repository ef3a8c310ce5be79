"""Heterogeneous ensembling: vote across *different* strategies.

Where :class:`~repro.core.voting.SimpleMajorityVoting` reruns one
strategy *n* times at high temperature, the
:class:`HeterogeneousEnsemble` forks one branch per **strategy** — a
react chain, a CoT program, a chain-of-table evolution — and tallies
their answers after pushing each through its own strategy's
answer-extraction contract, so structurally different results become
commensurable votes.  Sampling noise and *approach* diversity are
complementary error models: a question that defeats free-form SQL at any
temperature may fall to typed operators, and majority across approaches
votes the idiosyncratic failures down.

The class wears the same serving interface as the s-vote runner —
``chain_engines`` / ``tally`` / ``model`` / ``registry`` / ``n`` /
``use_scheduler`` — so both servers, the batched chain driver and the
reflexion tier drive it with zero changes.
"""

from __future__ import annotations

from repro.engine.driver import EffectHandler, drive
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import LanguageModel
from repro.strategies.base import EngineRequest
from repro.strategies.registry import get_strategy
from repro.table.frame import DataFrame
from repro.telemetry.spans import span

__all__ = ["HeterogeneousEnsemble"]

#: Each strategy runs once, so branches are greedy by default — the
#: diversity comes from the approaches, not the sampler.
DEFAULT_ENSEMBLE_TEMPERATURE = 0.0


class HeterogeneousEnsemble:
    """One branch per strategy, majority across extracted answers."""

    def __init__(self, model: LanguageModel, strategies, *,
                 registry: ExecutorRegistry | None = None,
                 temperature: float = DEFAULT_ENSEMBLE_TEMPERATURE,
                 max_iterations: int | None = None,
                 use_scheduler: bool = False):
        self.model = model
        self.strategies = tuple(get_strategy(name) for name in strategies)
        self.registry = registry or default_registry()
        self.temperature = temperature
        self.max_iterations = max_iterations
        self.use_scheduler = use_scheduler
        #: Branch count — the servers read this like a voter's n.
        self.n = len(self.strategies)
        #: The envelope external drivers should use: heterogeneous
        #: branches vote, so no branch failure may sink its siblings.
        self.handler_catch = (Exception,)

    def chain_engines(self, table: DataFrame, question: str) -> list:
        """One engine per member strategy, in spec order.

        The external-driver seam (the batched chain driver): drive these
        however you like, then :meth:`tally` the
        results — positional alignment with ``strategies`` carries each
        branch's extraction contract.  Each member's engine gets a prompt
        builder of its own, so the batched driver never steps two
        members as one.
        """
        languages = tuple(self.registry.languages)
        return [
            strategy.build_engine(EngineRequest(
                table=table, question=question, languages=languages,
                temperature=self.temperature,
                max_iterations=self.max_iterations))
            for strategy in self.strategies
        ]

    def tally(self, results):
        """Combine per-branch results into the cross-strategy vote.

        ``results`` aligns positionally with ``strategies``; a ``None``
        entry (a branch the driver dropped) simply does not vote.
        """
        # Imported lazily: repro.core.voting resolves its engines through
        # this package, so a module-level import would be circular.
        from repro.core.voting import (
            VotingResult,
            _normalize_answer_key,
            get_majority,
        )
        answers: list[list[str]] = []
        iterations: list[int] = []
        votes: dict[str, int] = {}
        for strategy, result in zip(self.strategies, results):
            if result is None:
                continue
            answer = list(strategy.extract_answer(result))
            answers.append(answer)
            iterations.append(result.iterations)
            key = _normalize_answer_key(answer)
            votes[key] = votes.get(key, 0) + 1
        winner = get_majority(answers)
        winner_key = _normalize_answer_key(winner)
        winner_iterations = next(
            (it for it, ans in zip(iterations, answers)
             if _normalize_answer_key(ans) == winner_key),
            iterations[0] if iterations else 0)
        return VotingResult(answer=winner, votes=votes,
                            num_chains=len(answers),
                            iterations=winner_iterations)

    def run(self, table: DataFrame, question: str):
        """Run every branch and vote (the blocking serving path)."""
        with span("vote_run", method="ensemble", n=self.n):
            engines = self.chain_engines(table, question)
            if self.use_scheduler:
                # One batched pass over all branches; a branch failure
                # must not sink its siblings, hence the blanket envelope.
                # Imported here for the same cycle as in core.voting.
                from repro.aio.driver import AsyncChainDriver

                driver = AsyncChainDriver(self.model, self.registry,
                                          catch=self.handler_catch)
                results = driver.run_sync(engines)
            else:
                results = []
                for strategy, engine in zip(self.strategies, engines):
                    handler = EffectHandler(self.model, self.registry,
                                            catch=strategy.handler_catch)
                    results.append(drive(engine, handler))
        return self.tally(results)
