"""The three majority-voting mechanisms of Section 3.4.

* :class:`SimpleMajorityVoting` — Algorithm 1: run the whole chain *n*
  times at high temperature, take the most frequent answer.
* :class:`TreeExplorationVoting` — Algorithm 2: sample *n* continuations at
  every step, explore every branch, majority over leaf answers.
* :class:`ExecutionBasedVoting` — Algorithm 3: sample *n* continuations per
  step, execute each, merge predictions whose executions produce
  *equivalent* tables by max log-probability, and commit the single
  highest-scoring prediction as the next step.

All three return an :class:`AgentResult`-compatible summary via
:class:`VotingResult`.

Since the sans-IO refactor the voters are *branch-forking drivers* over
:class:`repro.engine.ChainEngine`: step logic (prompt assembly, action
execution, ``T<k>`` table naming) comes from the engine's branch
primitives and forked branches are engine :meth:`clone`\\ s, while the
voting policy — who votes, what merges, which branch is committed — stays
here.  Every model call now runs through the
:class:`repro.engine.EffectHandler`'s ``model_call`` telemetry span, so
voted runs get the same token attribution and cost fold-up as single
chains (they used to bypass the spans and under-report).  Each ``run``
is wrapped in a ``vote_run`` span carrying the method name.

:class:`SimpleMajorityVoting` runs each chain through the tick loop
(:class:`repro.engine.ChainDriver`): one loop per chain by default, or,
with ``use_scheduler=True`` (the serving pool sets it under
``batch_scheduler=True``), one loop of all *n* chains.  That loop
coalesces identical pending prompts across chains into single batched
completions, and since the chains start from one prompt builder it
steps those in the same state as one engine.
"""

from __future__ import annotations

from collections import deque

from dataclasses import dataclass, field

from repro.core.actions import ActionKind, parse_action
from repro.core.agent import HARD_ITERATION_CAP, ReActTableAgent
from repro.engine.core import ChainEngine
from repro.engine.driver import ChainDriver, EffectHandler
from repro.errors import ActionParseError, ModelError, StrategyError
from repro.executors.registry import ExecutorRegistry, default_registry
from repro.llm.base import LanguageModel
from repro.strategies.base import EngineRequest
from repro.strategies.registry import get_strategy
from repro.table.compare import table_fingerprint
from repro.table.frame import DataFrame
from repro.telemetry.spans import span

__all__ = [
    "VotingResult",
    "get_majority",
    "SimpleMajorityVoting",
    "TreeExplorationVoting",
    "ExecutionBasedVoting",
    "make_voter",
]

#: The paper's settings: temperature 0.6, five samples.
DEFAULT_VOTE_TEMPERATURE = 0.6
DEFAULT_VOTE_SAMPLES = 5


@dataclass
class VotingResult:
    """Outcome of a voted run."""

    answer: list[str]
    votes: dict[str, int] = field(default_factory=dict)
    num_chains: int = 0
    iterations: int = 0        # iterations of the winning/first chain

    @property
    def answer_text(self) -> str:
        return "|".join(self.answer)


def _normalize_answer_key(values: list[str]) -> str:
    return "|".join(" ".join(v.split()).strip().lower() for v in values)


def get_majority(answers: list[list[str]]) -> list[str]:
    """Most frequent answer (first-seen breaks ties), per the paper."""
    counts: dict[str, int] = {}
    representative: dict[str, list[str]] = {}
    order: list[str] = []
    for answer in answers:
        key = _normalize_answer_key(answer)
        if key not in counts:
            counts[key] = 0
            representative[key] = answer
            order.append(key)
        counts[key] += 1
    if not order:
        return []
    best = max(order, key=lambda key: counts[key])
    return representative[best]


def _sample_count(n: int) -> int:
    """``n`` itself; a vote needs at least one chain or sample."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n


def _branching_strategy(name: str, voter: str):
    """Resolve a strategy for a branch-forking voter, or refuse.

    Tree- and execution-based voting fork the search tree through the
    engine's clone/prompt_effect/execute_effect primitives; a
    single-completion strategy has no branches to fork.
    """
    strategy = get_strategy(name)
    if not strategy.supports_branching:
        raise StrategyError(
            f"strategy {strategy.name!r} does not support branch "
            f"primitives; {voter} voting needs a chain-family strategy")
    return strategy


class SimpleMajorityVoting:
    """Algorithm 1: n independent chains, majority answer.

    ``use_scheduler=True`` switches from n sequential agent runs to one
    :class:`~repro.engine.ChainDriver` loop driving all n chains in
    lock-step with coalesced model calls.  Same voting policy, one
    batched round-trip per tick instead of one call per chain step.
    """

    def __init__(self, model: LanguageModel, *,
                 registry: ExecutorRegistry | None = None,
                 temperature: float = DEFAULT_VOTE_TEMPERATURE,
                 n: int = DEFAULT_VOTE_SAMPLES,
                 max_iterations: int | None = None,
                 use_scheduler: bool = False,
                 strategy: str = "react"):
        self.model = model
        self.registry = registry or default_registry()
        self.strategy = get_strategy(strategy)
        self.temperature = temperature
        self.n = _sample_count(n)
        self.max_iterations = max_iterations
        self.use_scheduler = use_scheduler

    @property
    def handler_catch(self) -> tuple:
        """The strategy's exception envelope, for external drivers."""
        return self.strategy.handler_catch

    def _agent(self) -> ReActTableAgent:
        return ReActTableAgent(
            self.model, registry=self.registry,
            temperature=self.temperature,
            max_iterations=self.max_iterations,
            strategy=self.strategy.name)

    def run(self, table: DataFrame, question: str) -> VotingResult:
        with span("vote_run", method="s-vote", n=self.n):
            if self.use_scheduler:
                handler = EffectHandler(self.model, self.registry,
                                        catch=self.handler_catch)
                results = ChainDriver(handler).run(
                    self.chain_engines(table, question))
            else:
                agent = self._agent()
                results = [agent.run(table, question)
                           for _ in range(self.n)]
        return self.tally(results)

    def chain_engines(self, table: DataFrame,
                      question: str) -> list[ChainEngine]:
        """The voter's *n* independent chains as sans-IO engines.

        The seam for external drivers (the tick loop here and in the
        async server): drive these however you like,
        then combine the results with :meth:`tally` — same voting policy,
        any sequencing.  The engines share one prompt builder, which
        lets the batched driver step chains in the same state once.
        """
        agent = self._agent()
        return [agent.engine_for(table, question) for _ in range(self.n)]

    def tally(self, results) -> VotingResult:
        """Combine per-chain :class:`AgentResult`\\ s into the vote.

        Answers pass through the strategy's extraction contract first,
        so a non-default strategy votes in its own normal form.
        """
        extract = self.strategy.extract_answer
        return self._tally([list(extract(r)) for r in results],
                           [r.iterations for r in results])

    def _tally(self, answers: list[list[str]],
               iterations: list[int]) -> VotingResult:
        votes: dict[str, int] = {}
        for answer in answers:
            key = _normalize_answer_key(answer)
            votes[key] = votes.get(key, 0) + 1
        winner = get_majority(answers)
        winner_key = _normalize_answer_key(winner)
        # Report the iteration count of the first chain that produced the
        # winning answer (used by the Figure 4 histogram).
        winner_iterations = next(
            (it for it, ans in zip(iterations, answers)
             if _normalize_answer_key(ans) == winner_key),
            iterations[0] if iterations else 0)
        return VotingResult(answer=winner, votes=votes,
                            num_chains=self.n,
                            iterations=winner_iterations)


class TreeExplorationVoting:
    """Algorithm 2: fanout-n reasoning tree, majority over leaves.

    ``max_branches`` bounds the frontier so adversarial inputs cannot blow
    the tree up exponentially (the paper's chains are ≤5 deep, so the
    default is never hit in practice).
    """

    def __init__(self, model: LanguageModel, *,
                 registry: ExecutorRegistry | None = None,
                 temperature: float = DEFAULT_VOTE_TEMPERATURE,
                 n: int = DEFAULT_VOTE_SAMPLES,
                 max_branches: int = 256,
                 max_depth: int = HARD_ITERATION_CAP,
                 strategy: str = "react"):
        self.model = model
        self.registry = registry or default_registry()
        self.strategy = _branching_strategy(strategy, "tree-exploration")
        self.temperature = temperature
        self.n = _sample_count(n)
        self.max_branches = max_branches
        self.max_depth = max_depth

    def run(self, table: DataFrame, question: str) -> VotingResult:
        # Branches prune (rather than force) on any execution failure, so
        # the handler swallows every exception class.
        handler = EffectHandler(self.model, self.registry,
                                catch=(Exception,))
        root = self.strategy.build_engine(EngineRequest(
            table=table, question=question,
            languages=tuple(self.registry.languages),
            temperature=self.temperature, n=self.n))
        queue: deque[ChainEngine] = deque([root])
        answers: list[list[str]] = []
        votes: dict[str, int] = {}
        expanded = 0
        first_depths: dict[str, int] = {}
        with span("vote_run", method="t-vote", n=self.n):
            while queue:
                branch = queue.popleft()
                depth = branch.depth
                # Force an answer at the depth cap, and also once the
                # branch budget is spent — a pruned branch should still
                # vote rather than vanish.
                force = (depth + 1 >= self.max_depth
                         or expanded >= self.max_branches)
                reply = handler.model_call(branch.prompt_effect(force=force))
                for completion in reply.completions:
                    try:
                        action = parse_action(completion.text)
                    except ActionParseError:
                        continue
                    if action.kind == ActionKind.ANSWER or force:
                        answer = (action.answer_values
                                  if action.kind == ActionKind.ANSWER
                                  else [])
                        answers.append(answer)
                        key = _normalize_answer_key(answer)
                        votes[key] = votes.get(key, 0) + 1
                        first_depths.setdefault(key, depth + 1)
                        continue
                    if expanded >= self.max_branches:
                        continue
                    result = handler.execute(branch.execute_effect(action))
                    if result.outcome is None:
                        # A failed branch contributes nothing (the
                        # single-chain agent would force an answer; the
                        # tree simply prunes).
                        continue
                    child = branch.clone()
                    child.apply(action, result.outcome.table)
                    queue.append(child)
                    expanded += 1
        winner = get_majority(answers)
        return VotingResult(
            answer=winner, votes=votes, num_chains=len(answers),
            iterations=first_depths.get(_normalize_answer_key(winner), 1))


class ExecutionBasedVoting:
    """Algorithm 3: per-step sampling with execution-equivalence merging."""

    def __init__(self, model: LanguageModel, *,
                 registry: ExecutorRegistry | None = None,
                 temperature: float = DEFAULT_VOTE_TEMPERATURE,
                 n: int = DEFAULT_VOTE_SAMPLES,
                 max_depth: int = HARD_ITERATION_CAP,
                 strategy: str = "react"):
        if not model.supports_logprobs:
            raise ModelError(
                f"execution-based voting needs log-probabilities, which "
                f"{model.name} does not provide")
        self.model = model
        self.registry = registry or default_registry()
        self.strategy = _branching_strategy(strategy, "execution-based")
        self.temperature = temperature
        self.n = _sample_count(n)
        self.max_depth = max_depth

    def run(self, table: DataFrame, question: str) -> VotingResult:
        # Non-executing code never wins a vote: swallow everything.
        handler = EffectHandler(self.model, self.registry,
                                catch=(Exception,))
        engine = self.strategy.build_engine(EngineRequest(
            table=table, question=question,
            languages=tuple(self.registry.languages),
            temperature=self.temperature, n=self.n))
        iterations = 0
        with span("vote_run", method="e-vote", n=self.n):
            while True:
                iterations += 1
                force = iterations >= self.max_depth
                reply = handler.model_call(
                    engine.prompt_effect(force=force))
                # Score log: group key -> (score, representative
                # prediction).
                groups: dict[object, dict] = {}
                for completion in reply.completions:
                    try:
                        action = parse_action(completion.text)
                    except ActionParseError:
                        continue
                    logprob = (completion.logprob
                               if completion.logprob is not None else -1e9)
                    if action.kind == ActionKind.ANSWER:
                        key = ("answer",
                               _normalize_answer_key(action.answer_values))
                        entry = groups.setdefault(
                            key, {"score": logprob, "action": action,
                                  "table": None})
                    elif force:
                        continue
                    else:
                        result = handler.execute(
                            engine.execute_effect(action))
                        if result.outcome is None:
                            continue  # non-executing code never wins
                        key = ("table",
                               table_fingerprint(result.outcome.table))
                        entry = groups.setdefault(
                            key, {"score": logprob, "action": action,
                                  "table": result.outcome.table})
                    # Merge equivalent predictions by max log-probability.
                    entry["score"] = max(entry["score"], logprob)
                if not groups:
                    return VotingResult(answer=[], num_chains=self.n,
                                        iterations=iterations)
                best = max(groups.values(),
                           key=lambda entry: entry["score"])
                action = best["action"]
                if action.kind == ActionKind.ANSWER:
                    return VotingResult(
                        answer=action.answer_values,
                        votes={str(key): 1 for key in groups},
                        num_chains=self.n,
                        iterations=iterations)
                engine.apply(action, best["table"])


def make_voter(kind: str, model: LanguageModel, **kwargs):
    """Factory: ``"none" | "s-vote" | "t-vote" | "e-vote"`` → runner.

    ``"none"`` returns a greedy single-chain :class:`ReActTableAgent`.
    Every runner accepts ``strategy=<registered name>`` (default
    ``"react"``); the branch-forking voters refuse single-completion
    strategies with a :class:`~repro.errors.StrategyError`.
    """
    if kind in ("none", "greedy"):
        kwargs.pop("temperature", None)
        kwargs.pop("n", None)
        kwargs.pop("use_scheduler", None)
        return ReActTableAgent(model, temperature=0.0, **kwargs)
    if kind in ("s-vote", "simple"):
        return SimpleMajorityVoting(model, **kwargs)
    if kind in ("t-vote", "tree"):
        kwargs.pop("max_iterations", None)
        kwargs.pop("use_scheduler", None)
        return TreeExplorationVoting(model, **kwargs)
    if kind in ("e-vote", "execution"):
        kwargs.pop("max_iterations", None)
        kwargs.pop("use_scheduler", None)
        return ExecutionBasedVoting(model, **kwargs)
    raise ValueError(f"unknown voting kind {kind!r}")
