"""Language model protocol.

Anything implementing :class:`LanguageModel` can drive the agents: the
offline :class:`repro.llm.SimulatedTQAModel`, the scripted test model, or a
real API wrapper.  The interface mirrors the completion-style API the paper
used (prompt in, *n* sampled completions out, optional log-probabilities).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = ["Completion", "CompletionRequest", "LanguageModel",
           "ScriptedModel"]


@dataclass(frozen=True)
class Completion:
    """One sampled completion.

    ``logprob`` is the model's total log-probability for the completion,
    or None for models that do not expose scores (the paper notes
    gpt-3.5-turbo does not, which is why execution-based voting is N.A.
    for it).
    """

    text: str
    logprob: float | None = None


@dataclass(frozen=True)
class CompletionRequest:
    """One logical completion request inside a coalesced batch.

    The batched chain driver (:class:`repro.aio.AsyncChainDriver`)
    collects one tick's pending model calls, across its chains, into a
    list of these and submits them through
    :meth:`LanguageModel.complete_batch` — identical prompts are merged
    into a single request with a summed ``n``.
    """

    prompt: str
    temperature: float = 0.0
    n: int = 1


class LanguageModel(abc.ABC):
    """Completion-style language model interface."""

    #: Identifier reported in experiment tables ("codex-sim", ...).
    name: str = "model"

    #: Whether completions carry log-probabilities (needed for e-vote).
    supports_logprobs: bool = True

    @abc.abstractmethod
    def complete(self, prompt: str, *, temperature: float = 0.0,
                 n: int = 1) -> list[Completion]:
        """Sample ``n`` completions for ``prompt`` at ``temperature``."""

    def complete_batch(self, requests) -> "list[list[Completion]]":
        """Sample completions for a batch of requests in one call.

        The batched-serving hook: the default performs the requests
        sequentially (so every model is batch-capable), while backends
        with a real batch endpoint — or latency models simulating one —
        override it to amortise per-call overhead across the batch.
        Returns one completion list per request, in request order.
        """
        return [self.complete(request.prompt,
                              temperature=request.temperature,
                              n=request.n)
                for request in requests]

    def fork(self, seed: int) -> "LanguageModel":
        """A copy of this model reseeded for one independent run.

        Seeded models override this to return a fresh instance whose
        randomness depends only on ``seed`` (the serving layer's
        per-request determinism hook).  Stateless models may return
        ``self`` — the default.
        """
        return self


class ScriptedModel(LanguageModel):
    """A deterministic model replaying a fixed list of completions.

    Used in unit tests to drive the agent through exact scenarios::

        model = ScriptedModel([
            "ReAcTable: SQL: ```SELECT * FROM T0;```.",
            "ReAcTable: Answer: ```42```.",
        ])
    """

    name = "scripted"

    def __init__(self, outputs, *, logprobs=None):
        self._outputs = list(outputs)
        self._logprobs = list(logprobs) if logprobs else None
        self._cursor = 0
        self.prompts: list[str] = []   # every prompt received, for asserts

    def complete(self, prompt: str, *, temperature: float = 0.0,
                 n: int = 1) -> list[Completion]:
        self.prompts.append(prompt)
        batch = []
        for _ in range(n):
            if self._cursor >= len(self._outputs):
                raise IndexError("ScriptedModel ran out of outputs")
            text = self._outputs[self._cursor]
            logprob = None
            if self._logprobs is not None:
                logprob = self._logprobs[self._cursor]
            self._cursor += 1
            batch.append(Completion(text=text, logprob=logprob))
        return batch
