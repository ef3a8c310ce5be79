"""The sans-IO chain engine and its drivers.

One step core — :class:`ChainEngine` — owns the paper's reasoning loop
(prompt assembly, action parsing, the Section 3.3 error-forcing ladder,
iteration caps, transcript bookkeeping) as a pure state machine that
yields typed effects instead of performing I/O.  Everything that used to
re-implement the loop is now a driver over this core:

* :class:`ChainDriver` — the one tick loop: runs any number of engines,
  of any strategy, in lock-step ticks, coalescing pending model calls
  into batched ``complete_batch`` round-trips and stepping chains in the
  same state once.  :class:`repro.core.ReActTableAgent` runs each chain
  through it;
* the tree and execution voters — branch-forking step bodies that
  :meth:`ChainEngine.clone` engine state;
* :class:`EffectHandler` — performs the effects, and pumps any runner's
  step body (:meth:`EffectHandler.pump`); the async handler awaits the
  same bodies.

See ``docs/architecture.md`` §10 for the effect-flow diagram.
"""

from repro.engine.chain_of_table import (
    ChainOfTableEngine,
    ChainOfTablePromptBuilder,
)
from repro.engine.commented import CommentedCodeEngine
from repro.engine.core import HARD_ITERATION_CAP, ChainEngine
from repro.engine.cot import CoTEngine
from repro.engine.driver import ChainDriver, EffectHandler
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.engine.result import AgentResult

__all__ = [
    "HARD_ITERATION_CAP",
    "AgentResult",
    "ChainEngine",
    "ChainOfTableEngine",
    "ChainOfTablePromptBuilder",
    "CommentedCodeEngine",
    "CoTEngine",
    "ModelCall",
    "Execute",
    "ModelResult",
    "ExecResult",
    "EffectHandler",
    "ChainDriver",
]
