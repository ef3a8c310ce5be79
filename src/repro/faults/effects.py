"""Fault injection at the sans-IO effect boundary.

The wrapper injectors (:class:`~repro.faults.injectors.FaultyModel` /
:class:`~repro.faults.injectors.FaultyExecutor`) intercept two different
object protocols at two different places.  With the engine refactor the
whole agent stack funnels its I/O through one seam — the
:class:`repro.engine.EffectHandler` — so chaos can be a single decorator
on that seam instead: :class:`FaultyEffectHandler` consults the same
:class:`~repro.faults.plan.FaultPlan` with the same sites (``"model"``,
``"executor:<language>"``), the same per-site call counters and the same
salts (prompt / code), and applies faults via the shared core in
:mod:`repro.faults.injectors` — so a given plan injects the *identical*
schedule through either style (pinned by
``tests/faults/test_effect_boundary.py``).

Use it by handing a sync engine driver a faulty handler::

    handler = FaultyEffectHandler(EffectHandler(model, registry), plan)
    result = run_chain(engine, handler)

It injects per call only.  Batched drivers inject through the model
instead: :class:`~repro.faults.injectors.FaultyModel`'s default
``complete_batch`` takes one fault draw per logical request.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.engine.driver import EffectHandler
from repro.engine.effects import Execute, ExecResult, ModelCall, ModelResult
from repro.errors import TransientModelError
from repro.faults.injectors import (
    FaultHook,
    apply_completion_fault,
    corrupt_outcome,
    executor_fault_error,
)
from repro.faults.plan import FaultPlan

__all__ = ["FaultyEffectHandler"]


class FaultyEffectHandler:
    """Decorate an :class:`EffectHandler` with scheduled fault injection."""

    def __init__(self, inner: EffectHandler, plan: FaultPlan, *,
                 sleep: Callable = time.sleep,
                 on_fault: FaultHook | None = None):
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self.on_fault = on_fault
        # Per-site call counters, same contract as the wrappers'
        # per-instance ``_calls``.
        self._counters: dict[str, int] = {}

    def _next_index(self, site: str) -> int:
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        return index

    def _notify(self, site: str, kind: str, index: int) -> None:
        if self.on_fault is not None:
            self.on_fault(site, kind, index)

    # --- model boundary ------------------------------------------------------

    def model_call(self, effect: ModelCall) -> ModelResult:
        site = "model"
        index = self._next_index(site)
        kind = self.plan.decide(site, index, salt=effect.prompt)
        if kind is None:
            return self.inner.model_call(effect)
        self._notify(site, kind, index)
        if kind == "transient":
            raise TransientModelError(
                f"injected transient backend failure (call {index})")
        if kind == "latency":
            self._sleep(self.plan.config.latency_seconds)
            return self.inner.model_call(effect)
        reply = self.inner.model_call(effect)
        return ModelResult(tuple(apply_completion_fault(
            kind, reply.completions, self.plan, site, index,
            salt=effect.prompt)))

    # --- executor boundary ----------------------------------------------------

    def execute(self, effect: Execute) -> ExecResult:
        site = f"executor:{effect.language}"
        index = self._next_index(site)
        kind = self.plan.decide(site, index, salt=effect.code)
        if kind is None:
            return self.inner.execute(effect)
        self._notify(site, kind, index)
        if kind in ("error", "sandbox"):
            error = executor_fault_error(kind, effect.language,
                                         effect.code, index)
            if isinstance(error, self.inner.catch):
                return ExecResult(error=error)
            raise error
        # corrupt: execute for real, then silently damage the result.
        result = self.inner.execute(effect)
        if result.outcome is None:
            return result
        return ExecResult(outcome=corrupt_outcome(result.outcome))
