"""Deterministic fault injection (the chaos-engineering subsystem).

Everything the robustness story rests on: seeded per-call fault schedules
(:mod:`~repro.faults.plan`), injector wrappers for the model and executor
boundaries (:mod:`~repro.faults.injectors`), and a spec harness that
installs them behind the serving pool (:mod:`~repro.faults.harness`).
Schedules are pure functions of ``(seed, site, call index)`` — chaos runs
replay bit-identically, and a zero-rate injector is a pure pass-through.

Drive it from the CLI: ``python -m repro chaos wikitq --rates 0,0.05,0.2``.
"""

from repro.faults.harness import FaultyAgentSpec
from repro.faults.injectors import FaultyExecutor, FaultyModel
from repro.faults.plan import (
    EXECUTOR_FAULT_KINDS,
    MODEL_FAULT_KINDS,
    FaultConfig,
    FaultPlan,
)

__all__ = [
    "MODEL_FAULT_KINDS",
    "EXECUTOR_FAULT_KINDS",
    "FaultConfig",
    "FaultPlan",
    "FaultyModel",
    "FaultyExecutor",
    "FaultyAgentSpec",
]
