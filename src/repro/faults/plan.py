"""Deterministic fault schedules: what fails, where, and when.

A :class:`FaultPlan` is a *pure function* from ``(site, call index)`` to a
fault kind (or ``None``), derived from a seed and a :class:`FaultConfig`
of per-kind rates.  Nothing is mutable and no shared RNG is consumed, so:

* the same seed always injects the same faults at the same calls,
  regardless of worker count or dispatch order (the chaos harness's
  replayability contract);
* at rate zero the plan short-circuits before hashing anything, making a
  zero-rate injector a **pure pass-through** — bit-identical to running
  without the wrappers installed.

Sites are strings naming a boundary: ``"model"`` for LLM completions and
``"executor:<language>"`` for code executors.  The injector wrappers in
:mod:`repro.faults.injectors` keep their own per-instance call counters
and consult the plan once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.retry import seeded_uniform

__all__ = ["MODEL_FAULT_KINDS", "EXECUTOR_FAULT_KINDS", "FaultConfig",
           "FaultPlan"]

#: Fault kinds injectable at the model boundary.
MODEL_FAULT_KINDS = ("transient", "latency", "truncate", "garbage",
                     "wrong_n")
#: Fault kinds injectable at the executor boundary.
EXECUTOR_FAULT_KINDS = ("error", "sandbox", "corrupt")


@dataclass(frozen=True)
class FaultConfig:
    """Per-call fault rates for each boundary and kind.

    Model faults (one draw per ``complete()`` call):

    * ``model_transient`` — raise
      :class:`~repro.errors.TransientModelError` before calling the
      backend (an API 5xx / dropped connection);
    * ``model_latency`` — sleep ``latency_seconds`` before the call (a
      slow backend; trips the :class:`~repro.engine.EffectHandler`'s
      post-round-trip deadline check when a deadline is armed);
    * ``model_truncate`` — cut each completion's text in half (a
      connection dropped mid-stream);
    * ``model_garbage`` — replace completions with unparseable noise;
    * ``model_wrong_n`` — return one completion fewer than requested.

    Executor faults (one draw per ``execute()`` call):

    * ``executor_error`` — raise the language-appropriate
      :class:`~repro.errors.ExecutionError` subclass;
    * ``executor_sandbox`` — raise
      :class:`~repro.errors.SandboxViolationError`;
    * ``executor_corrupt`` — run the code, then silently drop the last
      row of the resulting intermediate table (a corrupted result the
      downstream chain must survive).

    Rates at one boundary must sum to at most 1.
    """

    model_transient: float = 0.0
    model_latency: float = 0.0
    model_truncate: float = 0.0
    model_garbage: float = 0.0
    model_wrong_n: float = 0.0
    executor_error: float = 0.0
    executor_sandbox: float = 0.0
    executor_corrupt: float = 0.0
    #: Injected sleep for ``model_latency`` faults, in seconds.
    latency_seconds: float = 0.05

    def __post_init__(self):
        for name, rate in self._all_rates():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.model_rate > 1.0 + 1e-9:
            raise ValueError("model fault rates sum past 1")
        if self.executor_rate > 1.0 + 1e-9:
            raise ValueError("executor fault rates sum past 1")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")

    def _all_rates(self):
        for kind in MODEL_FAULT_KINDS:
            yield f"model_{kind}", getattr(self, f"model_{kind}")
        for kind in EXECUTOR_FAULT_KINDS:
            yield f"executor_{kind}", getattr(self, f"executor_{kind}")

    @classmethod
    def uniform(cls, rate: float, *,
                latency_seconds: float = 0.05) -> "FaultConfig":
        """Every boundary call faults with probability ``rate``, the
        probability split evenly across that boundary's kinds."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        model_each = rate / len(MODEL_FAULT_KINDS)
        executor_each = rate / len(EXECUTOR_FAULT_KINDS)
        return cls(
            model_transient=model_each, model_latency=model_each,
            model_truncate=model_each, model_garbage=model_each,
            model_wrong_n=model_each,
            executor_error=executor_each,
            executor_sandbox=executor_each,
            executor_corrupt=executor_each,
            latency_seconds=latency_seconds)

    @property
    def model_rate(self) -> float:
        """Total per-call fault probability at the model boundary."""
        return sum(getattr(self, f"model_{kind}")
                   for kind in MODEL_FAULT_KINDS)

    @property
    def executor_rate(self) -> float:
        """Total per-call fault probability at the executor boundary."""
        return sum(getattr(self, f"executor_{kind}")
                   for kind in EXECUTOR_FAULT_KINDS)

    @property
    def key(self) -> str:
        """Canonical config string (cache-fingerprint component)."""
        return ";".join(f"{name}={rate:g}"
                        for name, rate in self._all_rates()) \
            + f";latency={self.latency_seconds:g}"


class FaultPlan:
    """The deterministic per-call fault schedule for one seed."""

    def __init__(self, config: FaultConfig, *, seed: int = 0):
        self.config = config
        self.seed = seed

    def fork(self, seed: int) -> "FaultPlan":
        """The same config rescheduled for an independent seed."""
        return FaultPlan(self.config, seed=seed)

    def _schedule(self, site: str) -> list[tuple[str, float]]:
        if site.startswith("executor"):
            prefix, kinds = "executor", EXECUTOR_FAULT_KINDS
        else:
            prefix, kinds = "model", MODEL_FAULT_KINDS
        return [(kind, getattr(self.config, f"{prefix}_{kind}"))
                for kind in kinds]

    def decide(self, site: str, index: int,
               salt: str = "") -> str | None:
        """Fault kind for call ``index`` at ``site``, or ``None``.

        Pure and stateless: the verdict depends only on
        ``(seed, site, index, salt)`` and the configured rates.  The
        injectors pass the call's *content* (prompt or code) as ``salt``
        so requests sharing one seed still draw independent schedules —
        without it, a fleet of same-seed requests would all fault at the
        same call index, turning a 20% rate into an all-or-nothing cliff.
        With all rates zero for the site, returns ``None`` without
        hashing.
        """
        schedule = self._schedule(site)
        total = sum(rate for _, rate in schedule)
        if total <= 0.0:
            return None
        draw = seeded_uniform(self.seed, site, index, salt)
        cumulative = 0.0
        for kind, rate in schedule:
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def garbage_text(self, site: str, index: int,
                     salt: str = "") -> str:
        """Deterministic unparseable noise for a ``garbage`` fault."""
        token = int(seeded_uniform(self.seed, site, index, salt,
                                   "garbage") * 16 ** 8)
        return f"\x00corrupted-completion-{token:08x}\x00"

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, "
                f"model_rate={self.config.model_rate:g}, "
                f"executor_rate={self.config.executor_rate:g})")
