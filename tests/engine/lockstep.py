"""The lock-step batched driver, kept as a test oracle.

This is the old ``repro.engine.BatchScheduler`` minus mid-run admission.
It drives a static set of engines in lock-step ticks: collect every
unfinished engine's model call, merge identical ``(prompt,
temperature)`` pairs into one request with a summed ``n`` (first-seen
order), send the tick as one ``complete_batch`` round-trip, slice the
completions back out in collection order, then drain execute effects.
``tests/aio/test_driver.py`` pins that :class:`repro.aio.AsyncChainDriver`
reproduces these ticks, and so the model's draws, bit for bit.

Do not "improve" this module: its value is being a fixed reference.
"""

from __future__ import annotations

from repro.engine import EffectHandler, ModelResult
from repro.llm.base import CompletionRequest


class LockStepDriver:
    """Drive engines in lock-step ticks, counting ticks and requests."""

    def __init__(self, model, registry):
        self.handler = EffectHandler(model, registry)
        self.ticks = 0
        self.requests = 0

    def run(self, engines):
        engines = list(engines)
        active = [e for e in engines if e.state != "done"]
        while active:
            groups: dict[tuple[str, float], list] = {}
            for engine in active:
                effect = engine.next_effect()
                groups.setdefault((effect.prompt, effect.temperature),
                                  []).append((engine, effect))
            requests = [CompletionRequest(prompt=prompt,
                                          temperature=temperature,
                                          n=sum(e.n for _, e in members))
                        for (prompt, temperature), members in groups.items()]
            batches = self.handler.model_batch(requests)
            self.ticks += 1
            self.requests += len(requests)
            for members, batch in zip(groups.values(), batches):
                offset = 0
                for engine, effect in members:
                    engine.send(ModelResult(
                        tuple(batch[offset:offset + effect.n])))
                    offset += effect.n
            for engine in active:
                while engine.state == "exec":
                    engine.send(self.handler.execute(engine.next_effect()))
                engine.drain_notes()
            active = [e for e in active if e.state != "done"]
        return [engine.result for engine in engines]
