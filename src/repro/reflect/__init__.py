"""``repro.reflect`` — the Reflexion tier: self-correcting retries.

Three pieces, mirroring the paper's actor/evaluator/self-reflection
split mapped onto this repo's sans-IO engine:

* :mod:`repro.reflect.harvest` — the evaluator: turn a failed run (or
  the exception that ended it) into a typed :class:`FailureReport`.
* :mod:`repro.reflect.memory` — the episodic buffer: verbal reflections
  keyed by ``(table_digest, question)``.
* :mod:`repro.reflect.engine` — the actor loop, one step body: generate
  a reflection as one round trip through the ``EffectHandler`` seam,
  then re-run the chain engines with the reflections block injected via
  the engine's ``prompt_hook``.

The serving ladder consumes this package through
:class:`repro.serving.ladder.ReflectionRung`.
"""

from repro.reflect.engine import (
    ReflectEngine,
    inject_reflections,
    reflection_prompt,
)
from repro.reflect.harvest import (
    CATEGORIES,
    FailureReport,
    describe,
    harvest_exception,
    harvest_result,
)
from repro.reflect.memory import ReflectionMemory

__all__ = [
    "CATEGORIES",
    "FailureReport",
    "ReflectEngine",
    "ReflectionMemory",
    "describe",
    "harvest_exception",
    "harvest_result",
    "inject_reflections",
    "reflection_prompt",
]
