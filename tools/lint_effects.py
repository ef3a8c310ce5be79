"""Lint the sans-IO boundary: model/executor I/O only behind the engine.

The engine refactor moved every model completion and code execution in
the agent stack behind :class:`repro.engine.EffectHandler` — that is
what makes chains batchable, chaos-injectable and uniformly cost-
attributed.  The boundary erodes silently if a driver reaches around
the handler and calls ``model.complete(...)`` or
``executor.execute(...)`` directly, so this lint greps the source tree
for such call sites outside the allowed homes:

* ``repro/engine/`` — the drivers themselves;
* ``repro/llm/`` — the model package (wrappers delegate to ``inner``);
* ``repro/executors/`` — the executor package;
* ``repro/faults/`` — injector wrappers delegating to wrapped objects;
* ``repro/serving/policy.py`` — the ``DeadlineModel`` wrapper;
* ``repro/plans/`` — the gold-plan infrastructure (its ``plan.execute``
  pipeline is not agent I/O, but its helpers drive executors directly);
* ``repro/aio/adapter.py`` / ``repro/aio/handler.py`` — the async model
  boundary (the adapter bridges sync models; the handler is the async
  ``EffectHandler``).  The rest of ``repro/aio/`` must go through them.

Heuristics, deliberately simple (like ``lint_events.py``): a
``.complete(`` / ``.complete_batch(`` attribute call marks the model
boundary; a ``<receiver>.execute(`` call marks the executor boundary
when the receiver name contains ``executor`` or is ``registry`` —
``plan.execute`` (query plans) and ``cursor.execute`` (sqlite) pass.

One more rule holds everywhere, the homes above included: a
``.next_effect(`` call steps a chain engine, and only the tick loop in
``repro/engine/driver.py`` may do that, so every chain gets its
``iteration`` span and its tracer notes from one place.

Runs standalone (``python tools/lint_effects.py``, exits non-zero on a
violation) and as a tier-1 test via ``tests/test_lint_effects.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Paths (relative to ``src/repro``, '/'-separated) where direct model
#: or executor calls are legitimate.
ALLOWED_PREFIXES = (
    "engine/",
    "llm/",
    "executors/",
    "faults/",
    "plans/",
    "serving/policy.py",
    "aio/adapter.py",
    "aio/handler.py",
)

#: The one module allowed to step chain engines.
PUMP_MODULE = "engine/driver.py"

_MODEL_CALL = re.compile(r"\.complete(?:_batch)?\(")
_PUMP_CALL = re.compile(r"\.next_effect\(")
_EXECUTE_CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*execute\(")


def _executor_receiver(name: str) -> bool:
    """Does this receiver name look like a code executor?"""
    return "executor" in name.lower() or name == "registry"


def scan_lines(relpath: str, lines) -> list[str]:
    """Violations in one file's lines (already known to be disallowed)."""
    violations = []
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            continue
        if _MODEL_CALL.search(line):
            violations.append(
                f"{relpath}:{number}: direct model completion call "
                f"(route it through repro.engine.EffectHandler)")
            continue
        match = _EXECUTE_CALL.search(line)
        if match and _executor_receiver(match.group(1)):
            violations.append(
                f"{relpath}:{number}: direct executor call "
                f"(route it through repro.engine.EffectHandler)")
    return violations


def scan_pump_lines(relpath: str, lines) -> list[str]:
    """Engine-stepping calls in one file outside :data:`PUMP_MODULE`."""
    if relpath == PUMP_MODULE:
        return []
    return [f"{relpath}:{number}: engine stepped outside the tick loop "
            f"(run the chain through repro.engine.ChainDriver)"
            for number, line in enumerate(lines, start=1)
            if not line.lstrip().startswith("#")
            and _PUMP_CALL.search(line)]


def find_violations(root: Path = SRC) -> list[str]:
    """Sans-IO boundary violations, one human-readable line each."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        violations.extend(scan_pump_lines(relpath, lines))
        if any(relpath == prefix or relpath.startswith(prefix)
               for prefix in ALLOWED_PREFIXES):
            continue
        violations.extend(scan_lines(relpath, lines))
    return violations


def main() -> int:
    violations = find_violations()
    for line in violations:
        print(f"lint_effects: {line}", file=sys.stderr)
    if violations:
        print(f"lint_effects: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_effects: all model/executor I/O flows through the "
          "sans-IO effect boundary, and only the tick loop steps engines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
