"""Lint the observability vocabulary: every emitted kind must be declared.

``repro.telemetry.kinds`` is the closed registry of span and event kinds
— ``repro trace summary``, the docs, and any dashboard filter on these
strings, so an undeclared kind emitted somewhere in the tree is data that
silently falls out of every query.  This lint greps the source tree for
emission sites:

* ``tracer.emit("kind", ...)`` / ``tracer.emit_for(chain, "kind", ...)``
  / ``telemetry.event("kind", ...)`` — flat event kinds;
* ``self._trace(chain, "kind", ...)`` — the serving ladder's helper, which
  prefixes ``serving_``;
* ``trace("kind", ...)`` — the reflexion rung's injected trace callback,
  bound by the request ladder to its ``serving_``-prefixing helper;
* ``span("kind", ...)`` / ``telemetry.span("kind", ...)`` — span kinds;

and fails on any string literal not present in ``telemetry.KINDS``
(span kinds must additionally be in ``SPAN_KINDS``, event kinds in
``EVENT_KINDS``, so a span kind cannot be emitted as an event and vice
versa).

Runs standalone (``python tools/lint_events.py``, exits non-zero on a
violation) and as a tier-1 test via ``tests/test_lint_events.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (pattern, vocabulary, transform) triples.  Each regex captures the
#: kind literal in group 1; ``transform`` maps the literal to the kind
#: actually recorded.
_EMIT_PATTERNS: list[tuple[re.Pattern, str, str]] = [
    # tracer.emit("kind", ...) — but not emit_for, matched separately.
    (re.compile(r"\.emit\(\s*['\"]([a-z_]+)['\"]"), "event", ""),
    # tracer.emit_for(chain, "kind", ...)
    (re.compile(r"\.emit_for\(\s*[^,()]+,\s*['\"]([a-z_]+)['\"]"),
     "event", ""),
    # telemetry.event("kind", ...)
    (re.compile(r"\.event\(\s*['\"]([a-z_]+)['\"]"), "event", ""),
    # ladder._trace(chain, "kind", ...) — the helper adds the prefix.
    (re.compile(r"\._trace\(\s*[^,()]+,\s*['\"]([a-z_]+)['\"]"),
     "event", "serving_"),
    # trace("kind", ...) — the ReflectionRung's injected callback, which
    # the request ladder binds to its ``serving_``-prefixing _trace helper.
    (re.compile(r"(?<![._\w])trace\(\s*['\"]([a-z_]+)['\"]"),
     "event", "serving_"),
    # span("kind", ...) and telemetry.span("kind", ...).
    (re.compile(r"\bspan\(\s*['\"]([a-z_]+)['\"]"), "span", ""),
]


def find_violations() -> list[str]:
    """Undeclared emitted kinds, one human-readable line each."""
    from repro.telemetry.kinds import EVENT_KINDS, SPAN_KINDS

    vocabularies = {"event": EVENT_KINDS, "span": SPAN_KINDS}
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for line_number, line in enumerate(text.splitlines(), start=1):
            for pattern, vocabulary, prefix in _EMIT_PATTERNS:
                for match in pattern.finditer(line):
                    kind = prefix + match.group(1)
                    if kind not in vocabularies[vocabulary]:
                        relative = path.relative_to(SRC.parent.parent)
                        violations.append(
                            f"{relative}:{line_number}: emits "
                            f"undeclared {vocabulary} kind {kind!r} "
                            f"(declare it in repro.telemetry.kinds)")
    return violations


def main() -> int:
    violations = find_violations()
    for line in violations:
        print(f"lint_events: {line}", file=sys.stderr)
    if violations:
        print(f"lint_events: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_events: every emitted span/event kind is declared in "
          "repro.telemetry.kinds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
