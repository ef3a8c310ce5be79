"""Lint the vector kernels: no per-row execution inside ``vector.py``.

``src/repro/sqlengine/vector.py`` exists to execute column-at-a-time;
its whole speedup story collapses if someone "fixes" a kernel by
iterating rows through the interpreter (the result stays bit-identical
— the differential suite would never notice — but the perf gate's
speedup floors quietly erode).  This lint greps the module for the row-oriented
idioms that would smuggle per-row work back in:

* ``for row in`` / ``.iter_rows(`` / ``.to_rows(`` — row iteration;
* ``RowContext(`` — the row-at-a-time evaluator context;
* ``.cell(`` — single-cell access inside what should be a column pass;
* ``evaluate(`` — dispatching the interpreter from inside the vector
  tier (fallback is the *executor's* job, so each stage degrades
  all-or-nothing instead of row-by-row).

Heuristics are line-based and deliberately simple, like the repo's
other lints, but docstring prose is skipped (the module documents the
forbidden idioms by name); ``# lint: allow-row-loop`` on the line
silences a finding that is genuinely safe (none are today).

Runs standalone (``python tools/lint_vector.py``, exits non-zero on a
violation) and as a tier-1 test via ``tests/test_lint_vector.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

VECTOR = (Path(__file__).resolve().parent.parent
          / "src" / "repro" / "sqlengine" / "vector.py")

#: ``(pattern, message)`` — a match on a code line is a finding.
_ROW_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bfor\s+row\s+in\b"),
     "per-row loop (vector kernels operate on whole columns)"),
    (re.compile(r"\.iter_rows\("),
     "row iteration (gather column slices instead)"),
    (re.compile(r"\.to_rows\("),
     "row materialisation (vector kernels return columns)"),
    (re.compile(r"\bRowContext\("),
     "row-at-a-time evaluator context inside the vector tier"),
    (re.compile(r"\.cell\("),
     "single-cell access (read Column.values once, not cell-by-cell)"),
    (re.compile(r"(?<!\.)\bevaluate\("),
     "interpreter dispatch inside the vector tier (the executor owns "
     "fallback, all-or-nothing per stage)"),
]

_SUPPRESS = "# lint: allow-row-loop"


def _code_lines(text: str):
    """Yield ``(number, line)`` for code lines, skipping docstring prose.

    Triple-quote tracking is a line-based toggle — good enough for this
    repo's style (no triple-quoted data strings in the vector module).
    """
    in_doc = False
    for number, line in enumerate(text.splitlines(), start=1):
        quotes = line.count('"""') + line.count("'''")
        if in_doc:
            if quotes % 2:
                in_doc = False
            continue
        if quotes % 2:
            in_doc = True
            continue                    # opening docstring line
        stripped = line.lstrip()
        if quotes and stripped.startswith(('"""', "'''")):
            continue                    # one-line docstring
        yield number, line


def scan_file(path: Path) -> list[str]:
    violations = []
    try:
        relpath = path.relative_to(
            VECTOR.parent.parent.parent.parent).as_posix()
    except ValueError:          # outside the repo (test fixtures)
        relpath = path.name
    for number, line in _code_lines(path.read_text(encoding="utf-8")):
        stripped = line.lstrip()
        if stripped.startswith("#") or _SUPPRESS in line:
            continue
        for pattern, message in _ROW_PATTERNS:
            if pattern.search(line):
                violations.append(f"{relpath}:{number}: {message}")
    return violations


def find_violations(path: Path = VECTOR) -> list[str]:
    """Row-at-a-time violations in the vector module, one line each."""
    return scan_file(path)


def main() -> int:
    violations = find_violations()
    for line in violations:
        print(f"lint_vector: {line}", file=sys.stderr)
    if violations:
        print(f"lint_vector: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_vector: no per-row execution inside the vector kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
