"""Lint the event loop: no blocking calls inside the async serving core.

``src/repro/aio/`` is cooperative — one blocked coroutine stalls every
request on the loop.  The dangerous calls are easy to write and silent
in tests (a 4 ms ``time.sleep`` passes every assertion and destroys tail
latency in production), so this lint greps the package for known
blocking primitives:

* ``time.sleep(`` — blocks the loop thread; use ``asyncio.sleep``;
* ``queue.Queue`` / ``.get(timeout`` / ``threading.Condition`` /
  ``.wait(`` — thread-blocking synchronisation; use asyncio primitives;
* synchronous ``.complete(`` / ``.complete_batch(`` model calls — the
  loop would block for a whole round-trip; await the
  :class:`repro.aio.adapter.AsyncLanguageModel` protocol instead
  (``aio/adapter.py`` itself is exempt: it *is* the sync bridge, which
  runs compute-only models inline);
* ``requests.`` / ``urllib.request`` / ``socket.create_connection`` —
  blocking network I/O.

Heuristics are line-based and deliberately simple, like the repo's other
lints; ``# lint: allow-blocking`` on the line silences a finding that is
genuinely safe (none are today).

Runs standalone (``python tools/lint_async.py``, exits non-zero on a
violation) and as a tier-1 test via ``tests/test_lint_async.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

AIO = Path(__file__).resolve().parent.parent / "src" / "repro" / "aio"

#: ``(pattern, message)`` — a match anywhere on a code line is a finding.
_BLOCKING_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\btime\.sleep\("),
     "time.sleep() blocks the event loop (use asyncio.sleep)"),
    (re.compile(r"\bqueue\.Queue\b"),
     "queue.Queue blocks consumer threads (use asyncio queues/futures)"),
    (re.compile(r"\bthreading\.(Lock|RLock|Condition|Event|Semaphore)\b"),
     "threading synchronisation blocks the loop (single-threaded loop "
     "code needs none; cross-thread handoff goes through "
     "call_soon_threadsafe)"),
    (re.compile(r"\.get\(\s*timeout\s*="),
     "blocking .get(timeout=...) (await an asyncio primitive instead)"),
    (re.compile(r"\brequests\.(get|post|request|Session)\b"),
     "blocking HTTP I/O (implement the model as an AsyncLanguageModel)"),
    (re.compile(r"\burllib\.request\b"),
     "blocking HTTP I/O (implement the model as an AsyncLanguageModel)"),
    (re.compile(r"\bsocket\.create_connection\b"),
     "blocking socket I/O (use asyncio streams)"),
]

#: Synchronous model-boundary calls: ``await``-less ``.complete*(``.
_SYNC_COMPLETE = re.compile(r"\.complete(?:_batch)?\(")

#: Files allowed to touch the sync model protocol (the bridge itself).
_SYNC_BRIDGE_FILES = {"adapter.py"}

_SUPPRESS = "# lint: allow-blocking"


def _sync_model_call(line: str) -> bool:
    """A ``.complete*(`` call not awaited and not an async def/header."""
    if not _SYNC_COMPLETE.search(line):
        return False
    before = line[:_SYNC_COMPLETE.search(line).start()]
    # ``await x.complete(...)`` and ``async def complete...`` are the
    # async protocol; ``self.inner.complete`` only appears in the bridge.
    return "await" not in before and "def " not in before


def scan_file(path: Path) -> list[str]:
    violations = []
    try:
        relpath = path.relative_to(AIO.parent.parent.parent).as_posix()
    except ValueError:          # outside the repo (test fixtures)
        relpath = path.name
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#") or _SUPPRESS in line:
            continue
        for pattern, message in _BLOCKING_PATTERNS:
            if pattern.search(line):
                violations.append(f"{relpath}:{number}: {message}")
        if path.name not in _SYNC_BRIDGE_FILES and _sync_model_call(line):
            violations.append(
                f"{relpath}:{number}: synchronous model completion call "
                f"on the event loop (await the AsyncLanguageModel "
                f"protocol)")
    return violations


def find_violations(root: Path = AIO) -> list[str]:
    """Blocking-call violations in the async core, one line each."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(scan_file(path))
    return violations


def main() -> int:
    violations = find_violations()
    for line in violations:
        print(f"lint_async: {line}", file=sys.stderr)
    if violations:
        print(f"lint_async: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_async: no blocking calls inside the async serving core")
    return 0


if __name__ == "__main__":
    sys.exit(main())
