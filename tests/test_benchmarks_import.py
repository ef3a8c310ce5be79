"""Every benchmark script must import.

``benchmarks/`` runs outside the tier-1 suite, so deleting an API one of
its scripts uses breaks it silently.  Importing each ``bench_*.py``
(without running it) catches a missing name at once.
"""

import importlib.util
import traceback
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_benchmark_imports(monkeypatch):
    # The scripts import their sibling ``harness`` module.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    scripts = sorted(BENCHMARKS.glob("bench_*.py"))
    assert scripts
    failures = []
    for path in scripts:
        spec = importlib.util.spec_from_file_location(
            f"benchmarks_{path.stem}", path)
        try:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        except Exception:
            failures.append(f"{path.name}:\n{traceback.format_exc()}")
    assert not failures, "\n".join(failures)
