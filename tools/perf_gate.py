#!/usr/bin/env python
"""Run the performance benchmark suite and regression gate.

Times the vectorized SQL tier against the interpreter, the
prompt-encoding cache against cold encoding, and the plan cache against
re-parsing;
enforces the speedup floors; writes/compares the checked-in baseline at
``results/BENCH_perf_substrates.json``; exits non-zero on any failure.

Usage::

    python tools/perf_gate.py                 # full gate vs baseline
    python tools/perf_gate.py --check-only    # correctness smoke only
    python tools/perf_gate.py --update-baseline
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.gate import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
