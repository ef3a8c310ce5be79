"""Performance layer: shared content fingerprinting, the prompt-encoding
cache, and the benchmark regression gate.

This package holds the cross-cutting pieces of the PR-3 performance work
that do not belong to one substrate:

* :mod:`repro.perf.fingerprint` — the single content-hash scheme shared
  by the serving answer cache and the prompt-encoding cache;
* :mod:`repro.perf.encode_cache` — memoised ``encode_head_row`` keyed by
  table fingerprint and ``decode_head_row`` keyed by table text
  (``REPRO_ENCODE_CACHE=0`` disables both);
* :mod:`repro.perf.gate` — runs the perf benchmark suite, writes
  ``results/BENCH_perf_substrates.json`` and fails on regression.

The sqlengine-specific pieces (plan cache, vector kernels) live in
:mod:`repro.sqlengine`.
"""

from repro.perf.encode_cache import (
    DEFAULT_ENCODE_CACHE,
    EncodedTableCache,
    decode_head_row_cached,
    encode_cache_enabled,
    encode_head_row_cached,
)
from repro.perf.fingerprint import combined_fingerprint, table_digest

__all__ = [
    "table_digest",
    "combined_fingerprint",
    "EncodedTableCache",
    "DEFAULT_ENCODE_CACHE",
    "encode_cache_enabled",
    "encode_head_row_cached",
    "decode_head_row_cached",
]
