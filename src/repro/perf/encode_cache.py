"""Memoised ``[HEAD]/[ROW]`` codec: each table text is built and read once.

ReAcTable re-serialises ``T0..Tk`` into the prompt on *every* iteration
(PAPER.md §3), so a chain with n iterations renders T0 n times, T1 n-1
times, and so on — all of them identical.  The encode side keys the
rendered string on ``(table content digest, max_rows)`` so each distinct
table state is encoded exactly once per process.  The model reads those
same tables back out of every prompt; the decode side keys the decoded
frame on the exact table text.

``REPRO_ENCODE_CACHE=0`` disables both directions (every call re-encodes
and re-decodes); the rate-0 check in ``repro perf`` verifies disabled ⇒
identical output.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.perf.fingerprint import table_digest
from repro.table.frame import DataFrame
from repro.table.io import decode_head_row, encode_head_row
from repro.telemetry.metrics import GLOBAL_REGISTRY

__all__ = [
    "EncodedTableCache",
    "DEFAULT_ENCODE_CACHE",
    "encode_cache_enabled",
    "encode_head_row_cached",
    "decode_head_row_cached",
]


def encode_cache_enabled() -> bool:
    """True unless ``REPRO_ENCODE_CACHE=0`` disables the codec cache."""
    return os.environ.get("REPRO_ENCODE_CACHE", "1") != "0"


class EncodedTableCache:
    """Thread-safe LRUs of [HEAD]/[ROW] codec results, one per direction.

    Each direction holds at most ``capacity`` entries, so decoding never
    evicts a rendering.  ``len``, ``hits``, ``misses`` and ``evictions``
    count both directions.
    """

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._encoded: OrderedDict[tuple[str, int], str] = OrderedDict()
        self._decoded: OrderedDict[str, DataFrame] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _lookup(self, entries: OrderedDict, cache: str, key):
        """The entry under ``key``, made most recent; None on a miss."""
        with self._lock:
            value = entries.get(key)
            if value is not None:
                entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        GLOBAL_REGISTRY.counter(
            "cache.lookups", "cache lookups by cache name and result").inc(
                cache=cache, result="miss" if value is None else "hit")
        return value

    def _store(self, entries: OrderedDict, key, value) -> None:
        with self._lock:
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def encode(self, frame: DataFrame, *, max_rows: int | None) -> str:
        key = (table_digest(frame), max_rows)
        rendered = self._lookup(self._encoded, "encode", key)
        if rendered is None:
            rendered = encode_head_row(frame, max_rows=max_rows)
            self._store(self._encoded, key, rendered)
        return rendered

    def decode(self, text: str, *, name: str) -> DataFrame:
        """``decode_head_row(text)`` memoised on the exact text.

        Every call returns a fresh clone named ``name``, so a caller that
        mutates its frame never reaches the cached one.  A ``TableError``
        propagates and leaves no entry.
        """
        frame = self._lookup(self._decoded, "decode", text)
        if frame is None:
            frame = decode_head_row(text)
            self._store(self._decoded, text, frame)
        return frame.with_name(name)

    def clear(self) -> None:
        with self._lock:
            self._encoded.clear()
            self._decoded.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._encoded) + len(self._decoded)

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._encoded) + len(self._decoded),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }


#: Process-wide cache used by the prompt builders.
DEFAULT_ENCODE_CACHE = EncodedTableCache()


def encode_head_row_cached(frame: DataFrame, *, max_rows: int | None) -> str:
    """``encode_head_row`` memoised through :data:`DEFAULT_ENCODE_CACHE`."""
    if not encode_cache_enabled():
        return encode_head_row(frame, max_rows=max_rows)
    return DEFAULT_ENCODE_CACHE.encode(frame, max_rows=max_rows)


def decode_head_row_cached(text: str, *, name: str) -> DataFrame:
    """``decode_head_row`` memoised through :data:`DEFAULT_ENCODE_CACHE`."""
    if not encode_cache_enabled():
        return decode_head_row(text, name=name)
    return DEFAULT_ENCODE_CACHE.decode(text, name=name)
