"""The one content-fingerprint scheme shared by every cache in the repo.

The serving answer cache, the prompt-encoding cache and the executors'
outcome memo key on "has this table changed?".  They must agree on the
answer, so the hashing lives here and nowhere else.

``table_digest`` delegates to ``DataFrame.content_digest()``, which is
computed lazily and cached on the frame itself (frames are value objects;
only ``__setitem__`` mutates, and it invalidates the cached digest).  The
digest covers column names, dtypes, and the ``repr`` of every column's
values — so ``1``, ``1.0``, ``True`` and ``"1"`` hash differently, and so
do ``None`` and ``nan``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from repro.table.frame import DataFrame

__all__ = ["table_digest", "combined_fingerprint"]


def table_digest(table: DataFrame) -> str:
    """Stable hex digest of a frame's schema, dtypes, and cell contents."""
    return table.content_digest()


def combined_fingerprint(parts: Iterable[str]) -> str:
    """SHA-256 over ``parts`` joined with an unambiguous separator.

    Used to build cache keys from several content components (e.g. table
    digest + question + config + seed) without delimiter-collision bugs.
    """
    hasher = hashlib.sha256()
    first = True
    for part in parts:
        if not first:
            hasher.update(b"\x1d")
        first = False
        hasher.update(part.encode("utf-8"))
    return hasher.hexdigest()
