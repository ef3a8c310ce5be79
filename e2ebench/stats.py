"""Percentiles the sample supports.

A tail percentile is only worth reporting when enough samples lie beyond
it: with 200 samples the "p99" is the second-largest value, which is one
outlier's opinion.  The benchmark reports a percentile only when at least
:data:`MIN_TAIL` samples rank above it.
"""

from __future__ import annotations

import math

__all__ = ["MIN_TAIL", "LADDER", "percentile", "samples_beyond",
           "highest_supported"]

#: Samples that must rank above a reported percentile.
MIN_TAIL = 10

#: Percentiles considered by :func:`highest_supported`, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` in ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the ``p`` percentile."""
    return n - _rank(n, p)


def highest_supported(n: int, ladder=LADDER) -> float | None:
    """The highest ladder percentile with >= MIN_TAIL samples beyond it."""
    for p in ladder:
        if samples_beyond(n, p) >= MIN_TAIL:
            return p
    return None
