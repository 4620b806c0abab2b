"""Percentiles and the sample-count rule for reported tails."""

from __future__ import annotations

TAIL = 10  # samples that must lie beyond a reported percentile


def rank_of(p: int, n: int) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n values."""
    if n < 1 or not 0 < p <= 100:
        raise ValueError("need at least one value and 0 < p <= 100")
    return max(1, -(-p * n // 100))


def percentile(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[rank_of(p, len(ordered)) - 1]


def beyond(p: int, n: int) -> int:
    """How many of n values lie strictly after the p-th percentile's rank."""
    return n - rank_of(p, n)


def min_samples(p: int) -> int:
    """Smallest run with at least TAIL values beyond the p-th percentile."""
    n = 1
    while beyond(p, n) < TAIL:
        n += 1
    return n


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
