"""Percentiles, quartiles and the summary lines the benchmark prints."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of a list of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def count(samples) -> int:
    """Samples behind a value: a list of them, or just their number."""
    return samples if isinstance(samples, int) else len(samples)


def describe(name: str, unit: str, value: float | None, samples) -> str:
    """One printable line: the value, then the count of the samples it
    was computed from and, when given as a list, their quartiles."""
    shown = "-" if value is None else f"{value:.4f}"
    line = f"{name:14s} {shown:>12s} {unit:6s}"
    if not isinstance(samples, int) and len(samples) > 1:
        q1, q2, q3 = quartiles(samples)
        line += f" samples: median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]"
    return line + f" n={count(samples)}"
