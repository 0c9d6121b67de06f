"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0.0 below two
    samples, where quartiles are undefined)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def summary(values: List[float]) -> Dict[str, object]:
    """One reported metric: the median of the per-repeat values, their
    IQR and count, and the values themselves so two runs can be
    compared sample by sample."""
    return {
        "value": statistics.median(values) if values else 0.0,
        "iqr": iqr(values),
        "n": len(values),
        "values": list(values),
    }
