"""Small statistics helpers for match evaluation."""

from __future__ import annotations

import math


# The standard normal quantile of a two-sided 95% interval.
Z_95 = 1.959963984540054


def wilson_interval(successes: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    ``successes`` may be fractional: match win rates count draws as half a
    win, which keeps the interval meaningful for drawish games at the cost
    of a slight approximation.
    """
    if n <= 0:
        raise ValueError("need at least one trial")
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, centre - half), min(1.0, centre + half))
