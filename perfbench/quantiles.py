"""Harrell–Davis quantile estimates from raw samples.

A sample percentile is one order statistic.  When the latency
distribution has a gap at that rank — ``proof-cold`` has one at its
median, between two groups of (scenario, query) pairs — a small shift in
a few ops moves the percentile from one side of the gap to the other,
and runs of the same input differ by a fifth.  The Harrell–Davis
estimate averages all order statistics with Beta weights centred on the
rank, which keeps it on the same percentile while smoothing that jump.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["harrell_davis", "incomplete_beta"]


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's evaluation of the incomplete beta continued fraction."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return result
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}")


def incomplete_beta(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # The fraction converges fast only below the mode; use the symmetry
    # I_x(a, b) = 1 - I_{1-x}(b, a) above it.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(samples: Sequence[float], p: float) -> float:
    """The Harrell–Davis estimate of the *p*-quantile of *samples*."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0 or not 0.0 < p < 1.0:
        raise ValueError("need samples and a quantile strictly inside (0, 1)")
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    estimate = 0.0
    below = 0.0
    for rank, value in enumerate(ordered, start=1):
        upto = incomplete_beta(rank / n, a, b)
        estimate += (upto - below) * value
        below = upto
    return estimate
