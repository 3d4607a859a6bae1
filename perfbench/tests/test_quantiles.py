"""Tests of the benchmark's Harrell–Davis quantile estimates.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import pytest  # noqa: E402

from perfbench.quantiles import harrell_davis, incomplete_beta  # noqa: E402


@pytest.mark.parametrize("x", [0.01, 0.2, 0.5, 0.77, 0.99])
@pytest.mark.parametrize("shape", [0.5, 1.0, 3.0, 40.0])
def test_incomplete_beta_closed_forms(x, shape):
    assert incomplete_beta(x, 1.0, 1.0) == pytest.approx(x)
    assert incomplete_beta(x, shape, 1.0) == pytest.approx(x ** shape)
    assert incomplete_beta(x, 1.0, shape) == pytest.approx(1 - (1 - x) ** shape)
    assert incomplete_beta(x, shape, 7.0) == pytest.approx(
        1 - incomplete_beta(1 - x, 7.0, shape)
    )


def test_incomplete_beta_with_large_shapes_stays_in_range():
    values = [incomplete_beta(i / 200, 900.5, 100.5) for i in range(201)]
    assert values[0] == 0.0 and values[-1] == 1.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)


def test_harrell_davis_centres_on_the_quantile():
    samples = list(range(1, 102))  # 1..101, symmetric about 51
    assert harrell_davis(samples, 0.5) == pytest.approx(51.0)
    assert harrell_davis([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert harrell_davis(samples, 0.9) == pytest.approx(91.0, abs=1.0)
    assert harrell_davis(samples, 0.5) < harrell_davis(samples, 0.9)


def test_harrell_davis_rejects_bad_input():
    with pytest.raises(ValueError):
        harrell_davis([], 0.5)
    with pytest.raises(ValueError):
        harrell_davis([1.0, 2.0], 1.0)
