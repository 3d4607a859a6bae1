"""Tests of a timed run's warm-up, calibration and records.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import run_workload, segment_seeds  # noqa: E402


def test_timed_run_warms_up_calibrates_and_digests():
    result = run_workload("serve-churn", 3, seconds=0.01)
    segments = list(dict.fromkeys(record.segment for record in result.ops))
    # The warm-up segment is not among the recorded ones.
    assert segments == segment_seeds(3)[: len(segments)]
    # Once before the first segment and once after each.
    assert len(result.calibration) == len(segments) + 1
    assert all(seconds > 0 for seconds in result.calibration)
    # Answers are digested when their segment ends.
    assert all(record.answers is None for record in result.ops)
    assert all(
        record.digest is not None
        for record in result.ops
        if record.kind != "update" and record.error is None
    )
