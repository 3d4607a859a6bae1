"""Tests that the ground-truth check catches wrong answers and versions.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from perfbench import verify  # noqa: E402
from perfbench.worker import _op_rows  # noqa: E402
from perfbench.workloads import run_workload  # noqa: E402

DIGEST, VERSION, ERROR = 7, 6, 8


@pytest.fixture(scope="module")
def churn_rows():
    return _op_rows(run_workload("serve-churn", 11, segments=2).ops)


def test_correct_answers_pass(churn_rows):
    assert verify.check("serve-churn", churn_rows) == []


def test_wrong_answers_versions_and_errors_fail(churn_rows):
    rows = [list(row) for row in churn_rows]
    read = next(row for row in rows if row[2] == "query")
    update = next(row for row in rows if row[2] == "update")
    lookup = next(row for row in rows if row[2] == "point_lookup")
    read[DIGEST] = "0" * 16
    update[VERSION] += 1
    lookup[VERSION] = 10 ** 6
    rows[0][ERROR] = "TimeoutError()"
    found = verify.check("serve-churn", rows)
    assert len(found) == 4
    assert any("differ from ground truth" in reason for reason in found)
    assert any("expected v" in reason for reason in found)
    assert any("unknown version" in reason for reason in found)
    assert any("TimeoutError" in reason for reason in found)


def test_proof_cold_answers_are_checked():
    rows = _op_rows(run_workload("proof-cold", 11, segments=1).ops)
    assert verify.check("proof-cold", rows) == []
    rows[3] = list(rows[3])
    rows[3][DIGEST] = "0" * 16
    assert len(verify.check("proof-cold", rows)) == 1
