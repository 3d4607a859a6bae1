"""The repo benchmark: three closed-loop workloads, end to end and by layer.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads (``workloads.py`` says what each one runs and why):
``serve-read``, ``serve-churn`` and ``proof-cold``.  Each run happens
in a fresh process started from here (``worker.py``); every answer is
checked against from-scratch ground truth after the runs (``verify.py``).

``--trace 0`` prints the end-to-end metrics of a timed run:

* ``setup_s`` — from the program and EDB to a serving object that has
  answered its first query; on ``proof-cold``, the summed compile +
  lint + EDB-load time of one corpus's cold sessions.  The median over
  the run's segments;
* ``throughput_ops_s`` — ops completed per second of the closed loop;
* ``query_p50_ms`` / ``query_p90_ms`` — read latency (``query`` and
  ``point_lookup`` ops): Harrell–Davis estimates from the raw samples
  (``quantiles.py``); a timed run goes on until ten reads lie beyond
  the 90th percentile;
* ``peak_rss_mb`` — peak resident memory of the workload's process.

Every time above is at reference speed.  The worker times a fixed loop
that runs none of the program (``calibrate`` in ``workloads.py``)
before its first segment and after each one, off the clock.  The run's
*slowdown*, printed by name, is the median of those times over the
loop's time on the reference machine (``REFERENCE_CALIBRATION_S``);
wall times are divided by it and throughput is multiplied by it.  On
the shared host the bounds were set on, the same code ran up to 1.5
times slower in some minutes than in others, and every op of a run
alike: over ten seeds the middle half of ``proof-cold``'s
``query_p50_ms`` spread 0.36 of its median in wall time and 0.08 at
reference speed.  A change to the program moves these figures as it
moves wall time.

It also prints, by name, ``update_p50_ms`` / ``update_p90_ms`` where
ten updates lie beyond the percentile, and ``fail_ratio`` (failed /
attempted ops; an op fails on an error, a digest mismatch or an unknown
version).  These are not in the JSON metrics because ``proof-cold`` has
no updates and because ``fail_ratio`` is 0 on a correct program; the
JSON line carries ``attempted`` and ``failed`` instead.

``--trace 1`` runs a fixed number of segments four times — untraced,
traced, traced, untraced — and prints the per-layer metrics of the
first traced run (``layers.py``), with the tracing overhead as the mean
traced minus the mean untraced wall time.  These times are wall times,
not scaled to reference speed.  The work counters of the
two traced runs must be equal, and per op the self times plus the
unattributed time must add up to the op's wall time.

Which end-to-end metric each layer metric should move:

* ``api.compile_ms`` → ``setup_s`` on all three;
* ``lang.parse_ms``, ``storage.probe_hit_ratio`` → ``query_p50_ms`` on
  ``serve-churn``; ``api.plan_ms`` → ``query_p50_ms`` on ``serve-churn``
  and ``proof-cold``;
* ``api.extract_ms``, ``api.cache_hit_ratio`` → ``query_p50_ms`` on
  ``serve-churn`` and ``serve-read``;
* ``rewriting.adorn_*``, ``server.transport_ms`` → ``query_p50_ms`` on
  ``serve-read``; ``kernels.*``, ``datalog.*`` → ``query_p50_ms`` and
  ``query_p90_ms`` on ``serve-read``;
* ``reasoning.decide_ms``, ``reasoning.decided_tuples``,
  ``reasoning.accept_ratio`` → ``query_p90_ms`` on ``proof-cold``;
  ``reasoning.abstraction_ms``, ``reasoning.probe_ms``, ``analysis.*``
  → ``query_p50_ms`` on ``proof-cold``; ``reasoning.max_frontier``,
  ``reasoning.max_width``, ``reasoning.visited`` → ``peak_rss_mb`` on
  ``proof-cold``;
* ``incremental.*``, ``server.apply_ms``, ``storage.copy_*`` →
  update latency, hence ``throughput_ops_s``, on ``serve-churn``;
  ``storage.copy_*``, ``server.query_ms`` → ``query_p50_ms`` on
  ``serve-read``; ``storage.resident_bytes`` → ``peak_rss_mb`` on
  ``serve-read``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources (``src/repro``) next to this directory the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import verify  # noqa: E402
from perfbench.layers import PER_LAYER, WORK_COUNTERS  # noqa: E402
from perfbench.quantiles import harrell_davis  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_CALIBRATION_S, TRACED_SEGMENTS, WORKLOADS,
)

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Per op, summed self time plus unattributed time must match the op's
#: wall time within this share.
ACCOUNTING_BOUND = 0.1
#: Worker processes of one workload end within this many seconds,
#: leaving time to check their answers.
RUN_BUDGET_S = 150.0
READS = ("query", "point_lookup")


class BenchError(RuntimeError):
    """A worker process failed or ran out of time."""


def _worker(spec: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"no time left for {spec}")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            # Fixed string hashing: set and dict orders, hence the work
            # counters, repeat from run to run.
            env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker timed out: {spec}") from error
    if done.returncode != 0:
        raise BenchError(
            f"worker failed ({done.returncode}): {spec}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _percentiles(samples):
    """(p50, p90, samples beyond p90) in ms from raw seconds."""
    p50, p90 = harrell_davis(samples, 0.5), harrell_davis(samples, 0.9)
    beyond = sum(1 for sample in samples if sample > p90)
    return p50 * 1000.0, p90 * 1000.0, beyond


@dataclass
class Outcome:
    """One workload's figures and checks."""

    attempted: int
    failures: List[str]
    problems: List[str]     # failed checks of the run rather than of an op
    values: Dict[str, float]
    units: Dict[str, str]


def _line(name: str, metric: str, value: float, unit: str, note: str = ""):
    print(f"{name:12s} {metric:28s} {value:14.4f} {unit:6s} {note}".rstrip())


def _segment_setup(rows) -> float:
    """Median over segments of the segment's set-up time: the set-up
    query of a serving segment, the summed cold-session set-ups of a
    corpus."""
    per_segment = defaultdict(float)
    for segment, _, kind, _, latency, setup, *_ in rows:
        per_segment[segment] += latency if kind == "setup" else setup
    return statistics.median(per_segment.values())


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> Outcome:
    run = _worker({"workload": name, "seed": seed, "seconds": seconds}, deadline)
    rows = run["ops"]
    failures = verify.check(name, rows)
    # Times at reference speed: wall times divided by how much slower
    # than the reference the calibration loop ran during this run.
    speed = statistics.median(run["calibration"]) / REFERENCE_CALIBRATION_S
    ok = [row for row in rows if row[2] != "setup" and row[8] is None]
    reads = [row[4] / speed for row in ok if row[2] in READS]
    updates = [row[4] / speed for row in ok if row[2] == "update"]
    segments = len({row[0] for row in rows})
    read_p50, read_p90, beyond = _percentiles(reads)
    values = {
        "setup_s": _segment_setup(rows) / speed,
        "throughput_ops_s": len(ok) * speed / run["loop_s"],
        "query_p50_ms": read_p50,
        "query_p90_ms": read_p90,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {segments} segments",
        "throughput_ops_s": f"{len(ok)} ops in {run['loop_s']:.2f} s of wall time",
        "query_p50_ms": f"n={len(reads)}",
        "query_p90_ms": f"n={len(reads)}, {beyond} beyond"
        + ("" if beyond >= 10 else " (too few samples)"),
    }
    _line(name, "slowdown", speed, "x",
          f"median of {len(run['calibration'])} calibrations; "
          "times below are wall times divided by it")
    for metric, unit in END_TO_END.items():
        _line(name, metric, values[metric], unit, notes.get(metric, ""))
    if len(updates) >= 20:
        update_p50, update_p90, beyond = _percentiles(updates)
        _line(name, "update_p50_ms", update_p50, "ms", f"n={len(updates)}")
        if beyond >= 10:
            _line(name, "update_p90_ms", update_p90, "ms",
                  f"n={len(updates)}, {beyond} beyond")
    _line(name, "fail_ratio", len(failures) / len(rows), "ratio",
          f"{len(failures)} of {len(rows)} ops")
    return Outcome(len(rows), failures, [], values, END_TO_END)


def traced(name: str, seed: int, deadline: float) -> Outcome:
    spec = {"workload": name, "seed": seed, "segments": TRACED_SEGMENTS[name]}
    # Untraced, traced, traced, untraced: the overhead estimate is not
    # skewed by the machine getting faster or slower during the runs.
    plain = _worker(dict(spec, preload=True), deadline)
    first = _worker(dict(spec, traced=True), deadline)
    second = _worker(dict(spec, traced=True), deadline)
    plain_again = _worker(dict(spec, preload=True), deadline)
    runs = (plain, first, second, plain_again)
    rows = [row for run in runs for row in run["ops"]]
    failures = verify.check(name, rows)
    problems = [
        f"work counter {counter} did not repeat: "
        f"{first['layers'][counter]} then {second['layers'][counter]}"
        for counter in WORK_COUNTERS
        if first["layers"][counter] != second["layers"][counter]
    ]
    problems += [
        f"self plus unattributed time is off an op's wall time "
        f"by {run['accounting_error']:.1%}"
        for run in (first, second)
        if run["accounting_error"] > ACCOUNTING_BOUND
    ]
    values = dict(first["layers"])
    values["trace.overhead_s"] = (
        first["total_s"] + second["total_s"]
        - plain["total_s"] - plain_again["total_s"]
    ) / 2
    for metric, unit in PER_LAYER.items():
        _line(name, metric, values[metric], unit)
    _line(name, "(spans recorded)", first["spans"], "count")
    return Outcome(len(rows), failures, problems, values, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            if args.trace:
                outcomes[name] = traced(name, args.seed, deadline)
            else:
                outcomes[name] = end_to_end(name, args.seed, args.seconds, deadline)
            for reason in outcomes[name].failures[:10] + outcomes[name].problems:
                print(f"{name:12s} FAILED {reason}")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    metrics = {}
    for name, outcome in outcomes.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in outcome.units.items():
            metrics[prefix + metric] = {"value": outcome.values[metric], "unit": unit}
    failed = sum(len(outcome.failures) for outcome in outcomes.values())
    print(json.dumps({
        "correct": failed == 0
        and not any(outcome.problems for outcome in outcomes.values()),
        "attempted": sum(outcome.attempted for outcome in outcomes.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
