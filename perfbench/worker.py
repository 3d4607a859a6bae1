"""One workload run in a fresh process; prints its record as JSON.

``run.py`` starts this script once per run so that peak RSS
(``ru_maxrss`` only grows within a process), imports, caches and
interning tables never carry over from one run to the next.

    python3 perfbench/worker.py '{"workload": "serve-read", "seed": 1, "seconds": 20}'
    python3 perfbench/worker.py '{"workload": "serve-read", "seed": 1, "segments": 6, "traced": true}'

``"preload": true`` imports every module of the program first, as a
traced run does.

The last line of standard output is the JSON record.  Each op is a row
``[segment, index, kind, key, latency_s, setup_s, version, digest,
error]``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import run_workload  # noqa: E402


def _op_rows(records):
    """Ops as JSON rows."""
    return [
        [
            r.segment, r.index, r.kind, r.key, r.latency_s, r.setup_s,
            r.version, r.digest, r.error,
        ]
        for r in records
    ]


def _traced_run(spec: dict):
    """A fixed run with every layer wrapped; the wrappers are gone
    again when this returns."""
    from perfbench.layers import LayerProbe
    from perfbench.tracer import Tracer, op_accounting

    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        began = time.perf_counter()
        result = run_workload(
            spec["workload"], spec["seed"], segments=spec["segments"],
            tracer=tracer,
        )
        total = time.perf_counter() - began
    finally:
        tracer.uninstall()
    accounting = op_accounting(
        tracer.spans, {r.op_id: (r.began, r.ended) for r in result.ops}
    )
    served = defaultdict(float)
    for span in tracer.spans:
        if span.name == "server.query":
            served[span.op] += span.duration
    layers = probe.metrics(
        transport_s=sum(
            (r.ended - r.began) - served[r.op_id]
            for r in result.ops if r.op_id in served
        ),
        resident_bytes=result.resident_bytes,
        unattributed_s=sum(u for _, _, u in accounting.values()),
    )
    worst = max(
        (abs(s + u - w) / w for w, s, u in accounting.values() if w > 0),
        default=0.0,
    )
    return result, {"total_s": total, "layers": layers,
                    "accounting_error": worst, "spans": len(tracer.spans)}


def main(argv) -> int:
    spec = json.loads(argv[1])
    if spec.get("preload"):
        # An untraced run compared with a traced one imports what the
        # tracer imports, before the clock starts, as the traced run does.
        from perfbench.layers import import_all

        import_all()
    if spec.get("traced"):
        result, record = _traced_run(spec)
    else:
        began = time.perf_counter()
        result = run_workload(
            spec["workload"], spec["seed"],
            seconds=spec.get("seconds"), segments=spec.get("segments"),
        )
        record = {"total_s": time.perf_counter() - began}
    record.update(
        loop_s=result.loop_s,
        peak_rss_mb=result.peak_rss_mb,
        calibration=result.calibration,
        ops=_op_rows(result.ops),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
