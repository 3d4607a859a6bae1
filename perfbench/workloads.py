"""The three workloads: inputs from a seed, set-up, and the closed loop.

Every workload is a closed loop with one client: the next op is sent
only after the previous one answered.  Each op's answers and admitted
version are recorded while the clock runs; digests and ground-truth
checks happen after it stops (``verify.py``), so they cost the measured
run nothing.

A run is a sequence of *segments*, each with its own sub-seed drawn
from the run's seed: a fresh serving trace replayed against a freshly
set-up service, or one fresh ``proof-cold`` corpus.  Cost depends
strongly on the input a seed draws — which keys are hot, and whether
the trace's inserted edges merge the graph's clusters into one large
closure — so one long trace per run gives figures that differ by half
from seed to seed.  Many independent segments per run average that out.
A timed run first answers one warm-up segment that it neither times nor
records.

* ``serve-read`` — read-heavy traces (90/5/5 query/update/lookup, zipf
  skew 1.1) over the churn family at 192 vertices, 384 edges and 16
  clusters, replayed over one socket connection to a ``ReasoningServer``
  on a thread, serving ``ReasoningService(store="columnar")`` with
  default plans (magic rewriting and kernels on).  The default serving
  path: magic demand fixpoints on kernels, version-overlay store reads
  and the socket round trip; maintenance does almost nothing, because
  magic fixpoints are dropped on each update.
* ``serve-churn`` — churn traces (25/50/25, skew 1.1) at 64 vertices,
  64 edges and 8 clusters, in-process against the same service with
  ``rewrite="none"``, so every version keeps one full materialization
  that each update migrates: DRed, counting supports and a store copy.
* ``proof-cold`` — every (scenario, query) pair of
  ``suite_corpus(PROOF_SCALE)``, one corpus per segment, each pair
  answered cold in a fresh ``Session(store="columnar")`` with auto
  planning: the PWL proof-tree search, the probe chase, the star
  abstraction and the wardedness checks.  No server, maintenance or
  magic rewriting.  At the ``medium`` scale a 20-s run held only 10 to
  15 corpora, and its 90th percentile differed by over a quarter from
  seed to seed; the generators' default ``small`` scale fits about 40.
"""

from __future__ import annotations

import gc
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "OpRecord", "RunResult", "TRACED_SEGMENTS", "WORKLOADS",
    "run_workload", "segment_inputs", "segment_seeds",
]

#: Reads needed so that ten samples lie beyond the 90th percentile.
MIN_READS = 100
#: A timed run starts no segment after this many seconds.
HARD_LIMIT_S = 90.0
#: Segments drawn per run; a run stops long before the last.
MAX_SEGMENTS = 400
#: The ``suite_corpus`` scale of ``proof-cold``.
PROOF_SCALE = "small"
#: How often a segment's server thread looks for shutdown, in seconds.
POLL_S = 0.05
#: Steps of the calibration loop, about 1.5 ms of interpreter work.
CALIBRATION_STEPS = 20000
#: What :func:`calibrate` returns on the machine the bounds were set on
#: (a 2-core shared Xeon VM) when nothing else loads it; the time
#: metrics are reported at this speed.
REFERENCE_CALIBRATION_S = 0.0012


@dataclass(frozen=True)
class ServeSpec:
    mix: str
    vertices: int
    edges: int
    clusters: int
    socket: bool
    rewrite: str
    ops: int                  # trace ops per segment


WORKLOADS = {
    "serve-read": ServeSpec("read-heavy", 192, 384, 16, True, "auto", 120),
    "serve-churn": ServeSpec("churn", 64, 64, 8, False, "none", 24),
    "proof-cold": None,
}

#: Segments of the traced run (fixed, so its counters repeat exactly).
TRACED_SEGMENTS = {"serve-read": 6, "serve-churn": 16, "proof-cold": 15}


@dataclass
class OpRecord:
    """One op as the client saw it; ``answers`` is replaced by its
    ``digest`` when the segment ends, off the clock."""

    segment: int              # the segment's sub-seed
    index: int                # trace op index; -1 for a set-up query
    kind: str                 # query | point_lookup | update | setup
    key: str                  # query or change text, or "scenario/query"
    began: float
    ended: float
    setup_s: float = 0.0      # proof-cold: the cold session's set-up
    version: Optional[int] = None
    answers: Optional[list] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def op_id(self) -> tuple:
        return (self.segment, self.index)

    @property
    def latency_s(self) -> float:
        return self.ended - self.began - self.setup_s


@dataclass
class RunResult:
    loop_s: float             # time spent in ops, set-up queries excluded
    peak_rss_mb: float
    ops: List[OpRecord] = field(default_factory=list)
    resident_bytes: int = 0   # the last segment's serving EDB
    calibration: List[float] = field(default_factory=list)


def calibrate() -> float:
    """Seconds a fixed loop of interpreted integer arithmetic takes now,
    the best of three.

    The loop runs none of the program, so no change to the program
    moves it: it measures the machine's speed at the moment.  On a
    shared host that speed drifts by a quarter or more over minutes and
    moves every op of a run alike, and the loop follows it.
    """
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for step in range(CALIBRATION_STEPS):
            total += step * step % 7
        best = min(best, time.perf_counter() - began)
    return best


def segment_seeds(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 30) for _ in range(MAX_SEGMENTS)]


def segment_inputs(name: str, segment: int):
    """A serving segment's trace and base scenario, or a corpus."""
    if name == "proof-cold":
        from repro.benchsuite import suite_corpus

        return suite_corpus(PROOF_SCALE, base_seed=segment)
    from repro.workloads import generate_trace, materialize_scenario

    spec = WORKLOADS[name]
    trace = generate_trace(
        ops=spec.ops, mix=spec.mix, skew=1.1, seed=segment,
        vertices=spec.vertices, edges=spec.edges, clusters=spec.clusters,
    )
    return trace, materialize_scenario(trace)


def _is_read(kind: str) -> bool:
    return kind in ("query", "point_lookup")


def _timed(records: List[OpRecord], tracer, segment, index, kind, key, call):
    """Run one op, recording its answers, version or error."""
    if tracer is not None:
        tracer.op = (segment, index)
    began = time.perf_counter()
    version = answers = error = None
    try:
        result = call()
        if kind == "update":
            version = result
        else:
            answers, version = result
    except Exception as failure:  # counted against the run, never fatal
        error = repr(failure)
    records.append(OpRecord(segment, index, kind, key, began,
                            time.perf_counter(), version=version,
                            answers=answers, error=error))


class _Serving:
    """A set-up serving target and what it takes to tear it down."""

    def __init__(self, spec: ServeSpec, scenario):
        from repro.server import ReasoningServer, ReasoningService
        from repro.workloads import ClientTarget, ServiceTarget

        self.service = ReasoningService(
            scenario.program, facts=scenario.database, store="columnar"
        )
        self.server = self.thread = None
        if spec.socket:
            self.server = ReasoningServer(self.service)
            # serve_forever polls for shutdown every 0.5 s by default;
            # closing a segment's server would wait that long.
            self.thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": POLL_S}, daemon=True,
            )
            self.thread.start()
            host, port = self.server.address
            self.target = ClientTarget(host, port, rewrite=spec.rewrite)
        else:
            self.target = ServiceTarget(self.service, rewrite=spec.rewrite)

    def close(self) -> None:
        self.target.close()
        if self.server is not None:
            self.server.close()
            self.thread.join(timeout=10)


def _serve_segment(name, segment, records, tracer):
    """Set up, answer the first query, replay the trace.

    The set-up record spans the service's construction (compile, EDB
    load, snapshot) and its first answered query (lint, plan and the
    first materialization).  Returns the seconds spent replaying and
    the resident bytes of the last version's EDB.
    """
    if tracer is not None:
        tracer.op = None  # generating inputs is not the workload's work
    trace, scenario = segment_inputs(name, segment)
    first = next(op.query for op in trace.ops if op.kind != "update")
    serving = None

    def setup():
        nonlocal serving
        serving = _Serving(WORKLOADS[name], scenario)
        return serving.target.query(first)

    _timed(records, tracer, segment, -1, "setup", first, setup)
    if serving is None:
        return 0.0, 0
    target = serving.target
    try:
        started = time.perf_counter()
        for op in trace.ops:
            if op.kind == "update":
                _timed(records, tracer, segment, op.index, op.kind,
                       op.changes, lambda: target.update(op.changes))
            else:
                _timed(records, tracer, segment, op.index, op.kind,
                       op.query, lambda: target.query(op.query))
        loop = time.perf_counter() - started
        resident = serving.service.stats()["memory"]["edb_resident_bytes"]
    finally:
        serving.close()
    return loop, resident


def _proof_segment(segment, records, tracer):
    """Answer every pair of one corpus cold; like :func:`_serve_segment`."""
    from repro.api import Session

    if tracer is not None:
        tracer.op = None  # generating inputs is not the workload's work
    corpus = segment_inputs("proof-cold", segment)
    loop = 0.0
    session = None
    for scenario_index, scenario in enumerate(corpus):
        for query_index, query in enumerate(scenario.queries):
            if tracer is not None:
                tracer.op = (segment, len(records))
            began = ready = time.perf_counter()
            rows = error = None
            try:
                session = Session(store="columnar")
                session.compile(scenario.program).diagnostics
                session.add_facts(scenario.database)
                ready = time.perf_counter()
                rows = session.query(query).to_sorted()
            except Exception as failure:  # counted, never fatal
                error = repr(failure)
            ended = time.perf_counter()
            loop += ended - began
            records.append(OpRecord(
                segment, len(records), "query",
                f"{scenario_index}/{query_index}", began, ended,
                setup_s=ready - began, answers=rows, error=error,
            ))
    resident = session.edb.memory_report().resident_bytes if session else 0
    return loop, resident


def _digest(records: List[OpRecord]) -> None:
    """Replace each op's answers by their digest, so that the records
    of a run, and its peak memory, do not grow with the answers."""
    from repro.benchsuite import answer_digest

    for record in records:
        if record.answers is not None:
            record.digest = answer_digest(record.answers)
            record.answers = None


def _run_segment(name, segment, records, tracer):
    if name == "proof-cold":
        return _proof_segment(segment, records, tracer)
    return _serve_segment(name, segment, records, tracer)


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    segments: Optional[int] = None,
    tracer=None,
) -> RunResult:
    """One closed-loop run of whole segments.

    The machine's speed is calibrated (:func:`calibrate`) before the
    first segment and after each one, off the clock.

    Timed (*seconds*): one warm-up segment, neither recorded nor
    timed, so that lazy imports and first calls stay out of the
    figures; then segments follow each other until at least *seconds*
    of ops and MIN_READS reads are done.  Fixed (*segments*): exactly
    that many segments, with no warm-up.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if seconds is not None:
        warm_up = random.Random(f"warm-up {seed}").randrange(1, 2 ** 30)
        _run_segment(name, warm_up, [], None)
    records: List[OpRecord] = []
    loop = 0.0
    resident = 0
    calibration = [calibrate()]
    for count, segment in enumerate(segment_seeds(seed)):
        if segments is not None:
            if count >= segments:
                break
        elif loop >= HARD_LIMIT_S or (
            loop >= seconds
            and sum(_is_read(r.kind) for r in records) >= MIN_READS
        ):
            break
        first = len(records)
        spent, resident = _run_segment(name, segment, records, tracer)
        if tracer is not None:
            tracer.op = None  # what follows is not the workload's work
        _digest(records[first:])
        gc.collect()  # a segment's cyclic garbage is not the next one's
        loop += spent
        calibration.append(calibrate())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(loop, peak, records, resident, calibration)
