"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each span name is a layer metric (its ``_ms`` figure is the summed self
time of its spans).  Only per-op, per-engine-call and per-pull
boundaries are wrapped: a per-tuple method such as
``DeltaOverlay.__len__`` runs about a million times in a few hundred
``serve-read`` ops, and timing it would measure the tracer.

Which end-to-end metric each layer metric should move, on which
workload, is listed in the module docstring of ``run.py``.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import weakref
from collections import defaultdict
from typing import Dict, List

from .tracer import Tracer, self_times

__all__ = ["LayerProbe", "PER_LAYER", "WORK_COUNTERS", "import_all"]

#: Module-level functions: (span name, defining module, function).
FUNCTIONS = (
    ("lang.parse", "repro.lang.parser", "parse_query"),
    ("api.compile", "repro.api.program", "compile_program"),
    # The first ``CompiledProgram.diagnostics`` is this call; later
    # reads return the cached report.
    ("api.compile", "repro.lint", "run_lint"),
    ("api.extract", "repro.core.query", "stream_new_answers"),
    ("rewriting.adorn", "repro.rewriting.magic", "adorn_program"),
    ("reasoning.abstraction", "repro.reasoning.abstraction", "star_abstraction"),
    ("reasoning.probe", "repro.reasoning.answers", "probe_instance"),
    ("analysis", "repro.analysis.wardedness", "is_warded"),
    ("analysis", "repro.analysis.piecewise", "is_piecewise_linear"),
    ("storage.copy", "repro.storage", "make_store"),
)

#: Methods: (span name, module, class, method).
METHODS = (
    ("lang.parse", "repro.incremental.changes", "ChangeSet", "parse"),
    ("api.extract", "repro.core.query", "ConjunctiveQuery", "evaluate"),
    ("kernels", "repro.kernels.runtime", "KernelEvaluator", "rounds"),
    ("server.apply", "repro.server.service", "ReasoningService", "apply"),
    ("server.query", "repro.server.service", "ReasoningService", "query"),
    ("storage.copy", "repro.storage.base", "FactStore", "copy"),
    ("storage.copy", "repro.storage.delta", "DeltaOverlay", "copy"),
    ("storage.copy", "repro.core.instance", "Instance", "copy"),
    ("storage.copy", "repro.core.instance", "Database", "copy"),
)

#: Counters that must repeat exactly on a second traced run of the
#: same ops with the same seed.
WORK_COUNTERS = (
    "datalog.rounds",
    "kernels.batches",
    "datalog.derived",
    "reasoning.decided_tuples",
    "reasoning.visited",
    "incremental.overdeleted",
    "incremental.rederived",
    "incremental.matches",
    "incremental.derived_added",
)

#: Every per-layer metric the traced run prints: name → unit.
PER_LAYER = {
    "lang.parse_ms": "ms",
    "api.compile_ms": "ms",
    "api.plan_ms": "ms",
    "api.extract_ms": "ms",
    "api.streams": "count",
    "api.cache_hit_ratio": "ratio",
    "rewriting.adorn_ms": "ms",
    "rewriting.magic_plans": "count",
    "rewriting.adorn_hit_ratio": "ratio",
    "kernels.ms": "ms",
    "kernels.batches": "count",
    "datalog.rounds": "count",
    "datalog.derived": "count",
    "reasoning.decide_ms": "ms",
    "reasoning.decided_tuples": "count",
    "reasoning.accept_ratio": "ratio",
    "reasoning.max_frontier": "count",
    "reasoning.max_width": "count",
    "reasoning.visited": "count",
    "reasoning.abstraction_ms": "ms",
    "reasoning.probe_ms": "ms",
    "analysis.ms": "ms",
    "analysis.calls": "count",
    "incremental.maintain_ms": "ms",
    "incremental.overdeleted": "count",
    "incremental.rederived": "count",
    "incremental.matches": "count",
    "incremental.derived_added": "count",
    "incremental.rederive_ratio": "ratio",
    "server.apply_ms": "ms",
    "server.query_ms": "ms",
    "server.transport_ms": "ms",
    "storage.copy_ms": "ms",
    "storage.copy_calls": "count",
    "storage.probes": "count",
    "storage.probe_hit_ratio": "ratio",
    "storage.resident_bytes": "bytes",
    "trace.unattributed_ms": "ms",
    "trace.overhead_s": "s",
}


def import_all() -> None:
    """Import every module of the program."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _ratio(part: float, whole: float) -> float:
    """*part* / *whole*; 0 when the base is 0 (its count is printed too)."""
    return part / whole if whole else 0.0


class LayerProbe:
    """Installs the wrappers on a :class:`Tracer` and sums the counts
    they observe at the same boundaries."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(int)
        self._stream_stats: List[object] = []
        self._lock = threading.Lock()
        # Columnar probe-cache counters live on each store; a store's
        # counts are harvested when it is collected, the rest at the end.
        self._stores: Dict[int, object] = {}
        self._dead_probes = [0, 0]

    # -- installation --------------------------------------------------

    def install(self) -> None:
        # Import every module first: one imported while traced would
        # bind a wrapper by name and keep it after uninstall.
        import_all()
        tracer = self.tracer
        for name, module, function in FUNCTIONS:
            tracer.wrap_function(module, function, name)
        for name, module, cls, method in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            tracer.wrap_method(owner, method, name)
        self._install_hooks()

    def _install_hooks(self) -> None:
        from repro.api.session import Session
        from repro.incremental.maintain import FixpointMaintainer
        from repro.storage.columnar import ColumnarStore

        tracer = self.tracer
        tracer.wrap_method(Session, "plan", "api.plan", self._on_plan)
        tracer.wrap_function(
            "repro.api.execution", "execute_plan", None, self._on_stream
        )
        tracer.wrap_function(
            "repro.reasoning.pwl_ward", "decide_pwl_ward",
            "reasoning.decide", self._on_decision,
        )
        tracer.wrap_function(
            "repro.reasoning.ward", "decide_ward",
            "reasoning.decide", self._on_decision,
        )
        tracer.wrap_method(
            FixpointMaintainer, "apply", "incremental.maintain",
            self._on_maintenance,
        )
        original_init = ColumnarStore.__init__
        stores = self._stores
        dead = self._dead_probes

        def init(store, *args, **kwargs):
            original_init(store, *args, **kwargs)
            stores[id(store)] = weakref.ref(store)

        def collected(store):
            if stores.pop(id(store), None) is not None:
                dead[0] += store.cache_hits
                dead[1] += store.cache_misses

        tracer.patch(ColumnarStore, "__init__", init)
        tracer.patch(ColumnarStore, "__del__", collected)

    # -- hooks ---------------------------------------------------------

    def _on_plan(self, plan) -> None:
        if plan.rewrite == "magic":
            with self._lock:
                self.counts["rewriting.magic_plans"] += 1

    def _on_stream(self, stream) -> None:
        self._stream_stats.append(stream.stats)

    def _on_decision(self, decision) -> None:
        stats = decision.stats
        with self._lock:
            counts = self.counts
            counts["reasoning.decided_tuples"] += 1
            counts["reasoning.accepted"] += int(decision.accepted)
            counts["reasoning.visited"] += stats.visited
            counts["reasoning.max_frontier"] = max(
                counts["reasoning.max_frontier"], stats.max_frontier
            )
            counts["reasoning.max_width"] = max(
                counts["reasoning.max_width"], stats.max_width
            )

    def _on_maintenance(self, stats) -> None:
        with self._lock:
            for field in ("overdeleted", "rederived", "matches", "derived_added"):
                self.counts[f"incremental.{field}"] += getattr(stats, field)

    # -- results -------------------------------------------------------

    def probe_counts(self) -> tuple:
        """(hits, probes) over every columnar store built while traced."""
        hits, misses = self._dead_probes
        for ref in list(self._stores.values()):
            store = ref()
            if store is not None:
                hits += store.cache_hits
                misses += store.cache_misses
        return hits, hits + misses

    def metrics(
        self,
        *,
        transport_s: float,
        resident_bytes: int,
        unattributed_s: float,
    ) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric but ``trace.overhead_s``, which
        needs an untraced run of the same ops.  Spans outside any op
        (the benchmark generating its inputs) are left out."""
        spans = [span for span in self.tracer.spans if span.op is not None]
        selfs = self_times(spans)
        calls = defaultdict(int)
        for span in spans:
            calls[span.name] += 1
        counts = self.counts
        streams = self._stream_stats
        hits, probes = self.probe_counts()
        adorn_calls = calls["rewriting.adorn"]
        magic = counts["rewriting.magic_plans"]

        def ms(name: str) -> float:
            return selfs.get(name, 0.0) * 1000.0

        return {
            "lang.parse_ms": ms("lang.parse"),
            "api.compile_ms": ms("api.compile"),
            "api.plan_ms": ms("api.plan"),
            "api.extract_ms": ms("api.extract"),
            "api.streams": len(streams),
            "api.cache_hit_ratio": _ratio(
                sum(1 for stats in streams if stats.from_cache), len(streams)
            ),
            "rewriting.adorn_ms": ms("rewriting.adorn"),
            "rewriting.magic_plans": magic,
            "rewriting.adorn_hit_ratio": _ratio(magic - adorn_calls, magic),
            "kernels.ms": ms("kernels"),
            "kernels.batches": sum(s.kernel_batches for s in streams),
            "datalog.rounds": sum(s.rounds for s in streams),
            "datalog.derived": sum(s.derived for s in streams),
            "reasoning.decide_ms": ms("reasoning.decide"),
            "reasoning.decided_tuples": counts["reasoning.decided_tuples"],
            "reasoning.accept_ratio": _ratio(
                counts["reasoning.accepted"], counts["reasoning.decided_tuples"]
            ),
            "reasoning.max_frontier": counts["reasoning.max_frontier"],
            "reasoning.max_width": counts["reasoning.max_width"],
            "reasoning.visited": counts["reasoning.visited"],
            "reasoning.abstraction_ms": ms("reasoning.abstraction"),
            "reasoning.probe_ms": ms("reasoning.probe"),
            "analysis.ms": ms("analysis"),
            "analysis.calls": calls["analysis"],
            "incremental.maintain_ms": ms("incremental.maintain"),
            "incremental.overdeleted": counts["incremental.overdeleted"],
            "incremental.rederived": counts["incremental.rederived"],
            "incremental.matches": counts["incremental.matches"],
            "incremental.derived_added": counts["incremental.derived_added"],
            "incremental.rederive_ratio": _ratio(
                counts["incremental.rederived"], counts["incremental.overdeleted"]
            ),
            "server.apply_ms": ms("server.apply"),
            "server.query_ms": ms("server.query"),
            "server.transport_ms": transport_s * 1000.0,
            "storage.copy_ms": ms("storage.copy"),
            "storage.copy_calls": calls["storage.copy"],
            "storage.probes": probes,
            "storage.probe_hit_ratio": _ratio(hits, probes),
            "storage.resident_bytes": resident_bytes,
            "trace.unattributed_ms": unattributed_s * 1000.0,
        }
