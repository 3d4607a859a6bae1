"""The fixpoint cache: saturated materializations and star abstractions
valid for one EDB watermark, and the one path that carries them across
an EDB change batch.

A :class:`~repro.api.session.Session` owns one cache and upgrades it in
place; the serving layer gives every snapshot version its own cache and
carries each entry into the next version's cache as a maintained copy,
so readers of the old version keep an exact materialization.  Either
way an entry is maintained by :class:`~repro.incremental.FixpointMaintainer`
exactly when its plan was classified maintainable
(:func:`~repro.api.planner.classify_maintenance`), and dropped with the
plan's own ``maintenance`` text otherwise.

The cache is the ``session=`` collaborator of
:func:`~repro.api.execution.execute_plan`: it answers ``version``,
``get_fixpoint``, ``set_fixpoint`` and ``abstraction_for``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..incremental import (
    FixpointMaintainer,
    MaintenanceReport,
    MutationLog,
    compose_changes,
)
from ..storage import FactStore, make_store
from ..storage.sharded import FixpointRecord
from .planner import QueryPlan, classify_maintenance, store_label

__all__ = ["FixpointCache"]


class _Entry:
    """One cached saturated materialization plus its upgrade machinery.

    ``version`` is the EDB watermark the store is saturated for; an
    in-place entry keeps its ``maintainer`` (built on the first change)
    alive from batch to batch.
    """

    __slots__ = (
        "store", "compiled", "method", "store_name", "rewrite",
        "maintainable", "maintenance", "version", "maintainer",
    )

    def __init__(self, store, compiled, method, store_name, rewrite,
                 maintainable, maintenance, version):
        self.store = store
        self.compiled = compiled
        self.method = method
        self.store_name = store_name
        self.rewrite = rewrite
        self.maintainable = maintainable
        self.maintenance = maintenance
        self.version = version
        self.maintainer: Optional[FixpointMaintainer] = None

    @property
    def label(self) -> str:
        tag = "×magic" if self.rewrite == "magic" else ""
        return (
            f"{self.method}×{self.store_name}{tag} fixpoint "
            f"[{self.compiled.name}] @v{self.version}"
        )

    def copy(self) -> "_Entry":
        """The same entry over a copy of its store, without a maintainer."""
        return _Entry(
            self.store.copy(), self.compiled, self.method, self.store_name,
            self.rewrite, self.maintainable, self.maintenance, self.version,
        )


class FixpointCache:
    """Cross-query caches valid for one EDB watermark ``version``.

    *edb* is the fact base the entries are saturated over (the
    session's live EDB, or one frozen snapshot store).  *log*, when
    given, is the mutation log an entry lagging the watermark is caught
    up from on its next read.
    """

    #: Engine kwargs whose values are plain data — a plan whose kwargs
    #: stay inside this set has cacheable, key-comparable semantics.
    #: Live collaborators (termination policies, guides, custom null
    #: factories, oracles) can suppress or alter derivations without
    #: marking the run unsaturated, so such runs are never cached.
    CACHEABLE_KWARGS = frozenset(
        {
            "variant",
            "max_atoms",
            "max_steps",
            "max_events",
            "max_rounds",
            "strict",
            "probe_depth",
            "probe_atoms",
        }
    )

    #: Cap on *demand-specific* (magic) entries, evicted least recently
    #: used first: their key includes the query's seed constants, so a
    #: read-heavy workload answering many distinct point queries would
    #: otherwise grow one materialization per constant without bound.
    #: Unrewritten entries stay unbounded — their key space is the small
    #: (program, method, store, kwargs) product.
    MAGIC_LIMIT = 32

    #: Lazy catch-up reports kept, newest last.
    CATCHUP_REPORTS = 32

    def __init__(self, edb, version: int = 0, *,
                 log: Optional[MutationLog] = None):
        self.edb = edb
        self.version = version
        self.log = log
        #: Reentrant: a session holding it across ``apply`` reads and
        #: maintains the cache under the same lock.
        self.lock = threading.RLock()
        self._entries: Dict[tuple, _Entry] = {}
        self._abstractions: Dict[int, object] = {}
        #: Reports from *lazy* catch-ups (a lagging entry healed — or
        #: dropped, with the reason — on the read path).
        self.catchup_reports: List[MaintenanceReport] = []
        self.hits = 0
        self.misses = 0

    # -- identity ------------------------------------------------------------

    @classmethod
    def cacheable(cls, plan: QueryPlan) -> bool:
        """Whether *plan*'s saturated materialization may be cached."""
        return all(key in cls.CACHEABLE_KWARGS for key in plan.engine_kwargs)

    @staticmethod
    def _key(compiled, method, store_name, kwargs, rewrite="none",
             token=None) -> tuple:
        """The cache identity of a materialization.

        No EDB version in the key: entries carry their own watermark.
        Magic plans additionally key on the rewriting identity (binding
        pattern + seed constants): their materialization is
        demand-specific and must never be served to another query, or
        to the unrewritten plan.
        """
        return (id(compiled), method, store_name, kwargs, rewrite, token)

    @classmethod
    def _plan_key(cls, plan: QueryPlan) -> tuple:
        kwargs = tuple(
            sorted((k, repr(v)) for k, v in plan.engine_kwargs.items())
        )
        token = (
            plan.rewriting.cache_token if plan.rewriting is not None else None
        )
        return cls._key(
            plan.program, plan.method, plan.store_name, kwargs,
            plan.rewrite, token,
        )

    # -- the execute_plan surface --------------------------------------------

    def get_fixpoint(self, plan: QueryPlan) -> Optional[FactStore]:
        """A cached saturated materialization for this plan, if any.

        An entry lagging the watermark is caught up from the mutation
        log on the way out, or dropped; the report lands in
        :attr:`catchup_reports` either way.
        """
        if not self.cacheable(plan):
            return None
        key = self._plan_key(plan)
        with self.lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version != self.version:
                entry = self._catch_up(key, entry)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            if entry.rewrite == "magic":
                self._entries[key] = self._entries.pop(key)  # LRU refresh
            return entry.store

    def set_fixpoint(
        self, plan: QueryPlan, store: FactStore, version: int
    ) -> None:
        """Register *store*, saturated over the EDB at watermark *version*.

        *version* is read when the engine starts: a batch applied while
        the run read the EDB has moved the watermark since, and the
        result then matches no watermark, so it is not registered.
        """
        if not self.cacheable(plan):
            return
        entry = _Entry(
            store, plan.program, plan.method, plan.store_name, plan.rewrite,
            plan.maintainable, plan.maintenance, version,
        )
        with self.lock:
            if version != self.version:
                return
            self._entries[self._plan_key(plan)] = entry
            if plan.rewrite == "magic":
                magic = [
                    key
                    for key, cached in self._entries.items()
                    if cached.rewrite == "magic"
                ]
                for key in magic[: -self.MAGIC_LIMIT]:
                    del self._entries[key]

    def abstraction_for(self, compiled):
        """The star abstraction of (EDB, Σ), computed once per watermark.

        It both bounds the candidate answer pools and serves as the
        pruning oracle of the proof-tree engines, and depends only on
        the facts and the program — never on the query.
        """
        from ..reasoning.abstraction import star_abstraction

        with self.lock:
            abstraction = self._abstractions.get(id(compiled))
            if abstraction is None:
                abstraction = star_abstraction(
                    self.edb, compiled.analysis.normalized
                )
                self._abstractions[id(compiled)] = abstraction
            return abstraction

    # -- the upgrade path ----------------------------------------------------

    def advance(self, inserted, retracted, edb, report: MaintenanceReport,
                into: Optional["FixpointCache"] = None) -> None:
        """Carry every current entry across one effective change batch.

        *edb* is the fact base after the batch.  Without *into*, the
        cache moves to watermark ``report.version`` and each entry is
        maintained in place by its long-lived maintainer.  With *into*
        (the next version's cache), each entry is copied and the copy
        maintained into *into*, leaving this cache exact for its
        readers.  Entries outside the maintainable fragment are not
        carried; each maintained entry's stats and each dropped entry's
        reason go into *report*.
        """
        with self.lock:
            current = [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.version == self.version
            ]
            if into is None:
                # Stores change under readers: they wait on the lock.
                self.version = report.version
                # Star abstractions depend on the whole EDB and are
                # cheap next to saturation: recompute, don't maintain.
                self._abstractions.clear()
                for key, entry in current:
                    self._carry(key, entry, inserted, retracted, edb, report)
                return
        for key, entry in current:
            self._carry(key, entry, inserted, retracted, edb, report, into)

    def _carry(self, key, entry, inserted, retracted, edb, report,
               into=None) -> None:
        """Maintain one entry across the batch, in place or as a copy
        into *into*; or drop it with its plan's reason."""
        if not entry.maintainable:
            if into is None:
                del self._entries[key]
            report.fallbacks.append((entry.label, entry.maintenance))
            return
        if into is None:
            target = self
            if entry.maintainer is None:
                entry.maintainer = FixpointMaintainer(
                    entry.compiled, entry.store
                )
            maintainer = entry.maintainer
        else:
            target = into
            entry = entry.copy()
            maintainer = FixpointMaintainer(entry.compiled, entry.store)
        stats = maintainer.apply(inserted, retracted, edb=edb)
        entry.version = target.version
        with target.lock:
            target._entries[key] = entry
        report.maintained.append((entry.label, stats))

    def _catch_up(self, key, entry) -> Optional[_Entry]:
        """Bring a lagging entry to the watermark, or drop it (lock held).

        The mutation log composes the missed batches into one effective
        batch, which stays exact for both DRed and counting.
        """
        report = MaintenanceReport(
            version=self.version, inserted=(), retracted=()
        )
        pending = (
            self.log.since(entry.version, self.version)
            if self.log is not None
            else None
        )
        if pending is None:
            del self._entries[key]
            report.fallbacks.append(
                (
                    entry.label,
                    "mutation log no longer covers this cache's "
                    "watermark; recomputing",
                )
            )
        else:
            inserted, retracted = compose_changes(
                (record.inserted, record.retracted) for record in pending
            )
            self._carry(key, entry, inserted, retracted, self.edb, report)
        self.catchup_reports.append(report)
        del self.catchup_reports[: -self.CATCHUP_REPORTS]
        return self._entries.get(key)

    # -- checkpoints and introspection ---------------------------------------

    def records(self) -> List[FixpointRecord]:
        """The persistable entries: unrewritten materializations only
        (a demand-specific one is tied to one query's seed constants)."""
        with self.lock:
            items = list(self._entries.items())
        return [
            FixpointRecord(
                method=method,
                store_name=store_name,
                kwargs=kwargs,
                atoms=tuple(entry.store),
            )
            for (_, method, store_name, kwargs, rewrite, token), entry
            in items
            if rewrite == "none" and token is None
        ]

    def restore(self, records, compiled, store) -> None:
        """Re-seed from checkpointed *records* of *compiled*.

        Records for another *store* choice are skipped: their keys
        could never be looked up.
        """
        name = store_label(store)
        for record in records:
            if record.store_name != name:
                continue
            maintainable, maintenance = classify_maintenance(
                compiled, record.method, rewritten=False
            )
            entry = _Entry(
                make_store(store, record.atoms), compiled, record.method,
                name, "none", maintainable, maintenance, self.version,
            )
            key = self._key(compiled, record.method, name, record.kwargs)
            with self.lock:
                self._entries[key] = entry

    def entries(self) -> List[_Entry]:
        """The cached entries, in eviction order (oldest first)."""
        with self.lock:
            return list(self._entries.values())

    def stats(self) -> dict:
        with self.lock:
            return {
                "fixpoints": len(self._entries),
                "abstractions": len(self._abstractions),
                "hits": self.hits,
                "misses": self.misses,
            }
