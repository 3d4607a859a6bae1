"""The session: one front door for compile-once, query-many workloads.

A :class:`Session` owns

* the **EDB** — a shared fact base, extended by loaded programs and
  :meth:`Session.add_facts`;
* a **store choice** — the fact-storage backend every materializing
  engine uses (see :data:`repro.storage.BACKENDS`);
* a **compiled-program cache** — each :class:`Program` is classified,
  stratified, and join-planned exactly once;
* a :class:`~repro.api.cache.FixpointCache` — star abstractions
  (proof-tree engines) and saturated materializations (fixpoint
  engines), valid for the current EDB version watermark;
* a **mutation log** — :meth:`Session.apply` records every effective
  insert/retract batch and advances the fixpoint cache, *upgrading
  each materialization in place* (DRed + counting + the semi-naive
  insertion fast path) instead of recomputing, with a recorded
  fallback for plans outside the maintainable fragment.

``Session.query`` returns a lazy :class:`AnswerStream`; nothing runs
until the caller pulls.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..core.atoms import Atom
from ..core.instance import Database, Instance
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..incremental import ChangeSet, MaintenanceReport, MutationLog
from ..lang.parser import parse_program, parse_query
from ..lint import LintError
from ..rewriting.magic import (
    AdornedProgram,
    MagicRewriting,
    adorn_program,
    binding_pattern,
)
from ..storage import FactStore
from .cache import FixpointCache
from .execution import execute_plan
from .planner import Planner, QueryPlan, validate_store
from .program import CompiledProgram, compile_program
from .stream import AnswerStream

__all__ = ["Session"]

QueryLike = Union[str, ConjunctiveQuery]
ProgramLike = Union[None, str, Program, CompiledProgram]
ChangeLike = Union[ChangeSet, Iterable[Atom]]


class Session:
    """A reusable query-answering session over a shared EDB."""

    def __init__(self, *, store="instance", planner: Optional[Planner] = None):
        validate_store(store)
        if isinstance(store, FactStore):
            # One live store seeded in place by every engine run would
            # leak one query's materialization into the next (even
            # across programs).  Engines may take an instance directly;
            # a session needs a name or a factory.
            raise ValueError(
                "Session cannot share one FactStore instance across "
                "queries; pass a backend name or a factory callable"
            )
        self.store = store
        self.planner = planner if planner is not None else Planner()
        self.edb = Database()
        self.mutations = MutationLog()
        self.fixpoints = FixpointCache(self.edb, log=self.mutations)
        #: Guards the EDB, the mutation log, and every cross-query
        #: cache: a session may be shared across threads (the serving
        #: layer plans queries and applies change batches concurrently).
        #: Reentrant because ``load`` → ``add_facts`` → ``apply`` nest.
        self._lock = self.fixpoints.lock
        self._compiled: Dict[Program, CompiledProgram] = {}
        self._external: list = []  # externally compiled, kept alive
        self._last: Optional[CompiledProgram] = None
        #: Adorned demand programs, cached per (compiled program,
        #: binding pattern): two point queries differing only in their
        #: constants share one rewriting and differ only in seed facts.
        #: LRU-bounded like the magic fixpoint cache — binding patterns
        #: are structural, but programmatically generated query shapes
        #: would otherwise grow it without limit.
        self._adorned: Dict[tuple, AdornedProgram] = {}
        #: Reports from *lazy* catch-ups (see
        #: :meth:`FixpointCache.get_fixpoint`); :meth:`apply` returns
        #: its report directly instead.  Bounded, newest last.
        self.catchup_reports = self.fixpoints.catchup_reports

    def __repr__(self) -> str:
        return (
            f"Session(store={self.store!r}, {len(self.edb)} facts, "
            f"{len(self._compiled)} program(s) compiled)"
        )

    # -- EDB management ----------------------------------------------------

    @property
    def edb_version(self) -> int:
        """The EDB change-log watermark: bumped once per effective
        :meth:`apply` batch.  Derived caches are stamped with the
        watermark they are valid for and *upgraded* across bumps when
        the program is maintainable (recomputed otherwise)."""
        return self.fixpoints.version

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        """Add facts to the shared EDB (an insert-only :meth:`apply`).

        Cached fixpoints of maintainable programs are upgraded in
        place via the insertion fast path; star abstractions (which
        are cheap relative to saturation) are recomputed.  Returns how
        many facts were new.
        """
        return self.apply(ChangeSet.inserting(atoms)).added

    def retract_facts(self, atoms: Iterable[Atom]) -> int:
        """Remove facts from the shared EDB (a retract-only :meth:`apply`).

        Returns how many facts were actually present.
        """
        return self.apply(ChangeSet.retracting(atoms)).dropped

    def apply(
        self,
        changes: ChangeLike = None,
        *,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> MaintenanceReport:
        """Apply one batch of EDB insertions and retractions.

        *changes* is a :class:`~repro.incremental.ChangeSet` (or a bare
        iterable of atoms, treated as insertions); ``inserts=`` /
        ``retracts=`` extend it.  The fixpoint cache advances in place:
        every cached ``(plan, fixpoint)`` is routed through its
        :class:`~repro.incremental.FixpointMaintainer` and upgraded —
        DRed / counting deletion plus the semi-naive insertion fast
        path — while plans outside the
        maintainable fragment fall back to recomputation-on-next-query,
        with the reason recorded in the returned
        :class:`~repro.incremental.MaintenanceReport`.

        No-op batches (nothing effectively changed) do not bump the
        watermark.
        """
        if changes is None:
            changes = ChangeSet()
        elif not isinstance(changes, ChangeSet):
            changes = ChangeSet.inserting(changes)
        extra = ChangeSet.of(inserts, retracts)
        if extra:
            changes = ChangeSet(changes.ops + extra.ops)
        with self._lock:
            net_inserts, net_retracts = changes.net()
            # Effective deltas relative to the current EDB: re-asserting
            # a present fact and retracting an absent one are no-ops.
            inserted = tuple(f for f in net_inserts if f not in self.edb)
            retracted = tuple(f for f in net_retracts if f in self.edb)
            if not inserted and not retracted:
                return MaintenanceReport(
                    version=self.edb_version, inserted=(), retracted=()
                )
            self.edb.discard_all(retracted)
            self.edb.add_all(inserted)
            version = self.edb_version + 1
            self.mutations.record(version, inserted, retracted)
            report = MaintenanceReport(
                version=version, inserted=inserted, retracted=retracted
            )
            self.fixpoints.advance(inserted, retracted, self.edb, report)
            return report

    # -- program management ------------------------------------------------

    def load(
        self, source: Union[str, Path], *, name: str = ""
    ) -> CompiledProgram:
        """Parse a program (text or path), absorb its facts, compile it.

        The returned :class:`CompiledProgram` becomes the session's
        default program for subsequent :meth:`query` calls.
        """
        if isinstance(source, Path):
            name = name or source.stem
            source = source.read_text()
        program, database = parse_program(source, name=name)
        self.add_facts(database)
        return self.compile(program, source=source, facts=database)

    def compile(
        self, program: Program, *, source: Optional[str] = None, facts=None
    ) -> CompiledProgram:
        """Compile *program* once; later calls return the cached artifact."""
        with self._lock:
            if isinstance(program, CompiledProgram):
                # Retain a strong reference: the abstraction/fixpoint
                # caches key by id(compiled), which must not be reused
                # by a new object while this session holds entries.
                self._compiled.setdefault(program.program, program)
                if self._compiled[program.program] is not program:
                    self._external.append(program)
                self._last = program
                return program
            if not isinstance(program, Program):
                program = Program(program)  # bare TGD iterables
            compiled = self._compiled.get(program)
            if compiled is None:
                compiled = compile_program(
                    program, source=source, facts=facts
                )
                self._compiled[program] = compiled
            self._last = compiled
            return compiled

    @property
    def programs(self) -> Tuple[CompiledProgram, ...]:
        return tuple(self._compiled.values())

    def _resolve_program(self, program: ProgramLike) -> CompiledProgram:
        if program is None:
            if self._last is None:
                raise ValueError(
                    "no program loaded into this session; call "
                    "Session.load()/compile() or pass program="
                )
            return self._last
        if isinstance(program, CompiledProgram):
            return self.compile(program)
        if isinstance(program, str):
            parsed, _ = parse_program(program)
            return self.compile(parsed, source=program)
        return self.compile(program)

    # -- planning and querying --------------------------------------------

    def plan(
        self,
        query: QueryLike,
        *,
        program: ProgramLike = None,
        method: str = "auto",
        rewrite: str = "auto",
        exec_mode: str = "auto",
        **engine_kwargs,
    ) -> QueryPlan:
        """Plan a query without running it (see :meth:`QueryPlan.explain`).

        ``rewrite`` selects the demand dimension
        (:data:`repro.api.planner.REWRITES`); adorned demand programs
        are cached per (program, binding pattern), so repeated point
        queries pay the rewriting once.  ``exec_mode`` selects the exec
        dimension (:data:`repro.api.planner.EXEC_MODES`): compiled
        batch kernels versus the per-tuple interpreter on the datalog
        engine.  It changes *how* the fixpoint is computed, never the
        fixpoint itself, so cached materializations are shared across
        exec modes.
        """
        if isinstance(query, str):
            query = parse_query(query)
        compiled = self._resolve_program(program)
        # Static gate: a program with error-severity diagnostics —
        # unsafe negation, arity conflicts, negation through recursion —
        # has no sound evaluation, so reject it before the planner ever
        # sees it.  The report is computed once per compiled program
        # and cached (``compiled.diagnostics``); warnings and infos
        # pass through and surface on the plan's ``lint:`` line.
        errors = compiled.diagnostics.errors()
        if errors:
            raise LintError(errors, compiled.name)
        return self.planner.plan(
            compiled,
            query,
            method=method,
            store=self.store,
            rewrite=rewrite,
            exec_mode=exec_mode,
            magic_provider=self._magic_for,
            **engine_kwargs,
        )

    #: Cap on cached adorned demand programs (per binding pattern).
    _ADORNED_CACHE_LIMIT = 64

    def _magic_for(
        self, compiled: CompiledProgram, query: ConjunctiveQuery
    ) -> MagicRewriting:
        """The cached adorned program for this binding pattern,
        instantiated with the query's actual constants."""
        key = (id(compiled), binding_pattern(query))
        with self._lock:
            adorned = self._adorned.get(key)
            if adorned is None:
                adorned = adorn_program(compiled.program, query)
                self._adorned[key] = adorned
                stale_keys = list(self._adorned)[: -self._ADORNED_CACHE_LIMIT]
                for stale in stale_keys:
                    del self._adorned[stale]
            else:
                self._adorned[key] = self._adorned.pop(key)  # LRU refresh
        return adorned.instantiate(query)

    def explain(self, query: QueryLike, **plan_kwargs) -> str:
        """The stable rendering of the plan :meth:`query` would execute."""
        return self.plan(query, **plan_kwargs).explain()

    def query(
        self,
        query: QueryLike,
        *,
        program: ProgramLike = None,
        method: str = "auto",
        rewrite: str = "auto",
        exec_mode: str = "auto",
        **engine_kwargs,
    ) -> AnswerStream:
        """Answer a query against the session EDB, lazily.

        Returns an :class:`AnswerStream`; the engine starts on the
        first pull, and its materialized set equals the legacy eager
        ``certain_answers`` for the same arguments (the magic rewriting
        only restricts *how much* is derived — and the exec dimension
        only *how* it is derived — never the answers).
        """
        plan = self.plan(
            query,
            program=program,
            method=method,
            rewrite=rewrite,
            exec_mode=exec_mode,
            **engine_kwargs,
        )
        return execute_plan(plan, self.edb, session=self.fixpoints)

    def answers(self, query: QueryLike, **query_kwargs) -> set:
        """Eager convenience: ``set(self.query(...))``."""
        return set(self.query(query, **query_kwargs).to_set())

    # -- cross-query caches ------------------------------------------------

    def abstraction_for(self, compiled: CompiledProgram) -> Instance:
        """The star abstraction of (EDB, Σ) for the current EDB version
        (see :meth:`FixpointCache.abstraction_for`)."""
        return self.fixpoints.abstraction_for(compiled)

    def get_fixpoint(self, plan: QueryPlan) -> Optional[FactStore]:
        """A cached saturated materialization for this plan, if any
        (see :meth:`FixpointCache.get_fixpoint`)."""
        return self.fixpoints.get_fixpoint(plan)
