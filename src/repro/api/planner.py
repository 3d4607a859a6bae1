"""The planner: engine selection as an inspectable artifact.

Engine dispatch used to live as ad-hoc ``if`` chains inside
``certain_answers`` (and again, slightly differently, in callers that
picked ``chase_answers`` or ``datalog_answers`` by hand).
:class:`Planner` is now the one place that decision is made; its output
is a :class:`QueryPlan` — a frozen record of *what* will run and *why*,
with a stable :meth:`QueryPlan.explain` rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from ..core.query import ConjunctiveQuery
from ..datalog.seminaive import EXEC_MODES
from ..kernels import kernel_capable
from ..rewriting.magic import MagicRewriting, magic_rewrite, query_constants
from ..storage import BACKENDS, FactStore
from .program import CompiledProgram, compile_program

__all__ = ["Planner", "QueryPlan", "ENGINES", "REWRITES", "EXEC_MODES"]

#: Engine names a plan can resolve to (``"auto"`` is accepted as input).
ENGINES = ("datalog", "pwl", "ward", "chase", "network")

#: Values of the plan's rewrite dimension (``"auto"`` applies the
#: magic-set demand transformation exactly when it pays: a full
#: program, the datalog engine, and ≥1 bound argument in the query).
REWRITES = ("auto", "magic", "none")

#: Store names whose instantiated backends expose the interned
#: id-array surface (``rows_interned``/``extend_interned``) the
#: compiled kernels run over.  Factories are classified by their
#: ``__name__`` (:func:`repro.storage.sharded.sharded_store_factory`
#: sets it); live :class:`~repro.storage.base.FactStore` instances are
#: probed directly with :func:`repro.kernels.kernel_capable`.
KERNEL_STORES = frozenset({"columnar", "sharded"})

_ENGINE_LABELS = {
    "datalog": "semi-naive least fixpoint (exact for full programs)",
    "pwl": "linear proof-tree search (Theorem 4.8)",
    "ward": "AND-OR alternating proof search (Theorem 4.9)",
    "chase": "restricted chase (exact iff it saturates)",
    "network": "streaming operator network (Section 7)",
}

_PIPELINES = {
    "datalog": (
        "run the semi-naive fixpoint over the EDB",
        "after each round, delta-evaluate q on the staged facts and "
        "stream the new answers",
    ),
    "pwl": (
        "reuse (or build) the star abstraction of (D, Σ)",
        "bounded chase probe settles cheap positives — streamed first",
        "enumerate candidate tuples from the abstraction's pools",
        "decide each remaining candidate by linear proof-tree search, "
        "streaming accepted tuples",
    ),
    "ward": (
        "reuse (or build) the star abstraction of (D, Σ)",
        "bounded chase probe settles cheap positives — streamed first",
        "enumerate candidate tuples from the abstraction's pools",
        "decide each remaining candidate by AND-OR search, streaming "
        "accepted tuples",
    ),
    "chase": (
        "run the restricted chase over the EDB",
        "after each firing, delta-evaluate q on the new atoms and "
        "stream the new answers",
        "on exhaustion, require saturation (strict) or report a sound "
        "under-approximation",
    ),
    "network": (
        "push EDB atoms through the compiled rule-node network "
        "(join orders planned once)",
        "delta-evaluate q on each derived atom and stream the new "
        "answers",
    ),
}


def classify_maintenance(
    compiled: CompiledProgram, method: str, *, rewritten: bool
) -> Tuple[bool, str]:
    """Whether a materialization can be upgraded under EDB change sets
    (see :mod:`repro.incremental`), and the human-readable why/why-not.

    The fixpoint caches maintain an entry exactly when this says so and
    report this text when they drop one.
    """
    from ..incremental import unmaintainable_reason

    gap = unmaintainable_reason(compiled.analysis)
    if rewritten:
        return False, (
            "recompute on EDB change (magic-rewritten "
            "materialization is demand-specific)"
        )
    if gap is None and method in ("pwl", "ward"):
        # The proof-tree engines hold no materialization to
        # maintain; their abstraction is recomputed per EDB change.
        return False, (
            "recompute on EDB change (proof-tree engines cache no "
            "materialization)"
        )
    if gap is None:
        return True, "incremental (DRed + counting over the strata)"
    return False, f"recompute on EDB change ({gap})"


def store_label(store) -> str:
    """The display/cache name of a ``store=`` choice (factories carry
    their name in ``__name__`` — e.g. ``sharded_store_factory``)."""
    if isinstance(store, str):
        return store
    if isinstance(store, FactStore):
        return type(store).__name__
    return getattr(store, "__name__", type(store).__name__)


def validate_store(store):
    """Check a ``store=`` argument, with an error that names the options."""
    if isinstance(store, str) and store not in BACKENDS:
        raise ValueError(
            f"unknown storage backend {store!r}; choose one of "
            f"{', '.join(BACKENDS)}"
        )
    return store


@dataclass(frozen=True)
class QueryPlan:
    """A resolved execution plan for one query against one program.

    Frozen and printable: ``method`` is the engine that will run,
    ``reasons`` records why the planner chose it, ``steps`` the
    pipeline the executor follows.  ``engine_kwargs`` are forwarded to
    the engine verbatim (excluded from equality — they may hold live
    objects such as oracles or policies).
    """

    query: ConjunctiveQuery
    method: str
    store: Any = field(compare=False)
    store_name: str = "instance"
    program: CompiledProgram = field(compare=False, default=None)
    reasons: Tuple[str, ...] = ()
    steps: Tuple[str, ...] = ()
    engine_kwargs: Mapping[str, Any] = field(compare=False, default_factory=dict)
    #: The resolved rewrite dimension: ``"magic"`` iff ``rewriting`` is
    #: attached, else ``"none"``; ``rewrite_note`` carries the stable
    #: human-readable why/why-not shown by :meth:`explain`.
    rewrite: str = "none"
    rewrite_note: str = "none (plan not built by Planner.plan)"
    rewriting: Optional[MagicRewriting] = field(compare=False, default=None)
    #: The resolved exec dimension (:data:`EXEC_MODES` minus ``"auto"``):
    #: ``"kernel"`` runs the datalog engine's rounds as compiled batch
    #: kernels over interned id arrays, ``"interpret"`` keeps the
    #: per-tuple substitution interpreter; ``exec_note`` carries the
    #: stable why/why-not shown by :meth:`explain`.
    exec_mode: str = "interpret"
    exec_note: str = "interpret (plan not built by Planner.plan)"
    #: Whether a saturated materialization of this plan can be upgraded
    #: in place under EDB change sets (see :mod:`repro.incremental`);
    #: ``maintenance`` carries the human-readable why/why-not.  The
    #: default is the conservative "not classified" — only
    #: :meth:`Planner.plan` asserts maintainability, and the fixpoint
    #: caches maintain nothing it did not classify as maintainable.
    maintainable: bool = False
    maintenance: str = "unclassified (plan not built by Planner.plan)"

    @property
    def engine_label(self) -> str:
        return _ENGINE_LABELS[self.method]

    def explain(self) -> str:
        """A stable, human-readable rendering of the plan."""
        analysis = self.program.analysis
        lines = [
            f"plan for {self.query}",
            f"  program : {self.program.name} — "
            f"{self.program.rules} rule(s), class {analysis.program_class}, "
            f"max level {analysis.max_level}, "
            f"{len(analysis.strata.layers)} stratum/strata",
            f"  engine  : {self.method} — {self.engine_label}",
            f"  rewrite : {self.rewrite_note}",
            f"  exec    : {self.exec_note}",
            f"  store   : {self.store_name}",
            f"  update  : {self.maintenance}",
            f"  lint    : {self.program.diagnostics.summary()}",
            "  why:",
        ]
        lines.extend(f"    - {reason}" for reason in self.reasons)
        lines.append("  pipeline:")
        lines.extend(
            f"    {i}. {step}" for i, step in enumerate(self.steps, start=1)
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


class Planner:
    """Resolves (compiled program, query, method) into a :class:`QueryPlan`.

    This is the *only* place engine auto-dispatch lives: the legacy
    ``certain_answers`` and ``chase_answers`` facades both route
    through here, as does :meth:`repro.api.Session.query`.
    """

    def resolve(
        self, compiled: CompiledProgram, method: str = "auto"
    ) -> Tuple[str, Tuple[str, ...]]:
        """The engine for *compiled*, with the reasons for the choice."""
        if method != "auto":
            if method not in ENGINES:
                raise ValueError(f"unknown method {method!r}")
            return method, (f"engine {method!r} forced by the caller",)
        analysis = compiled.analysis
        if analysis.full and analysis.single_head:
            return "datalog", (
                "program is full and single-head → exact least-fixpoint "
                "evaluation",
            )
        if analysis.warded:
            if analysis.piecewise_linear:
                return "pwl", (
                    "program is warded and piece-wise linear → "
                    "space-efficient linear proof-tree search",
                )
            return "ward", (
                "program is warded but not piece-wise linear → AND-OR "
                "alternating search",
            )
        return "chase", (
            "program is outside WARD → chase, accepted only if it "
            "saturates (no complete procedure exists, Theorem 5.1)",
        )

    def plan(
        self,
        compiled: CompiledProgram,
        query: ConjunctiveQuery,
        *,
        method: str = "auto",
        store="instance",
        rewrite: str = "auto",
        exec_mode: str = "auto",
        magic_provider: Optional[Callable] = None,
        **engine_kwargs,
    ) -> QueryPlan:
        """Build the :class:`QueryPlan` for one query.

        ``store`` is validated against :data:`repro.storage.BACKENDS`
        when given by name.  ``rewrite`` selects the demand dimension
        (:data:`REWRITES`): ``"auto"`` applies the magic-set rewriting
        exactly when the program is full, the plan resolved to the
        datalog engine, and the query binds at least one argument;
        ``"magic"`` forces it (an error outside that fragment);
        ``"none"`` disables it.  ``exec_mode`` selects the exec
        dimension (:data:`EXEC_MODES`): ``"auto"`` compiles the
        datalog engine's rounds to columnar batch kernels exactly when
        the store exposes interned id arrays (:data:`KERNEL_STORES`);
        ``"kernel"`` forces it (an error off the datalog engine or on
        an incapable store); ``"interpret"`` keeps the per-tuple
        interpreter.  ``magic_provider``, if given, builds
        the :class:`~repro.rewriting.magic.MagicRewriting` — the
        session passes its per-(program, binding-pattern) cache here.
        Remaining keyword arguments are forwarded to the chosen engine
        (``probe_depth``, ``width_bound``, ``strict``, ``max_atoms``,
        ...).
        """
        compiled = compile_program(compiled)
        validate_store(store)
        if compiled.program.has_negation():
            raise ValueError(
                "the evaluation engines cover positive Datalog± only; "
                "this program carries negated literals (see "
                "'python -m repro lint' for the static checks and "
                "repro.datalog.negation for stratified evaluation)"
            )
        resolved, reasons = self.resolve(compiled, method)
        if rewrite not in REWRITES:
            raise ValueError(
                f"unknown rewrite {rewrite!r}; choose one of "
                f"{', '.join(REWRITES)}"
            )
        if exec_mode not in EXEC_MODES:
            raise ValueError(
                f"unknown exec_mode {exec_mode!r}; choose one of "
                f"{', '.join(EXEC_MODES)}"
            )
        store_name = store_label(store)
        if resolved != "datalog":
            if exec_mode == "kernel":
                raise ValueError(
                    "compiled kernels run on the datalog engine's "
                    f"semi-naive rounds; this plan resolved to {resolved!r}"
                )
            exec_resolved = "interpret"
            exec_note = (
                f"interpret (engine {resolved!r} has no compiled "
                "kernel path)"
            )
        elif exec_mode == "interpret":
            exec_resolved = "interpret"
            exec_note = "interpret (forced by the caller)"
        else:
            capable = (
                kernel_capable(store)
                if isinstance(store, FactStore)
                else store_name in KERNEL_STORES
            )
            if capable:
                exec_resolved = "kernel"
                exec_note = (
                    f"kernel (store '{store_name}' exposes interned "
                    "id arrays)"
                )
            elif exec_mode == "kernel":
                raise ValueError(
                    "exec_mode='kernel' needs a store with an interned "
                    "id-array surface (rows_interned/extend_interned); "
                    f"{store_name!r} has none"
                )
            else:
                exec_resolved = "interpret"
                exec_note = (
                    f"interpret (store '{store_name}' has no interned "
                    "id-array surface)"
                )
        rewriting = None
        bound = len(query_constants(query))
        if rewrite == "none":
            rewrite_note = "none (disabled by the caller)"
        elif resolved != "datalog":
            if rewrite == "magic":
                raise ValueError(
                    "magic rewriting runs on the datalog engine's full "
                    f"fixpoint; this plan resolved to {resolved!r}"
                )
            rewrite_note = (
                f"none (engine {resolved!r} does not saturate a full "
                "fixpoint to restrict)"
            )
        elif not compiled.analysis.full:
            if rewrite == "magic":
                raise ValueError(
                    "magic rewriting needs a full (existential-free) "
                    "program"
                )
            rewrite_note = "none (program has existential rules)"
        elif rewrite == "auto" and bound == 0:
            rewrite_note = (
                "none (no bound argument in the query — demand would "
                "cover the whole fixpoint)"
            )
        else:
            if magic_provider is not None:
                rewriting = magic_provider(compiled, query)
            else:
                rewriting = magic_rewrite(compiled.program, query)
            if rewrite == "auto" and not rewriting.adorned.restricts:
                # Demand leaves some reachable intensional predicate
                # all-free (possibly every one): that predicate's whole
                # fixpoint is re-derived plus magic/sup bookkeeping, so
                # ``auto`` conservatively declines — even when *other*
                # predicates are bound and a mixed rewriting could
                # still win; ``rewrite="magic"`` forces it for those.
                rewriting = None
                rewrite_note = (
                    "none (demand leaves a reachable intensional "
                    "predicate all-free — it would re-derive that "
                    "whole fixpoint; rewrite='magic' overrides)"
                )
            elif rewriting.adorned.restricts:
                rewrite_note = rewriting.describe()
                reasons = reasons + (
                    f"query binds {bound} argument(s) on a full "
                    "program → magic-set rewriting restricts "
                    "evaluation to demanded facts",
                )
            else:
                # Forced magic whose bindings do not restrict the
                # fixpoint: apply it as asked, but say so honestly.
                rewrite_note = rewriting.describe() + " (forced)"
                reasons = reasons + (
                    "magic rewriting forced by the caller; the "
                    f"{bound} bound argument(s) leave some demanded "
                    "predicate all-free, so demand does not restrict "
                    "the fixpoint",
                )
        maintainable, maintenance = classify_maintenance(
            compiled, resolved, rewritten=rewriting is not None
        )
        return QueryPlan(
            query=query,
            method=resolved,
            store=store,
            store_name=store_name,
            program=compiled,
            reasons=reasons,
            steps=_PIPELINES[resolved],
            engine_kwargs=dict(engine_kwargs),
            rewrite="magic" if rewriting is not None else "none",
            rewrite_note=rewrite_note,
            rewriting=rewriting,
            exec_mode=exec_resolved,
            exec_note=exec_note,
            maintainable=maintainable,
            maintenance=maintenance,
        )
