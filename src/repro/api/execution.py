"""Plan execution: one dispatcher from :class:`QueryPlan` to a lazy
:class:`AnswerStream`.

Every engine is driven through its streaming core
(:func:`~repro.datalog.seminaive.stream_datalog_answers`,
:func:`~repro.chase.runner.stream_chase_answers`,
:func:`~repro.reasoning.answers.stream_proof_tree_answers`,
:meth:`~repro.engine.operators.OperatorNetwork.stream`), so answers
surface as they are derived.  When a
:class:`~repro.api.cache.FixpointCache` is attached, saturated
materializations and star abstractions are reused across queries
instead of recomputed.
"""

from __future__ import annotations

from ..chase.runner import ChaseRun, stream_chase_answers
from ..core.instance import Database
from ..core.query import stream_new_answers
from ..datalog.seminaive import stream_datalog_answers
from ..engine.operators import EngineRun
from ..reasoning.answers import (
    UnsupportedProgramError,
    stream_proof_tree_answers,
)
from .planner import QueryPlan
from .stream import AnswerStream, StreamStats

__all__ = ["execute_plan"]

#: chase budget used when the strict certain-answer semantics must
#: witness saturation (the legacy ``certain_answers`` defaults).
STRICT_CHASE_MAX_ATOMS = 200000
STRICT_CHASE_MAX_STEPS = 400000

_NOT_SATURATED = (
    "the chase did not terminate within the limits and the "
    "program is outside WARD; certain answers cannot be "
    "computed exactly (cf. Theorem 5.1: CQAns(PWL) alone is "
    "undecidable)"
)

#: Worker pool used when a cached fixpoint lives in a sharded store —
#: shard scans are independent, so the cache-hit path fans them out.
SHARD_SCAN_WORKERS = 4


def _evaluate_fixpoint(query, cached):
    """``q(cached)`` for a cache hit, shard-parallel when possible.

    A sharded materialization may be partially spilled; the per-shard
    tasks decode each page once in a worker instead of funneling every
    row through one sequential scan.  Answers are identical to
    ``query.evaluate`` either way (the shard fan-out partitions the
    homomorphism space exactly).
    """
    from ..storage.sharded import ShardedStore

    if isinstance(cached, ShardedStore):
        from ..parallel.shardscan import shard_parallel_evaluate

        return shard_parallel_evaluate(
            query, cached, workers=SHARD_SCAN_WORKERS
        )
    return query.evaluate(cached)


def _stream_network_answers(query, database, network, *, store, run,
                            max_atoms=None, max_events=None):
    """Delta-evaluate *query* over the operator network's event stream."""
    yield from stream_new_answers(
        query,
        network.stream(
            database, store=store, max_atoms=max_atoms,
            max_events=max_events, run=run,
        ),
        lambda event: event.new_atoms,
    )


def _registrar(session, plan):
    """The hook registering a saturated run of *plan* with *session*.

    Built as the engine starts, so it carries the watermark of the EDB
    the run reads (see :meth:`~repro.api.cache.FixpointCache.set_fixpoint`).
    """
    if session is None:
        return None
    version = session.version
    return lambda instance: session.set_fixpoint(plan, instance, version)


def execute_plan(
    plan: QueryPlan, database: Database, *, session=None
) -> AnswerStream:
    """Execute *plan* against *database*, returning a lazy stream.

    Construction does no work; the engine runs only as the stream is
    pulled.  With a *session* (a :class:`~repro.api.cache.FixpointCache`),
    the materializing engines first consult it (a hit skips the engine
    entirely) and register their saturated result on completion, and
    the proof-tree engines reuse its star abstraction.
    """
    stats = StreamStats(
        method=plan.method,
        rewrite=plan.rewrite,
        exec_mode=plan.exec_mode if plan.method == "datalog" else "",
    )
    query = plan.query
    program = plan.program.program
    kwargs = dict(plan.engine_kwargs)

    if plan.method == "datalog":
        # With a magic rewriting attached, the engine runs the demand
        # program over EDB ∪ seed facts and surfaces answers through
        # the rewritten query.  ``stream_new_answers`` delta-evaluates
        # on the goal predicate only, so magic/supplementary/adorned
        # atoms never reach the answer stream.
        rewriting = plan.rewriting
        run_query = rewriting.query if rewriting is not None else query
        run_program = (
            rewriting.program if rewriting is not None else program
        )

        def factory():
            cached = session.get_fixpoint(plan) if session else None
            if cached is not None:
                stats.from_cache = True
                stats.saturated = True
                stats.exec_mode = ""  # no engine ran at all
                yield from sorted(
                    _evaluate_fixpoint(run_query, cached), key=str
                )
                return
            facts = database
            if rewriting is not None:
                # A real list, not itertools.chain: seminaive_rounds
                # iterates its database argument several times (store
                # seed, delta seed, round-0 snapshot), so the seeded
                # view must be re-iterable.  The copy is atom refs only.
                facts = list(database)
                facts.extend(rewriting.seed)
            on_fixpoint = _registrar(session, plan)
            yield from stream_datalog_answers(
                run_query,
                facts,
                run_program,
                store=plan.store,
                on_fixpoint=on_fixpoint,
                stats=stats,
                exec_mode=plan.exec_mode,
            )
            stats.saturated = True

    elif plan.method == "chase":

        def factory():
            cached = session.get_fixpoint(plan) if session else None
            if cached is not None:
                stats.from_cache = True
                stats.saturated = True
                yield from sorted(
                    _evaluate_fixpoint(query, cached), key=str
                )
                return
            chase_kwargs = dict(kwargs)
            chase_kwargs.pop("probe_depth", None)
            chase_kwargs.pop("probe_atoms", None)
            strict = chase_kwargs.pop("strict", True)
            if strict:
                chase_kwargs.setdefault("max_atoms", STRICT_CHASE_MAX_ATOMS)
                chase_kwargs.setdefault("max_steps", STRICT_CHASE_MAX_STEPS)
            chase_kwargs.setdefault("variant", "restricted")
            run = ChaseRun()
            on_fixpoint = _registrar(session, plan)
            yield from stream_chase_answers(
                query,
                database,
                program,
                run=run,
                on_fixpoint=on_fixpoint,
                store=plan.store,
                **chase_kwargs,
            )
            stats.saturated = run.saturated
            stats.events = run.fired
            if strict and not run.saturated:
                raise UnsupportedProgramError(_NOT_SATURATED)

    elif plan.method in ("pwl", "ward"):

        def factory():
            tree_kwargs = dict(kwargs)
            tree_kwargs.pop("strict", None)
            probe_depth = tree_kwargs.pop("probe_depth", 3)
            probe_atoms = tree_kwargs.pop("probe_atoms", 20000)
            abstraction = (
                session.abstraction_for(plan.program) if session else None
            )
            yield from stream_proof_tree_answers(
                query,
                database,
                program,
                method=plan.method,
                probe_depth=probe_depth,
                probe_atoms=probe_atoms,
                abstraction=abstraction,
                stats=stats,
                **tree_kwargs,
            )

    elif plan.method == "network":

        def factory():
            cached = session.get_fixpoint(plan) if session else None
            if cached is not None:
                stats.from_cache = True
                stats.saturated = True
                yield from sorted(
                    _evaluate_fixpoint(query, cached), key=str
                )
                return
            net_kwargs = dict(kwargs)
            net_kwargs.pop("probe_depth", None)
            net_kwargs.pop("probe_atoms", None)
            strict = net_kwargs.pop("strict", True)
            if strict:
                # Same budget discipline as the strict chase: a
                # null-inventing program must hit a limit and raise
                # rather than loop unboundedly.
                net_kwargs.setdefault("max_atoms", STRICT_CHASE_MAX_ATOMS)
                net_kwargs.setdefault("max_events", STRICT_CHASE_MAX_STEPS)
            register = _registrar(session, plan)
            network = plan.program.network(
                guide=net_kwargs.pop("guide", None),
                null_factory=net_kwargs.pop("null_factory", None),
            )
            run = EngineRun()
            yield from _stream_network_answers(
                query,
                database,
                network,
                store=plan.store,
                run=run,
                **net_kwargs,
            )
            stats.saturated = run.saturated
            stats.events = run.events
            if run.saturated and register is not None:
                register(run.instance)
            if strict and not run.saturated:
                raise UnsupportedProgramError(_NOT_SATURATED)

    else:  # pragma: no cover — Planner validates methods
        raise ValueError(f"unknown method {plan.method!r}")

    return AnswerStream(plan, factory, stats)
