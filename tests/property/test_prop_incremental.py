"""Property tests: incremental maintenance ≡ recomputation from scratch.

The acceptance bar of :mod:`repro.incremental`: for random interleaved
streams of insertions, retractions, and queries driven through
``Session.apply``, every query answer must equal a from-scratch
``certain_answers`` over the EDB as it stands at that point — across
all three storage backends and every plannable engine whose plan caches
a materialization.  Retractions are load-bearing here, not an
afterthought: the op generator plants them at roughly the same rate as
insertions, including retractions of facts of *derived* predicates.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.instance import Database
from repro.incremental import FixpointMaintainer
from repro.lang.parser import parse_query
from repro.reasoning.answers import certain_answers
from repro.server import ReasoningService
from repro.storage import BACKENDS

from .strategies import MAINTAINABLE_PROGRAM as PROGRAM
from .strategies import op_streams

QUERY = parse_query("q(X,Y) :- t(X,Y).")
QUERIES = (
    QUERY,
    parse_query("q(X,Y) :- m(X,Y)."),
    parse_query("q(X) :- r(X)."),
)


def _drive(store: str, method: str, database, ops):
    """Replay *ops* through one session; check every query as it lands."""
    session = Session(store=store)
    session.compile(PROGRAM)
    session.add_facts(database)
    # Warm the materialization so maintenance has something to upgrade.
    session.query(QUERY, method=method).to_set()
    for kind, payload in ops:
        if kind == "apply":
            session.apply(payload)
            continue
        query = QUERIES[payload]
        stream = session.query(query, method=method)
        got = set(stream.to_set())
        expected = certain_answers(
            query, Database(session.edb), PROGRAM, method=method
        )
        assert got == expected, (store, method, query)


@settings(max_examples=30, deadline=None)
@given(op_streams(len(QUERIES)))
def test_session_apply_equals_recompute_datalog_all_backends(data):
    database, ops = data
    for store in BACKENDS:
        _drive(store, "datalog", database, ops)


@settings(max_examples=12, deadline=None)
@given(op_streams(len(QUERIES)))
def test_session_apply_equals_recompute_other_engines(data):
    """chase and network cache materializations too; their upgraded
    fixpoints must agree with recomputation just the same."""
    database, ops = data
    for method in ("chase", "network"):
        _drive("instance", method, database, ops)


@settings(max_examples=20, deadline=None)
@given(op_streams(len(QUERIES)))
def test_maintained_cache_is_actually_hit(data):
    """After any update stream, the next datalog query must be served
    from the upgraded cache (no silent fall-back to recomputation)."""
    database, ops = data
    session = Session()
    session.compile(PROGRAM)
    session.add_facts(database)
    session.query(QUERY).to_set()
    applied = False
    for kind, payload in ops:
        if kind == "apply":
            report = session.apply(payload)
            assert not report.fallbacks
            applied = True
    stream = session.query(QUERY)
    stream.to_set()
    if applied:
        assert stream.stats.from_cache


def _migrated(service, batch):
    """``service.apply(batch)`` plus the stats of every maintainer run
    it made while carrying the head's fixpoints into the new version."""
    runs = []
    maintain = FixpointMaintainer.apply

    def recorded(maintainer, *args, **kwargs):
        stats = maintain(maintainer, *args, **kwargs)
        runs.append(stats)
        return stats

    with mock.patch.object(FixpointMaintainer, "apply", recorded):
        return service.apply(batch), runs


@settings(max_examples=20, deadline=None)
@given(op_streams(), st.sampled_from(BACKENDS))
def test_in_place_and_migrated_upgrades_agree(data, store):
    """The one upgrade path, both ways: a Session maintains its fixpoint
    in place, a ReasoningService maintains a copy into each next
    version.  At every version both hold the same fixpoint, and both
    maintainers report the same work counters."""
    database, ops = data
    text = "q(X,Y) :- t(X,Y)."
    session = Session(store=store)
    session.compile(PROGRAM)
    session.add_facts(database)
    service = ReasoningService(PROGRAM, store=store, facts=database)
    session.query(text, rewrite="none").to_set()
    service.query(text, rewrite="none")
    in_place = session.plan(text, rewrite="none")
    migrated = service.session.plan(text, rewrite="none")
    for kind, batch in ops:
        if kind != "apply":
            continue
        report = session.apply(batch)
        update, runs = _migrated(service, batch)
        assert update.effective == bool(report.inserted or report.retracted)
        assert not report.fallbacks and not update.fallbacks
        assert [stats for _, stats in report.maintained] == runs
        assert update.migrated == len(runs) == int(update.effective)
        with service.snapshots.current() as lease:
            assert lease.version == update.version
            head = lease.snapshot.cache.get_fixpoint(migrated)
        assert set(head) == set(session.get_fixpoint(in_place))
