"""Unit tests for the incremental view-maintenance subsystem."""

import pytest

from repro.api import Session
from repro.api.program import compile_program
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant, Variable
from repro.datalog.seminaive import seminaive, seminaive_delta_rounds
from repro.incremental import (
    ChangeSet,
    FixpointMaintainer,
    MutationLog,
    SupportIndex,
    compose_changes,
    unmaintainable_reason,
)
from repro.lang.parser import parse_program
from repro.storage import BACKENDS

X, Y = Variable("X"), Variable("Y")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def f(predicate, *names):
    return Atom(predicate, tuple(Constant(n) for n in names))


TC_SOURCE = """
    e(a,b). e(b,c).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

#: Adds a counting stratum on top of the DRed one.
LAYERED_SOURCE = TC_SOURCE + """
    reach(X) :- t(X,Y).
"""


class TestChangeSet:
    def test_net_last_wins(self):
        changes = ChangeSet.of(inserts=[f("e", "a", "b")]) \
            .ops + ChangeSet.retracting([f("e", "a", "b")]).ops
        net_in, net_out = ChangeSet(changes).net()
        assert net_in == ()
        assert net_out == (f("e", "a", "b"),)

    def test_parse_signs_comments_and_bare_atoms(self):
        changes = ChangeSet.parse(
            "# comment\n+e(a,b).\n- e(b,c).\ne(c,d)\n\n"
        )
        assert changes.inserts == (f("e", "a", "b"), f("e", "c", "d"))
        assert changes.retracts == (f("e", "b", "c"),)

    def test_parse_rejects_non_ground(self):
        with pytest.raises(ValueError, match="line 1.*ground"):
            ChangeSet.parse("+e(X,b).")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            ChangeSet.parse("+e(a,b).\n+e(a,.\n")

    def test_bool_and_describe(self):
        assert not ChangeSet()
        changes = ChangeSet.of(
            inserts=[f("e", "a", "b")], retracts=[f("e", "b", "c")]
        )
        assert changes and len(changes) == 2
        assert changes.describe() == "ChangeSet(+1, -1)"


class TestComposeChanges:
    def test_insert_then_retract_cancels(self):
        merged = compose_changes(
            [((f("e", "a", "b"),), ()), ((), (f("e", "a", "b"),))]
        )
        assert merged == ((), ())

    def test_retract_then_insert_cancels(self):
        merged = compose_changes(
            [((), (f("e", "a", "b"),)), ((f("e", "a", "b"),), ())]
        )
        assert merged == ((), ())

    def test_independent_batches_union(self):
        merged = compose_changes(
            [((f("e", "a", "b"),), ()), ((), (f("e", "b", "c"),))]
        )
        assert merged == ((f("e", "a", "b"),), (f("e", "b", "c"),))


class TestMutationLog:
    def test_watermark_and_since(self):
        log = MutationLog()
        log.record(1, (f("e", "a", "b"),), ())
        log.record(2, (), (f("e", "a", "b"),))
        assert log.watermark == 2
        assert log.since(2, 2) == []
        pending = log.since(0, 2)
        assert [r.version for r in pending] == [1, 2]

    def test_since_detects_gaps(self):
        log = MutationLog(max_entries=1)
        log.record(1, (f("e", "a", "b"),), ())
        log.record(2, (f("e", "b", "c"),), ())  # evicts version 1
        assert log.since(0, 2) is None
        assert log.since(1, 2) is not None


class TestSeminaiveDeltaRounds:
    def test_resume_equals_from_scratch(self):
        program, database = parse_program(TC_SOURCE)
        fixpoint = seminaive(database, program).instance
        new = [f("e", "c", "d")]
        for _ in seminaive_delta_rounds(fixpoint, program, new):
            pass
        database.add_all(new)
        assert set(fixpoint) == set(seminaive(database, program).instance)

    def test_rounds_carry_only_new_work(self):
        program, database = parse_program(TC_SOURCE)
        fixpoint = seminaive(database, program).instance
        events = list(
            seminaive_delta_rounds(fixpoint, program, [f("e", "c", "d")])
        )
        assert events[0].staged == (f("e", "c", "d"),)
        staged = {atom for event in events[1:] for atom in event.staged}
        # every staged fact mentions d — nothing old is re-derived
        assert staged and all(d in atom.args for atom in staged)


class TestSupportIndex:
    def test_gain_lose_and_zero(self):
        index = SupportIndex()
        assert index.gain(f("r", "a")) == 1
        assert index.gain(f("r", "a"), 2) == 3
        assert index.lose(f("r", "a")) == 2
        assert index.lose(f("r", "a"), 2) == 0
        assert f("r", "a") not in index


class TestFixpointMaintainer:
    def _maintainer(self, source, store="instance"):
        program, database = parse_program(source)
        compiled = compile_program(program)
        fixpoint = seminaive(
            database, compiled.analysis.normalized, store=store
        ).instance
        return compiled, database, fixpoint, FixpointMaintainer(
            compiled, fixpoint
        )

    def test_rejects_existential_programs(self):
        program, _ = parse_program("p(a). r(X,Z) :- p(X).")
        compiled = compile_program(program)
        assert unmaintainable_reason(compiled.analysis) is not None
        with pytest.raises(ValueError, match="not maintainable"):
            FixpointMaintainer(compiled, Database())

    @pytest.mark.parametrize("store", BACKENDS)
    def test_insert_fast_path(self, store):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            TC_SOURCE, store
        )
        edb.add(f("e", "c", "d"))
        stats = maintainer.apply([f("e", "c", "d")], [], edb=edb)
        assert f("t", "a", "d") in fixpoint
        assert stats.derived_added == 3  # t(c,d), t(b,d), t(a,d)
        assert stats.removed == 0

    @pytest.mark.parametrize("store", BACKENDS)
    def test_retract_dred(self, store):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            TC_SOURCE, store
        )
        edb.discard(f("e", "b", "c"))
        stats = maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert set(fixpoint) == {f("e", "a", "b"), f("t", "a", "b")}
        assert stats.overdeleted == 2  # t(b,c), t(a,c)
        assert stats.removed == 3      # plus the EDB fact itself
        assert stats.dred_strata >= 1

    def test_rederivation_keeps_alternative_proofs(self):
        compiled, edb, fixpoint, maintainer = self._maintainer("""
            e(a,b). g(a,b).
            t(X,Y) :- e(X,Y).
            t(X,Y) :- g(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        edb.discard(f("e", "a", "b"))
        stats = maintainer.apply([], [f("e", "a", "b")], edb=edb)
        assert f("t", "a", "b") in fixpoint
        assert stats.rederived >= 1

    def test_counting_stratum_deletes_without_rederive(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        edb.discard(f("e", "b", "c"))
        stats = maintainer.apply([], [f("e", "b", "c")], edb=edb)
        assert f("reach", "b") not in fixpoint
        assert f("reach", "a") in fixpoint
        assert stats.counting_strata == 1

    def test_counting_survives_multi_support(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        # reach(a) is supported by t(a,b) and t(a,c); killing one
        # support must not delete it (counting, not set-diff).
        edb.add(f("e", "a", "c"))
        maintainer.apply([f("e", "a", "c")], [], edb=edb)
        edb.discard(f("e", "a", "b"))
        maintainer.apply([], [f("e", "a", "b")], edb=edb)
        assert f("reach", "a") in fixpoint
        assert f("t", "a", "c") in fixpoint

    def test_edb_assertion_of_derived_predicate(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(TC_SOURCE)
        # assert t(c,a) directly, then retract it again
        edb.add(f("t", "c", "a"))
        maintainer.apply([f("t", "c", "a")], [], edb=edb)
        assert f("t", "a", "a") in fixpoint  # derived through the cycle
        edb.discard(f("t", "c", "a"))
        maintainer.apply([], [f("t", "c", "a")], edb=edb)
        program, database = parse_program(TC_SOURCE)
        assert set(fixpoint) == set(seminaive(database, program).instance)

    def test_mixed_batch_is_one_pass(self):
        compiled, edb, fixpoint, maintainer = self._maintainer(
            LAYERED_SOURCE
        )
        edb.discard(f("e", "a", "b"))
        edb.add(f("e", "a", "c"))
        stats = maintainer.apply(
            [f("e", "a", "c")], [f("e", "a", "b")], edb=edb
        )
        expected, _ = parse_program(
            "e(a,c). e(b,c)." + TC_SOURCE.split(".", 2)[2]
        )
        assert stats.edb_inserted == 1 and stats.edb_retracted == 1
        assert f("t", "a", "c") in fixpoint
        assert f("t", "a", "b") not in fixpoint
        assert f("reach", "a") in fixpoint


class TestSessionApply:
    def test_watermark_bumps_once_per_effective_batch(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        report = session.apply(
            ChangeSet.of(inserts=[f("e", "c", "d")],
                         retracts=[f("e", "a", "b")])
        )
        assert session.edb_version == version + 1
        assert report.version == session.edb_version
        assert session.mutations.watermark == session.edb_version

    def test_noop_batch_does_not_bump(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        report = session.apply(
            ChangeSet.of(inserts=[f("e", "a", "b")],   # already present
                         retracts=[f("e", "z", "z")])  # never present
        )
        assert session.edb_version == version
        assert not report.maintained and not report.fallbacks

    def test_cancelling_ops_are_noop(self):
        session = Session()
        session.load(TC_SOURCE)
        version = session.edb_version
        session.apply(ChangeSet((("+", f("e", "c", "d")),
                                 ("-", f("e", "c", "d")))))
        assert session.edb_version == version

    def test_retract_facts_convenience(self):
        session = Session()
        session.load(TC_SOURCE)
        assert session.retract_facts([f("e", "b", "c")]) == 1
        assert session.answers("q(X,Y) :- t(X,Y).") == {(a, b)}

    def test_lagging_entry_caught_up_through_log(self):
        """Direct EDB writes (recorded late by a subsequent apply) are
        healed: the entry replays the composed missed batches."""
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).").to_set()
        report = session.apply(inserts=[f("e", "c", "d")])
        assert report.maintained
        second = session.apply(retracts=[f("e", "a", "b")])
        assert second.maintained
        stream = session.query("q(X,Y) :- t(X,Y).")
        assert stream.to_set() == frozenset(
            {(b, c), (c, d), (b, d)}
        )
        assert stream.stats.from_cache

    @pytest.mark.parametrize("store", ["instance", "columnar"])
    def test_stream_straddling_apply_is_not_cached(self, store):
        """Regression: a lazy stream started before an ``apply`` and
        drained after it saturated a mix of both EDBs; registering that
        store stamped with the new watermark served it as current."""
        session = Session(store=store)
        session.load(
            "e(a,b). e(b,c). e(c,d). e(d,f).\n"
            "t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z)."
        )
        query = "q(X,Y) :- t(X,Y)."
        it = iter(session.query(query, rewrite="none"))
        next(it)
        session.apply(inserts=[f("e", "f", "g")])
        list(it)
        again = session.query(query, rewrite="none")
        assert len(again.to_set()) == 15
        assert not again.stats.from_cache
        fresh = Session(store=store)
        fresh.load(
            "e(a,b). e(b,c). e(c,d). e(d,f). e(f,g).\n"
            "t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z)."
        )
        assert again.to_set() == fresh.query(query).to_set()

    def test_per_store_and_method_entries_all_maintained(self):
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).", method="datalog").to_set()
        session.query("q(X,Y) :- t(X,Y).", method="network").to_set()
        report = session.apply(inserts=[f("e", "c", "d")])
        assert len(report.maintained) == 2
        for method in ("datalog", "network"):
            stream = session.query("q(X,Y) :- t(X,Y).", method=method)
            assert (a, d) in stream.to_set()
            assert stream.stats.from_cache

    def test_plan_reports_maintainability(self):
        session = Session()
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        assert plan.maintainable
        assert "incremental" in plan.explain()
        existential = Session()
        existential.load("p(a). r(X,Z) :- p(X).")
        plan = existential.plan("q(X) :- r(X,Y).", method="chase")
        assert not plan.maintainable
        assert "recompute on EDB change" in plan.explain()

    def test_report_describe_mentions_strata(self):
        session = Session()
        session.load(LAYERED_SOURCE)
        session.query("q(X) :- reach(X).").to_set()
        report = session.apply(retracts=[f("e", "b", "c")])
        text = report.describe()
        assert "maintained datalog×instance fixpoint" in text
        assert "DRed" in text and "counting" in text


class TestLazyCatchupReporting:
    def test_lazy_fallback_reason_is_recorded(self):
        """A lagging cache healed (or dropped) on the read path leaves
        its report in session.catchup_reports instead of vanishing."""
        session = Session()
        session.load(TC_SOURCE)
        plan = session.plan("q(X,Y) :- t(X,Y).")
        session.query("q(X,Y) :- t(X,Y).").to_set()
        session.apply(inserts=[f("e", "c", "d")])
        # Simulate a direct-EDB mutation recorded late: rewind the
        # entry's watermark past the retained log window.
        (entry,) = session.fixpoints.entries()
        entry.version -= 1
        session.mutations.entries.clear()
        assert session.get_fixpoint(plan) is None  # dropped: log gap
        assert session.catchup_reports
        assert "mutation log" in session.catchup_reports[-1].fallbacks[0][1]
