"""Unit tests for the magic-set (demand) rewriting and its plan wiring."""

import pytest

from repro.api import (
    REWRITES,
    FixpointCache,
    Planner,
    Session,
    compile_program,
)
from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers, seminaive
from repro.lang.parser import parse_program, parse_query
from repro.rewriting import (
    MagicNotApplicable,
    adorn_program,
    binding_pattern,
    magic_rewrite,
    query_constants,
)
from repro.server import ReasoningService

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")

TC_SOURCE = """
    e(a,b). e(b,c). e(c,d). e(x,y).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

STRATIFIED_SOURCE = TC_SOURCE + """
    m(X,Y) :- t(X,Y), t(Y,X).
    r(X) :- t(X,Y).
"""

EXISTENTIAL_SOURCE = """
    p(a).
    r(X,K) :- p(X).
    p(Y) :- r(X,Y).
"""


def _magic_answers(program, database, query):
    """Ground truth helper: run the demand program directly."""
    rewriting = magic_rewrite(program, query)
    seeded = list(database) + list(rewriting.seed)
    return rewriting, seminaive(seeded, rewriting.program).evaluate(
        rewriting.query
    )


class TestRewriteCore:
    @pytest.mark.parametrize(
        "query_text",
        [
            "q(Y) :- t(a,Y).",
            "q(X) :- t(X,d).",
            "q() :- t(a,d).",
            "q() :- t(a,z).",          # empty answer
            "q(X,Y) :- t(X,Y).",       # no bound argument
            "q(Y) :- e(a,X), t(X,Y).",  # EDB prefix binds the demand
            "q(Y,Z) :- t(a,Y), t(Y,Z).",  # chained IDB atoms
            "q(X) :- r(X).",
            "q(Y) :- m(a,Y).",
        ],
    )
    def test_answers_equal_unrewritten(self, query_text):
        program, database = parse_program(STRATIFIED_SOURCE)
        query = parse_query(query_text)
        _, got = _magic_answers(program, database, query)
        assert got == datalog_answers(query, database, program)

    def test_rewritten_program_is_full_single_head(self):
        program, _ = parse_program(TC_SOURCE)
        rewriting = magic_rewrite(program, parse_query("q(Y) :- t(a,Y)."))
        assert rewriting.program.is_full()
        assert rewriting.program.is_single_head()

    def test_seed_facts_are_ground_magic_atoms(self):
        program, _ = parse_program(TC_SOURCE)
        rewriting = magic_rewrite(program, parse_query("q(Y) :- t(a,Y)."))
        assert len(rewriting.seed) == 1
        seed = rewriting.seed[0]
        assert seed.is_ground()
        assert seed.predicate in rewriting.adorned.magic_predicates
        assert seed.args == (a,)

    def test_demand_skips_irrelevant_facts(self):
        """The headline: a point query derives a fraction of the TC."""
        program, database = parse_program(TC_SOURCE)
        query = parse_query("q(Y) :- t(x,Y).")  # the 2-node component
        rewriting, got = _magic_answers(program, database, query)
        assert got == datalog_answers(query, database, program)
        seeded = list(database) + list(rewriting.seed)
        demand = seminaive(seeded, rewriting.program)
        full = seminaive(database, program)
        assert demand.derived < full.derived

    def test_asserted_idb_facts_flow_through_copy_rules(self):
        program, database = parse_program(
            "e(a,b). t(c,d).\n" + "t(X,Y) :- e(X,Y).\n"
            "t(X,Z) :- e(X,Y), t(Y,Z)."
        )
        query = parse_query("q(Y) :- t(c,Y).")
        _, got = _magic_answers(program, database, query)
        assert got == datalog_answers(query, database, program) == {(d,)}

    def test_constants_in_rule_bodies_and_heads(self):
        program, database = parse_program(
            "e(a,b). e(b,c).\n"
            "t(X,Y) :- e(X,Y).\n"
            "t(a,Y) :- t(b,Y)."
        )
        for query_text in ("q(Y) :- t(a,Y).", "q(Y) :- t(b,Y)."):
            query = parse_query(query_text)
            _, got = _magic_answers(program, database, query)
            assert got == datalog_answers(query, database, program)

    def test_repeated_variable_in_query(self):
        program, database = parse_program(
            "e(a,a). e(a,b).\n" + "t(X,Y) :- e(X,Y)."
        )
        query = parse_query("q(X) :- t(X,X), t(a,X).")
        _, got = _magic_answers(program, database, query)
        assert got == datalog_answers(query, database, program) == {(a,)}

    def test_existential_program_rejected(self):
        program, _ = parse_program(EXISTENTIAL_SOURCE)
        with pytest.raises(MagicNotApplicable, match="full"):
            magic_rewrite(program, parse_query("q(Y) :- r(a,Y)."))

    def test_multi_head_program_normalized_first(self):
        program, database = parse_program("e(a,b).\n")
        from repro.core.atoms import Atom
        from repro.core.program import Program
        from repro.core.tgd import TGD
        from repro.core.terms import Variable

        X, Y = Variable("X"), Variable("Y")
        multi = Program(
            [TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)), Atom("s", (Y,))))]
        )
        query = parse_query("q(Y) :- t(a,Y).")
        rewriting = magic_rewrite(multi, query)
        seeded = list(database) + list(rewriting.seed)
        got = seminaive(seeded, rewriting.program).evaluate(rewriting.query)
        assert got == {(b,)}


class TestBindingPattern:
    def test_constant_identity_abstracted(self):
        p1 = binding_pattern(parse_query("q(Y) :- t(a,Y)."))
        p2 = binding_pattern(parse_query("q(Y) :- t(b,Y)."))
        assert p1 == p2

    def test_constant_placement_matters(self):
        p1 = binding_pattern(parse_query("q(Y) :- t(a,Y)."))
        p2 = binding_pattern(parse_query("q(Y) :- t(Y,a)."))
        assert p1 != p2

    def test_repeated_constant_shares_placeholder(self):
        p1 = binding_pattern(parse_query("q() :- t(a,a)."))
        p2 = binding_pattern(parse_query("q() :- t(a,b)."))
        assert p1 != p2

    def test_query_constants_first_occurrence_order(self):
        query = parse_query("q(X) :- t(b,X), t(a,b).")
        assert query_constants(query) == (Constant("b"), Constant("a"))

    def test_instantiate_rejects_other_pattern(self):
        program, _ = parse_program(TC_SOURCE)
        adorned = adorn_program(program, parse_query("q(Y) :- t(a,Y)."))
        with pytest.raises(ValueError, match="binding pattern"):
            adorned.instantiate(parse_query("q(Y) :- t(Y,a)."))

    def test_instantiate_shared_across_constants(self):
        program, database = parse_program(TC_SOURCE)
        adorned = adorn_program(program, parse_query("q(Y) :- t(a,Y)."))
        for constant, expected in ((a, {(b,), (c,), (d,)}),
                                   (b, {(c,), (d,)})):
            query = parse_query(f"q(Y) :- t({constant.value},Y).")
            rewriting = adorned.instantiate(query)
            seeded = list(database) + list(rewriting.seed)
            got = seminaive(seeded, rewriting.program).evaluate(
                rewriting.query
            )
            assert got == expected


class TestPlannerRewriteDimension:
    def plan_for(self, source, query_text, **kwargs):
        program, _ = parse_program(source)
        return Planner().plan(
            compile_program(program), parse_query(query_text), **kwargs
        )

    def test_auto_applies_on_bound_full_query(self):
        plan = self.plan_for(TC_SOURCE, "q(Y) :- t(a,Y).")
        assert plan.rewrite == "magic"
        assert plan.rewriting is not None
        assert not plan.maintainable
        assert "demand-specific" in plan.maintenance

    def test_auto_skips_unbound_query(self):
        plan = self.plan_for(TC_SOURCE, "q(X,Y) :- t(X,Y).")
        assert plan.rewrite == "none"
        assert "no bound argument" in plan.rewrite_note

    def test_auto_skips_existential_program(self):
        plan = self.plan_for(EXISTENTIAL_SOURCE, "q(Y) :- r(a,Y).")
        assert plan.rewrite == "none"

    def test_none_disables(self):
        plan = self.plan_for(TC_SOURCE, "q(Y) :- t(a,Y).", rewrite="none")
        assert plan.rewrite == "none"
        assert plan.rewriting is None

    def test_magic_forced_without_bound_argument(self):
        plan = self.plan_for(TC_SOURCE, "q(X,Y) :- t(X,Y).", rewrite="magic")
        assert plan.rewrite == "magic"
        # The plan must not claim a restriction that is not happening.
        assert "(forced)" in plan.rewrite_note
        assert not any("restricts evaluation" in r for r in plan.reasons)
        assert any("does not restrict" in r for r in plan.reasons)

    def test_magic_forced_on_existential_program_rejected(self):
        with pytest.raises(ValueError, match="full"):
            self.plan_for(
                EXISTENTIAL_SOURCE, "q(Y) :- r(a,Y).", rewrite="magic"
            )

    def test_magic_forced_on_non_datalog_engine_rejected(self):
        with pytest.raises(ValueError, match="datalog"):
            self.plan_for(
                TC_SOURCE, "q(Y) :- t(a,Y).", rewrite="magic", method="chase"
            )

    def test_unknown_rewrite_rejected(self):
        with pytest.raises(ValueError, match="unknown rewrite"):
            self.plan_for(TC_SOURCE, "q(Y) :- t(a,Y).", rewrite="bogus")

    def test_explain_has_rewrite_line(self):
        plan = self.plan_for(TC_SOURCE, "q(Y) :- t(a,Y).")
        text = plan.explain()
        assert "rewrite : magic — " in text
        unbound = self.plan_for(TC_SOURCE, "q(X,Y) :- t(X,Y).")
        assert "rewrite : none (" in unbound.explain()

    def test_rewrites_registry(self):
        assert REWRITES == ("auto", "magic", "none")


class TestSessionIntegration:
    def test_answers_equal_across_rewrite_modes(self):
        session = Session()
        session.load(STRATIFIED_SOURCE)
        for query_text in ("q(Y) :- t(a,Y).", "q(Y) :- m(a,Y).",
                           "q() :- t(a,d)."):
            auto = session.query(query_text).to_set()
            off = session.query(query_text, rewrite="none").to_set()
            assert auto == off, query_text

    def test_adorned_program_cached_per_pattern(self):
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(Y) :- t(a,Y).").to_set()
        session.query("q(Y) :- t(b,Y).").to_set()
        assert len(session._adorned) == 1
        session.query("q(X) :- t(X,d).").to_set()
        assert len(session._adorned) == 2

    def test_magic_fixpoint_cached_per_seed(self):
        session = Session()
        session.load(TC_SOURCE)
        first = session.query("q(Y) :- t(a,Y).")
        first.to_set()
        assert not first.stats.from_cache
        again = session.query("q(Y) :- t(a,Y).")
        again.to_set()
        assert again.stats.from_cache
        other = session.query("q(Y) :- t(b,Y).")
        assert other.to_set() == frozenset({(c,), (d,)})
        assert not other.stats.from_cache  # different seed, own entry

    def test_apply_falls_back_for_magic_fixpoints(self):
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(Y) :- t(a,Y).").to_set()
        _, extra = parse_program("e(d,e).")
        report = session.apply(extra)
        assert any(
            "demand-specific" in reason for _, reason in report.fallbacks
        )
        stream = session.query("q(Y) :- t(a,Y).")
        assert stream.to_set() == frozenset(
            {(b,), (c,), (d,), (Constant("e"),)}
        )
        assert not stream.stats.from_cache  # recomputed, not maintained

    def test_apply_keeps_maintaining_unrewritten_fixpoints(self):
        session = Session()
        session.load(TC_SOURCE)
        session.query("q(X,Y) :- t(X,Y).").to_set()
        session.query("q(Y) :- t(a,Y).").to_set()
        _, extra = parse_program("e(d,e).")
        report = session.apply(extra)
        assert report.maintained  # the full fixpoint was upgraded
        assert report.fallbacks   # the magic one fell back, recorded
        stream = session.query("q(X,Y) :- t(X,Y).")
        stream.to_set()
        assert stream.stats.from_cache

    def test_seed_constants_with_equal_str_do_not_collide(self):
        """Regression: the fixpoint-cache token used to stringify seed
        constants, so Constant(1) and Constant("1") collided and one
        query's demand fixpoint answered the other query."""
        from repro.core.atoms import Atom
        from repro.core.program import Program
        from repro.core.query import ConjunctiveQuery
        from repro.core.tgd import TGD
        from repro.core.terms import Variable

        X, Y = Variable("X"), Variable("Y")
        program = Program([TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)),))])
        session = Session()
        session.compile(program)
        session.add_facts(
            [
                Atom("e", (Constant(1), Constant("one"))),
                Atom("e", (Constant("1"), Constant("uno"))),
            ]
        )
        int_query = ConjunctiveQuery((Y,), (Atom("t", (Constant(1), Y)),))
        str_query = ConjunctiveQuery((Y,), (Atom("t", (Constant("1"), Y)),))
        assert set(session.query(int_query).to_set()) == {
            (Constant("one"),)
        }
        assert set(session.query(str_query).to_set()) == {
            (Constant("uno"),)
        }

    def test_auto_declines_when_constants_bind_no_idb(self):
        """A constant that never reaches an intensional predicate gives
        an all-free demand — strictly more work than no rewriting, so
        ``auto`` declines (and says why); forcing magic still works."""
        session = Session()
        session.load(TC_SOURCE)
        # W is dead: the constant binds only the EDB atom, t stays ff.
        query = "q(X,Y) :- e(a,W), t(X,Y)."
        plan = session.plan(query)
        assert plan.rewrite == "none"
        assert "all-free" in plan.rewrite_note
        auto = session.query(query).to_set()
        forced = session.query(query, rewrite="magic")
        assert forced.to_set() == auto
        assert forced.stats.rewrite == "magic"
        # When the EDB prefix *feeds* the recursion, auto stays on.
        assert session.plan("q(Y) :- e(a,X), t(X,Y).").rewrite == "magic"

    def test_adorned_program_cache_is_bounded(self):
        session = Session()
        session.load("e(a,b).\nt(X,Y) :- e(X,Y).")
        # Binding patterns abstract constant *identity* but keep
        # variable names, so each differently-named output variable is
        # a distinct pattern.
        for i in range(Session._ADORNED_CACHE_LIMIT + 8):
            session.plan(f"q(V{i}) :- t(a,V{i}).")
        assert len(session._adorned) == Session._ADORNED_CACHE_LIMIT

    @pytest.mark.parametrize("surface", ["session", "service"])
    def test_magic_fixpoint_cache_is_bounded(self, surface):
        facts = " ".join(f"e(n{i},m{i})." for i in range(40))
        source = facts + "\nt(X,Y) :- e(X,Y)."
        if surface == "session":
            session = Session()
            session.load(source)
            cache = session.fixpoints

            def from_cache(query):
                stream = session.query(query)
                stream.to_set()
                return stream.stats.from_cache

        else:
            service = ReasoningService(source)
            with service.snapshots.current() as lease:
                cache = lease.snapshot.cache

            def from_cache(query):
                return service.query(query).stats["from_cache"]

        limit = FixpointCache.MAGIC_LIMIT
        for i in range(limit):
            from_cache(f"q(Y) :- t(n{i},Y).")
        # A re-read makes n0 the most recently used entry: the next
        # registrations evict n1 onwards, never n0.
        assert from_cache("q(Y) :- t(n0,Y).")
        for i in range(limit, 40):
            from_cache(f"q(Y) :- t(n{i},Y).")
        magic_entries = [
            entry
            for entry in cache.entries()
            if entry.rewrite == "magic"
        ]
        assert len(magic_entries) == FixpointCache.MAGIC_LIMIT
        # The most recent point query is still served from cache.
        assert from_cache("q(Y) :- t(n39,Y).")
        assert from_cache("q(Y) :- t(n0,Y).")
        assert not from_cache("q(Y) :- t(n1,Y).")

    def test_store_backends_agree(self):
        expected = None
        for backend in ("instance", "columnar", "delta"):
            session = Session(store=backend)
            session.load(STRATIFIED_SOURCE)
            got = set(session.query("q(Y) :- t(a,Y).").to_set())
            if expected is None:
                expected = got
            assert got == expected, backend


class TestCLI:
    def run_cli(self, tmp_path, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def write_program(self, tmp_path):
        path = tmp_path / "tc.vada"
        path.write_text(TC_SOURCE)
        return path

    def test_answer_rewrite_flag(self, tmp_path):
        path = self.write_program(tmp_path)
        code, text = self.run_cli(
            tmp_path, "answer", str(path),
            "--query", "q(Y) :- t(a,Y).", "--explain",
        )
        assert code == 0
        assert "rewrite : magic — " in text
        assert "-- 3 certain answer(s)" in text
        code, text = self.run_cli(
            tmp_path, "answer", str(path),
            "--query", "q(Y) :- t(a,Y).", "--explain", "--rewrite", "none",
        )
        assert code == 0
        assert "rewrite : none (disabled by the caller)" in text
        assert "-- 3 certain answer(s)" in text

    def test_query_rewrite_flag(self, tmp_path):
        path = self.write_program(tmp_path)
        code, text = self.run_cli(
            tmp_path, "query", str(path),
            "--query", "q(Y) :- t(a,Y).", "--rewrite", "magic",
        )
        assert code == 0
        assert "-- 3 certain answer(s)" in text

    def test_update_maintains_bound_query_fixpoints(self, tmp_path):
        """Regression: the ``update`` subcommand's warm queries must
        cache a *maintainable* fixpoint (rewrite defaults to none
        there), so deltas are upgraded in place — not dropped via the
        magic fallback and recomputed."""
        import io

        from repro.cli import main

        path = self.write_program(tmp_path)
        out = io.StringIO()
        code = main(
            ["update", str(path), "--query", "q(Y) :- t(a,Y)."],
            out=out,
            stdin=io.StringIO("+e(d,z).\n"),
        )
        text = out.getvalue()
        assert code == 0
        assert "maintained" in text
        assert "fallback" not in text
        assert "(z)" in text
