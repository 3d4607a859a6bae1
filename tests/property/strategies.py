"""Shared hypothesis strategies for the property-based tests."""

import random

from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.incremental import ChangeSet

PREDICATES = ["p", "q", "r", "s"]
VARIABLE_NAMES = ["X", "Y", "Z", "W", "V"]
CONSTANT_VALUES = ["a", "b", "c"]


def variables():
    return st.sampled_from(VARIABLE_NAMES).map(Variable)


def constants():
    return st.sampled_from(CONSTANT_VALUES).map(Constant)


def terms():
    return st.one_of(variables(), constants())


def atoms(max_arity: int = 3):
    """Random flat atoms over a small vocabulary."""
    return st.builds(
        lambda pred, args: Atom(f"{pred}{len(args)}", tuple(args)),
        st.sampled_from(PREDICATES),
        st.lists(terms(), min_size=1, max_size=max_arity),
    )


def atom_sets(min_size: int = 1, max_size: int = 5):
    return st.lists(atoms(), min_size=min_size, max_size=max_size).map(tuple)


def renamings():
    """A random injective renaming of the variable vocabulary."""
    return st.permutations(
        [f"R{i}" for i in range(len(VARIABLE_NAMES))]
    ).map(
        lambda names: {
            Variable(old): Variable(new)
            for old, new in zip(VARIABLE_NAMES, names)
        }
    )


_X, _Y, _Z = Variable("X"), Variable("Y"), Variable("Z")

#: Linear TC (recursive stratum → DRed) feeding two non-recursive
#: strata (→ counting); heads of every stratum are also legal EDB
#: predicates, so retraction of derived-predicate assertions is hit.
MAINTAINABLE_PROGRAM = Program(
    [
        TGD((Atom("e", (_X, _Y)),), (Atom("t", (_X, _Y)),)),
        TGD(
            (Atom("e", (_X, _Y)), Atom("t", (_Y, _Z))),
            (Atom("t", (_X, _Z)),),
        ),
        TGD(
            (Atom("t", (_X, _Y)), Atom("t", (_Y, _X))),
            (Atom("m", (_X, _Y)),),
        ),
        TGD((Atom("t", (_X, _Y)),), (Atom("r", (_X,)),)),
    ],
    name="prop-incremental",
)

#: (predicate, arity) pool for generated facts of
#: :data:`MAINTAINABLE_PROGRAM` — EDB *and* derived.
MAINTAINABLE_FACTS = (("e", 2), ("t", 2), ("m", 2), ("r", 1))


@st.composite
def op_streams(draw, queries: int = 1):
    """A seed database plus a random insert/retract/query interleaving
    over :data:`MAINTAINABLE_FACTS`; query ops carry an index below
    *queries*, and the stream always ends with query 0."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(min_value=3, max_value=5))

    def fact(predicate, arity):
        return Atom(
            predicate,
            tuple(Constant(f"n{rng.randrange(n)}") for _ in range(arity)),
        )

    seed = {fact("e", 2) for _ in range(draw(st.integers(1, 6)))}
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = rng.choice(("insert", "retract", "mixed", "query"))
        if kind == "query":
            ops.append(("query", rng.randrange(queries)))
            continue
        inserts, retracts = [], []
        if kind in ("insert", "mixed"):
            inserts = [
                fact(*rng.choice(MAINTAINABLE_FACTS))
                for _ in range(rng.randrange(1, 4))
            ]
        if kind in ("retract", "mixed"):
            retracts = [
                fact(*rng.choice(MAINTAINABLE_FACTS))
                for _ in range(rng.randrange(1, 4))
            ]
        ops.append(("apply", ChangeSet.of(inserts=inserts, retracts=retracts)))
    ops.append(("query", 0))  # always check the final state
    return Database(seed), ops
