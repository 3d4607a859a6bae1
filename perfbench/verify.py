"""Ground truth for every recorded op, computed after the runs.

The serving workloads are checked against a from-scratch fixpoint over
the EDB state of each answer's admitted version, rebuilt from the
trace's own update stream: plain semi-naive evaluation on a fresh
columnar store (batch kernels; no magic rewriting, no maintenance, no
caches, no version overlays).  The interpreter would be the more
independent reference, but at seconds per version it would dominate
the run; the kernels are checked against it by the repo's tests.

``proof-cold`` answers are checked against the restricted chase where
it saturates within a budget, and against the AND-OR search of the
ward engine where it does not.  Once the chase of a program gave up, the
program's scenarios in later corpora go to the ward engine directly.

An op fails when it raised, when its version is not one the trace can
produce, or when its answer digest differs from the truth.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["ProofTruth", "ServeTruth", "check"]

#: The chase budget for proof-cold ground truth.  Chases of the corpus
#: scenarios that terminate stay under a few hundred atoms; the others
#: (existentials feeding recursion) never do, and fall back to the ward
#: engine, so a small budget only saves the time spent giving up.
CHASE_ATOMS = 1000


class ServeTruth:
    """Expected digests and versions of one serving segment's trace."""

    def __init__(self, workload: str, segment: int):
        from repro.incremental import ChangeSet

        from .workloads import segment_inputs

        trace, scenario = segment_inputs(workload, segment)
        self._program = scenario.program
        state = set(scenario.database)
        self._states: List[frozenset] = [frozenset(state)]
        self._update_version: Dict[int, int] = {}
        for op in trace.ops:
            if op.kind != "update":
                continue
            inserts, retracts = ChangeSet.parse(op.changes).net()
            gone = [atom for atom in retracts if atom in state]
            new = [atom for atom in inserts if atom not in state]
            if gone or new:  # only an effective batch installs a version
                state.difference_update(gone)
                state.update(new)
                self._states.append(frozenset(state))
            self._update_version[op.index] = len(self._states) - 1

    def _fixpoint(self, version: int):
        from repro.core.instance import Database
        from repro.datalog.seminaive import seminaive

        return seminaive(
            Database(self._states[version]), self._program, store="columnar"
        ).instance

    def failures(self, rows) -> List[str]:
        """Every failed op among *rows*, one fixpoint per version."""
        from repro.benchsuite import answer_digest
        from repro.lang.parser import parse_query

        found = []
        reads: Dict[int, list] = {}
        for _, index, kind, text, _, _, version, digest, error in rows:
            if error is not None:
                found.append(f"op {index}: {error}")
            elif kind == "update":
                expected = self._update_version[index]
                if version != expected:
                    found.append(
                        f"op {index}: update installed v{version}, "
                        f"expected v{expected}"
                    )
            elif not (
                isinstance(version, int) and 0 <= version < len(self._states)
            ):
                found.append(f"op {index}: unknown version {version}")
            else:
                reads.setdefault(version, []).append((index, text, digest))
        for version in sorted(reads):
            fixpoint = self._fixpoint(version)
            expected: Dict[str, str] = {}
            for index, text, digest in reads[version]:
                if text not in expected:
                    expected[text] = answer_digest(
                        parse_query(text).evaluate(fixpoint)
                    )
                if digest != expected[text]:
                    found.append(
                        f"op {index}: answers differ from ground truth "
                        f"at v{version}"
                    )
        return found


class ProofTruth:
    """Expected digests of one ``proof-cold`` corpus.

    *gave_up* holds the programs (as rule tuples) whose chase ran out of
    budget; share it between corpora so that no chase of the same
    program is tried again.  Any scenario may go to the ward engine, so
    this saves time without changing the truth.
    """

    def __init__(self, workload: str, segment: int, gave_up: set):
        from .workloads import segment_inputs

        self._corpus = segment_inputs(workload, segment)
        self._digests: Dict[str, str] = {}
        self._gave_up = gave_up

    def _expected(self, pair: str) -> str:
        from repro.benchsuite import answer_digest
        from repro.chase.runner import chase
        from repro.reasoning.answers import certain_answers

        if pair in self._digests:
            return self._digests[pair]
        scenario_index = int(pair.split("/")[0])
        scenario = self._corpus[scenario_index]
        program = tuple(scenario.program)
        result = None
        if program not in self._gave_up:
            result = chase(
                scenario.database, scenario.program, variant="restricted",
                max_atoms=CHASE_ATOMS, max_steps=2 * CHASE_ATOMS,
            )
            if not result.saturated:
                self._gave_up.add(program)
        for query_index, query in enumerate(scenario.queries):
            if result is not None and result.saturated:
                answers = result.evaluate(query)
            else:
                answers = certain_answers(
                    query, scenario.database, scenario.program, method="ward"
                )
            self._digests[f"{scenario_index}/{query_index}"] = answer_digest(
                answers
            )
        return self._digests[pair]

    def failures(self, rows) -> List[str]:
        found = []
        for segment, index, _, pair, _, _, _, digest, error in rows:
            if error is not None:
                found.append(f"op {segment}/{pair}: {error}")
            elif digest != self._expected(pair):
                found.append(f"op {segment}/{pair}: answers differ from ground truth")
        return found


def check(workload: str, rows) -> List[str]:
    """The failed ops among *rows*, from any runs of one workload."""
    by_segment: Dict[int, list] = {}
    for row in rows:
        by_segment.setdefault(row[0], []).append(row)
    gave_up: set = set()
    found = []
    for segment, segment_rows in by_segment.items():
        if workload == "proof-cold":
            truth = ProofTruth(workload, segment, gave_up)
        else:
            truth = ServeTruth(workload, segment)
        found += truth.failures(segment_rows)
    return found
