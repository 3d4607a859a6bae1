"""The public session layer — one front door to the reproduction.

The Vadalog system exposes a single query interface over a pipeline of
operators; this package is that shape for the reproduction:

* :class:`Session` — owns a fact-storage backend and a shared EDB,
  reusable across many queries; caches compiled programs, and star
  abstractions and saturated materializations in a
  :class:`FixpointCache` upgraded in place under EDB changes;
* :class:`CompiledProgram` — parse → classify → stratify → lint → plan
  exactly once (``compiled.analysis_runs == 1`` and
  ``compiled.lint_runs == 1`` no matter how many queries run); programs
  with error-severity diagnostics are rejected at planning time with a
  :class:`~repro.lint.LintError`;
* :class:`Planner` / :class:`QueryPlan` — engine auto-dispatch as an
  inspectable artifact with a stable ``explain()``;
* :class:`AnswerStream` — a pull-based, replayable iterator of certain
  answers: first tuples surface without materializing the full set.

Quickstart::

    from repro.api import Session

    session = Session(store="columnar")
    session.load('''
        edge(a, b).  edge(b, c).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
    ''')
    stream = session.query("q(X, Y) :- tc(X, Y).")
    print(stream.first(1))        # first answer, engine barely started
    print(sorted(stream.to_set()))  # the full certain-answer set

The legacy entry points (``certain_answers``, ``chase_answers``,
``datalog_answers``, ``chase``, ``seminaive``, ``OperatorNetwork.run``)
remain as thin wrappers over this layer.
"""

from ..lint import LintError
from .cache import FixpointCache
from .execution import execute_plan
from .planner import ENGINES, EXEC_MODES, REWRITES, Planner, QueryPlan
from .program import CompiledProgram, ProgramAnalysis, compile_program
from .session import Session
from .stream import AnswerStream, StreamStats

__all__ = [
    "LintError",
    "Session",
    "FixpointCache",
    "CompiledProgram",
    "ProgramAnalysis",
    "compile_program",
    "Planner",
    "QueryPlan",
    "ENGINES",
    "EXEC_MODES",
    "REWRITES",
    "AnswerStream",
    "StreamStats",
    "execute_plan",
]
