"""Tests of the benchmark's tracer and its layer wrappers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from perfbench.layers import METHODS, LayerProbe  # noqa: E402
from perfbench.run import ACCOUNTING_BOUND  # noqa: E402
from perfbench.tracer import Tracer, op_accounting, self_times  # noqa: E402
from perfbench.workloads import run_workload  # noqa: E402


class FakeClock:
    """Advances one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _bindings():
    """Every attribute of every loaded ``repro`` module and wrapped class."""
    import importlib

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            seen[name] = dict(vars(module))
    for _, module, cls, _ in METHODS:
        owner = getattr(importlib.import_module(module), cls)
        seen[f"{module}.{cls}"] = dict(vars(owner))
    from repro.storage.columnar import ColumnarStore

    seen["ColumnarStore"] = dict(vars(ColumnarStore))
    return seen


def _code(value) -> bool:
    return callable(value) or isinstance(value, (classmethod, staticmethod))


def _changed(before, after):
    """Functions, methods and classes rebound between two snapshots
    (plain data such as counters may change)."""
    changed = []
    for owner, attrs in before.items():
        now = after.get(owner, {})
        for key in set(attrs) | set(now):
            old, new = attrs.get(key), now.get(key)
            if old is not new and (_code(old) or _code(new)):
                changed.append(f"{owner}.{key}")
    return changed


def test_self_time_subtracts_children():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.begin("outer")          # t=1
    inner = tracer.begin("inner")          # t=2
    tracer.end(inner)                      # t=3
    tracer.end(outer)                      # t=4
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}
    assert inner.parent is outer


def test_spans_must_end_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrapped_generator_stays_lazy():
    ran = []

    def numbers():
        ran.append("started")
        for value in range(3):
            ran.append(value)
            yield value

    tracer = Tracer()
    wrapped = tracer.wrap(numbers, "pull")
    stream = wrapped()
    assert ran == [] and tracer.spans == []
    assert next(stream) == 0
    assert ran == ["started", 0]
    assert len(tracer.spans) == 1
    assert list(stream) == [1, 2]
    # One span per pull, the last one the pull that found the end.
    assert len(tracer.spans) == 4
    assert all(span.name == "pull" for span in tracer.spans)


def test_closing_a_wrapped_generator_closes_the_original():
    closed = []

    def numbers():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    stream = Tracer().wrap(numbers, "pull")()
    assert next(stream) == 1
    stream.close()
    assert closed == [True]


def test_on_result_sees_every_return_value():
    seen = []
    tracer = Tracer()
    double = tracer.wrap(lambda x: 2 * x, None, seen.append)
    assert double(3) == 6 and double(4) == 8
    assert seen == [6, 8]
    assert tracer.spans == []  # name=None records no span


def test_function_is_rebound_where_imported_by_name():
    import repro.reasoning.answers as answers
    import repro.reasoning.pwl_ward as pwl_ward

    original = pwl_ward.decide_pwl_ward
    assert answers.decide_pwl_ward is original
    tracer = Tracer()
    replaced = tracer.wrap_function(
        "repro.reasoning.pwl_ward", "decide_pwl_ward", "decide"
    )
    try:
        assert replaced >= 2
        assert answers.decide_pwl_ward is not original
        assert pwl_ward.decide_pwl_ward is answers.decide_pwl_ward
    finally:
        tracer.uninstall()
    assert answers.decide_pwl_ward is original
    assert pwl_ward.decide_pwl_ward is original


def test_op_accounting_splits_wall_time():
    tracer = Tracer(clock=FakeClock())
    tracer.op = 0
    tracer.end(tracer.begin("a"))          # t=1..2
    assert op_accounting(tracer.spans, {0: (0.0, 4.0)}) == {0: (4.0, 1.0, 3.0)}


def test_op_accounting_flags_a_span_outside_its_op():
    tracer = Tracer(clock=FakeClock())
    tracer.op = 0
    tracer.end(tracer.begin("a"))          # t=1..2, inside the op
    tracer.end(tracer.begin("late"))       # t=3..4, after the op ended
    wall, self_sum, unattributed = op_accounting(
        tracer.spans, {0: (0.0, 2.5)}
    )[0]
    assert abs(self_sum + unattributed - wall) > ACCOUNTING_BOUND * wall


@pytest.mark.parametrize("workload", ["serve-churn", "serve-read"])
def test_untraced_run_installs_nothing(workload):
    before = _bindings()
    run_workload(workload, 3, segments=1)
    assert _changed(before, _bindings()) == []


@pytest.mark.parametrize("workload", ["serve-read", "serve-churn", "proof-cold"])
def test_traced_run_accounts_every_op_and_uninstalls(workload):
    probe = LayerProbe(Tracer())
    probe.install()                        # imports every repro module
    probe.tracer.uninstall()
    before = _bindings()
    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        assert _changed(before, _bindings())  # something is wrapped
        result = run_workload(workload, 3, segments=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert _changed(before, _bindings()) == []
    assert all(record.error is None for record in result.ops)
    names = {span.name for span in tracer.spans}
    assert "api.plan" in names
    accounting = op_accounting(
        tracer.spans, {r.op_id: (r.began, r.ended) for r in result.ops}
    )
    assert len(accounting) == len(result.ops)
    for wall, self_sum, unattributed in accounting.values():
        assert abs(self_sum + unattributed - wall) <= ACCOUNTING_BOUND * wall
        assert unattributed >= -ACCOUNTING_BOUND * wall
