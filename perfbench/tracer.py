"""An in-memory span tracer that instruments a program from the outside.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces chosen functions and methods with timing
wrappers for the length of one traced run and puts the originals back
afterwards:

* a module-level function is rebound in *every* loaded module that
  holds it, because callers often import it by name
  (``from .pwl_ward import decide_pwl_ward``) and a rebinding in the
  defining module alone would miss those call sites;
* a method is rebound on the class that defines it;
* a generator function is timed per ``next()``, so the wrapper stays
  exactly as lazy as the generator it wraps.

A span records its name, start, end, the span that was open on the
same thread when it began (its parent) and the op id current when it
began.  Spans stay in memory; :func:`self_times` and
:func:`op_accounting` read them after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "op_accounting", "self_times"]

_MISSING = object()


class Span:
    """One timed interval of one call (or one generator pull)."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls while installed.

    ``op`` is the id of the op in flight.  With one client in a closed
    loop only one op is in flight at a time, so a span that begins on a
    server thread belongs to the op the client set last.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.op = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None, self.op)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} ended out of order")
        stack.pop()

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: Optional[str],
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A wrapper of *fn* that records a span named *name* per call.

        A generator function gets one span per ``next()``.  *on_result*,
        if given, sees every return value (plain functions only).  With
        ``name=None`` no span is recorded and only *on_result* runs.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def pulls(*args, **kwargs):
                generator = fn(*args, **kwargs)
                try:
                    while True:
                        span = tracer.begin(name)
                        try:
                            item = next(generator)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer.end(span)
                        yield item
                finally:
                    generator.close()

            return pulls

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
            if on_result is not None:
                on_result(result)
            return result

        return call

    # -- installation --------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering what to restore."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: Optional[str],
        on_result=None,
    ) -> int:
        """Wrap ``module.attr`` wherever a loaded module binds it.

        Every loaded module of the same top-level package that holds
        the very same function object, under any name, is rebound.
        Returns the number of bindings replaced.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, on_result)
        prefix = module.split(".", 1)[0]
        replaced = 0
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.patch(loaded, key, wrapper)
                    replaced += 1
        return replaced

    def wrap_method(
        self, cls: type, attr: str, name: Optional[str], on_result=None
    ) -> None:
        """Wrap the method *attr* defined on *cls* itself."""
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, on_result))
        else:
            replacement = self.wrap(raw, name, on_result)
        self.patch(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- reading the spans ------------------------------------------------------


def _self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's, keyed by ``id(span)``.

    Children begin and end inside their parent on the parent's thread,
    and one thread runs one child at a time, so their durations add up
    to the part of the parent they cover.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered[id(span)] for span in spans}


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self seconds per span name."""
    spans = list(spans)
    own = _self_seconds(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[id(span)]
    return dict(totals)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def op_accounting(
    spans: Iterable[Span], ops: Dict[object, Tuple[float, float]]
) -> Dict[object, Tuple[float, float, float]]:
    """Per op: ``(wall, summed self time, unattributed time)`` in seconds.

    *ops* maps an op id to its ``(start, end)``.  Unattributed time is
    the part of the op's interval that no top-level span covers, so
    ``self + unattributed == wall`` holds exactly when the op's spans
    lie inside it and its top-level spans do not overlap.
    """
    spans = list(spans)
    own = _self_seconds(spans)
    self_sum: Dict[object, float] = defaultdict(float)
    top: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        self_sum[span.op] += own[id(span)]
        if span.parent is None:
            top[span.op].append((span.start, span.end))
    result = {}
    for op, (start, end) in ops.items():
        clipped = [
            (max(a, start), min(b, end)) for a, b in top[op] if b > start and a < end
        ]
        wall = end - start
        result[op] = (wall, self_sum[op], wall - _union_length(clipped))
    return result
