"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the package by module attribute: every
attribute of a loaded package module that is the original function object
is replaced by one wrapper, so calls through ``from .x import f`` bindings
are recorded too.  Each thread keeps its own span stack.  A span opened on a
thread whose stack is empty, such as a worker of ``run_experiment``'s pool,
is parented to the innermost span open on the thread that created the
tracer.  The wrappers are in place only inside ``with tracer:``.  A name
the package does not have is listed in ``absent`` and is otherwise ignored.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals; parallel children overlap."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        total += hi - lo
    return total


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._home: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module: str, attr: str, hook=None) -> None:
        """Record a span named ``module.attr`` around every traced call.

        ``hook(args, kwargs, result)``, if given, stores its return value
        on the span as ``info``; a hook that no longer fits the package's
        types leaves ``info`` as None.
        """
        original = getattr(sys.modules.get(f"{self.package}.{module}"), attr, None)
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        traced = self._wrapper(original, f"{module}.{attr}", hook)
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, traced))

    def __enter__(self) -> "Tracer":
        for mod, key, _, traced in self._patches:
            setattr(mod, key, traced)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original, _ in reversed(self._patches):
            setattr(mod, key, original)

    def _wrapper(self, fn, name: str, hook):
        spans = self.spans
        home = self._home

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = home[-1]
                except IndexError:
                    parent = None
            span = Span(name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if hook is not None:
                try:
                    span.info = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        return {id(span): (span.end - span.start) - _covered(children[id(span)])
                for span in self.spans}
