"""Spans recorded around calls into lralg, kept in memory.

A span has a name of the form ``<layer>.<call>``, a start, an end, the
span that was open when it began (its parent) and the id of the
operation it belongs to; every span of one operation shares that id.
The layer is the lralg module the call goes into.  Self time is a
span's duration minus the part of it that its children cover.

With tracing off, ``Tracer.span`` hands back one shared no-op context,
so the untraced run pays a method call per library call and nothing
else.
"""

import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    def __init__(self, tracer: "Tracer", name: str, root: bool):
        self.tracer = tracer
        self.name = name
        self.root = root

    def __enter__(self):
        return self.tracer._open(self.name, self.root)

    def __exit__(self, *exc):
        self.tracer._close()
        return False


class Tracer:
    """Collects spans for one iteration of a workload."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op_names: dict[int, str] = {}
        self._stack: list[Span] = []

    def span(self, name: str):
        """Context for one call into a layer, nested under the open span."""
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name, root=False)

    def operation(self, name: str):
        """Context for the root span of a new operation.  The span is named
        ``op.<name>``, so the harness's own time between library calls
        falls in the ``op`` layer."""
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name, root=True)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child of the open span from times measured
        elsewhere, such as a duration the library reports itself."""
        if not self.enabled:
            return
        parent = self._stack[-1]
        self.spans.append(Span(len(self.spans), parent.id, parent.op, name, start, end))

    def _open(self, name: str, root: bool) -> Span:
        if root:
            if self._stack:
                raise RuntimeError(f"operation {name!r} opened inside another span")
            op = len(self.op_names)
            self.op_names[op] = name
            name = f"op.{name}"
            parent = None
        else:
            if not self._stack:
                raise RuntimeError(f"span {name!r} opened outside an operation")
            op = self._stack[-1].op
            parent = self._stack[-1].id
        s = Span(len(self.spans), parent, op, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self) -> None:
        self._stack.pop().end = time.perf_counter()


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Layer -> (total, self) seconds.

    Total sums the spans of the layer that have no ancestor in the same
    layer, so a call that re-enters its own layer is not counted twice.
    Self sums the self times of all spans of the layer.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, list[float]] = {}
    for s in spans:
        acc = out.setdefault(s.layer, [0.0, 0.0])
        acc[1] += own[s.id]
        p = s.parent
        while p is not None and by_id[p].layer != s.layer:
            p = by_id[p].parent
        if p is None:
            acc[0] += s.duration
    return {k: (v[0], v[1]) for k, v in out.items()}
