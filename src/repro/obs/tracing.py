"""Lightweight probe tracing: spans, nesting, and a ring-buffer recorder.

A metric says *how often*; a trace says *what one probe actually did*.
``trace("lsm.get")`` opens a :class:`Span`; spans opened inside it become
children, so one ``LSMTree.get`` renders as a tree of per-level filter
checks, device reads, and retry attempts with monotonic timings.

Tracing is off by default and costs one context-variable read per
``trace()`` when off (the no-op fast path), so instrumented hot paths
stay cheap.  Turn it on by installing a :class:`TraceRecorder` — either
globally (:func:`set_default_recorder`) or scoped (:func:`use_recorder`);
completed *root* spans land in the recorder's bounded ring buffer,
oldest evicted first.

Nesting uses :mod:`contextvars`, so spans stay correctly parented across
threads and coroutines.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

_active: ContextVar["Span | None"] = ContextVar("repro_obs_active_span", default=None)
_recorder: "TraceRecorder | None" = None


class Span:
    """One timed operation; children are spans opened while it was active."""

    __slots__ = ("name", "tags", "start", "end", "children")

    def __init__(self, name: str, tags: dict[str, Any]):
        self.name = name
        self.tags = tags
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All spans in this tree with the given name."""
        return [s for s in self.walk() if s.name == name]

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name} {self.duration * 1e6:.1f}us children={len(self.children)}>"


class _NoopSpan:
    """Stand-in yielded when no recorder is installed and no span is open."""

    __slots__ = ()
    name = "<noop>"
    children: list = []

    def set_tag(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


class trace:
    """Context manager opening a span named *name* with the given tags.

    Fast path: when tracing is inactive (no recorder installed and no
    enclosing span), ``__enter__`` returns a shared no-op span without
    allocating.  When active, the span is parented under the enclosing
    span or recorded as a root on exit.  Exceptions mark the span with an
    ``error`` tag and propagate.
    """

    __slots__ = ("_name", "_tags", "_span", "_token", "_parent")

    def __init__(self, name: str, **tags: Any):
        self._name = name
        self._tags = tags
        self._span = None

    def __enter__(self):
        parent = _active.get()
        if parent is None and _recorder is None:
            return _NOOP
        span = Span(self._name, self._tags)
        self._parent = parent
        self._span = span
        self._token = _active.set(span)
        span.start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if span is None:
            return False
        span.end = time.perf_counter()
        _active.reset(self._token)
        if exc_type is not None:
            span.tags["error"] = exc_type.__name__
        if self._parent is not None:
            self._parent.children.append(span)
        elif _recorder is not None:
            _recorder.record(span)
        return False


def current_span() -> Span | None:
    """The innermost open span, or None when not tracing."""
    return _active.get()


class TraceRecorder:
    """Bounded ring buffer of completed root spans."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._roots: deque[Span] = deque(maxlen=capacity)
        self.recorded = 0  # total ever recorded, including evicted

    def record(self, span: Span) -> None:
        self._roots.append(span)
        self.recorded += 1

    @property
    def roots(self) -> list[Span]:
        return list(self._roots)

    def clear(self) -> None:
        self._roots.clear()

    def __len__(self) -> int:
        return len(self._roots)

    def find(self, name: str) -> list[Span]:
        """All spans of the given name across every recorded tree."""
        return [s for root in self._roots for s in root.find(name)]


def set_default_recorder(recorder: TraceRecorder | None) -> TraceRecorder | None:
    """Install (or, with None, remove) the process-wide recorder."""
    global _recorder
    previous, _recorder = _recorder, recorder
    return previous


@contextmanager
def use_recorder(recorder: TraceRecorder | None = None) -> Iterator[TraceRecorder]:
    """Scope a recorder (default: a fresh 256-root ring) to a block."""
    recorder = recorder if recorder is not None else TraceRecorder()
    previous = set_default_recorder(recorder)
    try:
        yield recorder
    finally:
        set_default_recorder(previous)


def render_tree(span: Span, indent: int = 0) -> str:
    """Human-readable indented rendering of one span tree."""
    tags = " ".join(f"{k}={v}" for k, v in span.tags.items())
    line = "  " * indent + f"{span.name}  {span.duration * 1e6:9.1f}us"
    if tags:
        line += f"  [{tags}]"
    lines = [line]
    for child in span.children:
        lines.append(render_tree(child, indent + 1))
    return "\n".join(lines)
