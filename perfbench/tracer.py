"""Span tracer installed from outside the program, around public calls.

:class:`Tracer` replaces methods on the serving stack's classes with thin
wrappers that record one span per call: a layer name, wall-clock start
and end, and the index of the span that was open when the call began
(its parent).  Spans live in flat in-memory arrays while the run lasts
and are written out once, at the end, by :meth:`Tracer.save`.

Self time is a span's duration minus the durations of its direct
children; because the stack is single-threaded, root spans never
overlap, so the self times of all spans sum to the total time covered
by root spans, which is at most the wall time of the traced phase.

Only the benchmark process installs the wrappers (:meth:`install`), and
:meth:`uninstall` restores the original methods.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Class-level call wrappers plus the span buffer they append to."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [-1]
        self._installed: list[tuple[type, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, cls: type, attr: str, name: str, after=None) -> None:
        """Record a *name* span around every call of ``cls.attr``.

        *after*, if given, is called as ``after(args, result)`` once the
        call returns, inside the span's clock window, for counters that
        need the call's arguments or result.
        """
        original = cls.__dict__[attr]
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = clock()
                open_spans.pop()

        traced.__wrapped__ = original
        setattr(cls, attr, traced)
        self._installed.append((cls, attr, original))

    def install(self, targets) -> None:
        """Wrap every ``(cls, attr, name)`` or ``(cls, attr, name, after)``."""
        for target in targets:
            self.wrap(*target)

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds}}`` over every span."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.uint16)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child_time
        calls = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {
            layer: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
            for i, layer in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) to *path*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
