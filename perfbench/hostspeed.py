"""Host-speed probe: corrects wall times for interference from other load.

On a shared host the same run of the same code takes from 1x to 1.5x
as long, depending on what else the machine is doing at the time;
slow stretches last seconds, so they do not average out within a run.
:class:`HostProbe` measures that interference while the run is going:
every ``INTERVAL_S`` of traffic it times a fixed pure-Python task, and
the stretch of traffic since the previous probe is scaled by
``NOMINAL_S / probe time``.  The corrected figures read as
microseconds and seconds on a host where the probe takes ``NOMINAL_S``
(about an uncontended x86-64 server core under CPython 3.11).

The probe exercises no code of the repository, so it cannot hide a
change to it: a slower program is still slower after correction.
"""

from __future__ import annotations

import bisect
import pickle
import random
import signal
import time

NOMINAL_S = 0.75e-3  # probe time on an uncontended host core
INTERVAL_S = 0.005  # traffic time between probes


class _Box:
    __slots__ = ("value", "tag")

    def __init__(self, value, tag):
        self.value = value
        self.tag = tag


class HostProbe:
    """A fixed task whose duration tracks the host's current speed.

    Its three parts — interpreter-bound arithmetic; object-heavy work
    (tuple-keyed dict lookups, allocation, pickling, bisection); a pointer
    chase through a few megabytes — are weighted so that, under
    interference, the serving workloads slow down about in proportion to
    the probe as a whole.
    """

    def __init__(self, size: int = 1 << 17):
        rng = random.Random(0x5EED)
        order = list(range(size))
        rng.shuffle(order)
        chain = [0] * size
        for a, b in zip(order, order[1:] + order[:1]):
            chain[a] = b
        self._chain = chain
        self._pos = 0
        self._table = {(i & 255, i >> 8, "k"): [i] * (i % 5 + 1)
                       for i in range(8192)}
        self._sorted = sorted(rng.randrange(1 << 30) for _ in range(4096))

    def sample(self) -> float:
        """Seconds one probe took just now."""
        chain, table, ordered = self._chain, self._table, self._sorted
        t0 = time.perf_counter()
        acc, scratch = 0, {}
        for i in range(1000):
            acc += i * i % 7
            scratch[i & 1023] = acc
        for i in range(200):
            entry = table.get((i & 255, (i * 7) & 31, "k"))
            acc += len(entry) if entry else 0
            box = _Box(i, "t")
            acc += len(pickle.loads(pickle.dumps((i, "value", box.tag))))
            acc += bisect.bisect_left(ordered, i * 2654435761 & 0x3FFFFFFF)
        j = self._pos
        for _ in range(1000):
            j = chain[j]
        self._pos = j
        return time.perf_counter() - t0

    def timed(self, fn):
        """Run *fn* with a probe every ``INTERVAL_S``, taken from a timer
        signal because *fn* is one opaque call; returns ``(its result,
        raw seconds, corrected seconds)``, probe time excluded from both.

        Traffic is probed between requests instead (``run.drive``), so
        that no probe lands inside a timed request.
        """
        marks: list[tuple[float, float]] = []  # (probe start, probe seconds)

        def on_timer(signum, frame):
            start = time.perf_counter()
            marks.append((start, self.sample()))

        first = self.sample()
        previous = signal.signal(signal.SIGALRM, on_timer)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        starts = [t0] + [t + d for t, d in marks]
        ends = [t for t, _ in marks] + [end]
        probes = [first] + [d for _, d in marks] + [self.sample()]
        raw = corrected = 0.0
        for i, (lo, hi) in enumerate(zip(starts, ends)):
            raw += hi - lo
            corrected += (hi - lo) * NOMINAL_S / ((probes[i] + probes[i + 1]) / 2)
        return value, raw, corrected


def reference_loop_s(reps: int = 5) -> float:
    """Best-of-*reps* time of a fixed pure-Python loop: a slow-host marker
    recorded with every run."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(100_000):
            acc += i * i % 7
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return best
