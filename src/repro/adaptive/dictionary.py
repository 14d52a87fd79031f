"""The dictionary problem harness: filter + backing store + I/O accounting.

§2.3 frames adaptivity in the *dictionary* setting: a filter guards an
on-disk key/value store, every positive filter answer costs a device read,
and a false positive costs a wasted read.  This class wires any filter to a
simulated :class:`~repro.common.storage.BlockDevice`, confirms false
positives against the ground truth, and — when the filter is adaptive —
feeds them back via ``report_false_positive``.

Experiments T5/F3 measure exactly the quantity the tutorial highlights:
the number of wasted negative-lookup I/Os under adversarial and Zipfian
query streams.

Telemetry: lookups accrue to ``repro_dict_queries_total{outcome=
negative|hit|false_positive}`` and adaptation events to
``repro_dict_adaptations_total`` in the default :mod:`repro.obs`
registry; ``dict.get`` / ``filter.probe`` / ``filter.adapt`` spans are
emitted when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.common.clock import Answer, DeadlineExceeded, LookupResult
from repro.common.faults import CircuitOpenError, TransientIOError
from repro.common.storage import BlockDevice
from repro.core.interfaces import AdaptiveFilter, Key, KeyBatch, as_key_list
from repro.obs.metrics import Counter, Family
from repro.obs.tracing import trace

QUERIES = Family(
    Counter, "repro_dict_queries_total", "filtered-dictionary lookups, by outcome", ("outcome",)
)
ADAPTATIONS = Family(
    Counter, "repro_dict_adaptations_total", "false positives fed back to an adaptive filter"
)


@dataclass
class DictionaryStats:
    queries: int = 0
    positive_hits: int = 0
    false_positives: int = 0
    disk_reads: int = 0
    adaptations_fed_back: int = 0

    @property
    def wasted_read_rate(self) -> float:
        """False-positive disk reads per query — the §2.3 cost metric."""
        return self.false_positives / self.queries if self.queries else 0.0


class FilteredDictionary:
    """A key/value dictionary guarded by a (possibly adaptive) filter.

    Every :meth:`put` / :meth:`remove` bumps ``mutation_epoch``, so a
    negative cache in front of this dictionary (the serving layer's)
    never serves an ABSENT a later mutation could contradict.
    """

    def __init__(self, filt, *, device: BlockDevice | None = None):
        self._filter = filt
        self._device = device if device is not None else BlockDevice()
        self._adaptive = isinstance(filt, AdaptiveFilter)
        self.stats = DictionaryStats()
        self.mutation_epoch = 0

    @property
    def filter(self):
        return self._filter

    @property
    def device(self) -> BlockDevice:
        return self._device

    def put(self, key: Key, value: Any) -> None:
        self.mutation_epoch += 1
        self._filter.insert(key)
        self._device.write(("kv", key), value, size=64)

    def remove(self, key: Key) -> None:
        self.mutation_epoch += 1
        self._device.delete(("kv", key))
        self._filter.delete(key)

    def get(self, key: Key, default: Any = None, *, deadline: Any = None) -> Any:
        """Point lookup.  Disk is touched only when the filter says maybe.

        With a :class:`~repro.common.clock.Deadline`, raises
        :class:`~repro.common.clock.DeadlineExceeded` when the budget
        expires before the lookup resolves; :meth:`lookup` is the
        non-raising tri-state form the serving layer uses.
        """
        with trace("dict.get", key=key):
            result = self.lookup(key, deadline=deadline)
        if not result.complete and result.reason == "deadline":
            raise DeadlineExceeded(f"lookup of key {key!r} missed its deadline")
        return result.value if result.found else default

    def lookup(self, key: Key, *, deadline: Any = None,
               degrade_on_error: bool = False) -> LookupResult:
        """Deadline-aware tri-state lookup (docs/robustness.md).

        The filter probe is in-memory and free; only the backing-store
        read can burn budget or fail.  A lookup that cannot confirm its
        answer in time — budget expired, or (with
        ``degrade_on_error=True``) the device unreadable — degrades to
        the conservative :data:`~repro.common.clock.Answer.MAYBE`; a
        filter negative stays an authoritative ABSENT because it never
        touches the device at all.
        """
        self.stats.queries += 1
        if deadline is not None and deadline.expired():
            return LookupResult(Answer.MAYBE, complete=False, reason="deadline")
        with trace("filter.probe"):
            maybe = self._filter.may_contain(key)
        if not maybe:
            QUERIES.labels(outcome="negative").inc()
            return LookupResult(Answer.ABSENT)
        self.stats.disk_reads += 1
        try:
            present = self._device.exists(("kv", key))
            value = self._device.read(("kv", key)) if present else None
        except (TransientIOError, CircuitOpenError):
            if not degrade_on_error:
                raise
            return LookupResult(
                Answer.MAYBE, complete=False, reason="unavailable", runs_skipped=1
            )
        result = LookupResult(Answer.ABSENT, runs_probed=1)
        if present:
            self.stats.positive_hits += 1
            QUERIES.labels(outcome="hit").inc()
            result.state, result.value = Answer.PRESENT, value
        else:
            # Confirmed false positive: this is the moment the paper's
            # adaptive loop closes — the expensive read already happened,
            # so reporting back to the filter is free.
            self.stats.false_positives += 1
            QUERIES.labels(outcome="false_positive").inc()
            if self._adaptive:
                with trace("filter.adapt"):
                    self._filter.report_false_positive(key)
                self.stats.adaptations_fed_back += 1
                ADAPTATIONS.inc()
        if deadline is not None and deadline.expired():
            # Resolved, but late: report the conservative MAYBE so a late
            # answer can never masquerade as meeting its SLO.
            result.state, result.complete, result.reason = (
                Answer.MAYBE, False, "deadline")
        return result

    def get_many(self, keys: KeyBatch, default: Any = None,
                 *, deadline: Any = None) -> list[Any]:
        """Batched point lookup: one filter-kernel probe for the whole
        batch, then a device read per surviving (maybe-present) key.

        Outcome counters, stats, and adaptive feedback match calling
        :meth:`get` per key, with one visible difference: all probes
        happen *before* any adaptation from this batch lands, so a false
        positive repeated within a single batch is reported once per
        occurrence rather than being absorbed by the first adaptation.

        With a :class:`~repro.common.clock.Deadline`, raises
        :class:`~repro.common.clock.DeadlineExceeded` once the budget
        expires, with the results resolved so far on ``partial``.
        """
        key_list = as_key_list(keys)
        if not key_list:
            return []
        self.stats.queries += len(key_list)
        results: list[Any] = [default] * len(key_list)
        probe = getattr(self._filter, "may_contain_many", None)
        if probe is not None:
            maybes = np.asarray(probe(key_list), dtype=bool).tolist()
        else:
            maybes = [self._filter.may_contain(k) for k in key_list]
        negatives = sum(1 for maybe in maybes if not maybe)
        if negatives:
            QUERIES.labels(outcome="negative").inc(negatives)
        for i, (key, maybe) in enumerate(zip(key_list, maybes)):
            if not maybe:
                continue
            if deadline is not None and deadline.expired():
                raise DeadlineExceeded(
                    "get_many missed its deadline", partial=results
                )
            self.stats.disk_reads += 1
            if self._device.exists(("kv", key)):
                self.stats.positive_hits += 1
                QUERIES.labels(outcome="hit").inc()
                results[i] = self._device.read(("kv", key))
                continue
            self.stats.false_positives += 1
            QUERIES.labels(outcome="false_positive").inc()
            if self._adaptive:
                self._filter.report_false_positive(key)
                self.stats.adaptations_fed_back += 1
                ADAPTATIONS.inc()
        return results

    def __contains__(self, key: Key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel
