"""R2 — availability and goodput vs fault rate (docs/robustness.md).

Claims checked:
  * goodput (authoritative, in-deadline answers per request) degrades
    *gracefully* as the transient-read fault rate rises — no cliff where
    one extra percent of faults collapses the serving layer;
  * the safety invariant holds at every fault rate: a loaded key is
    never answered ABSENT, because every degraded path (shed, timed out,
    runs unreachable) answers the conservative MAYBE;
  * what is lost to faults shows up as *accounted* degradation — the
    DEGRADED/TIMED_OUT/SHED columns — not as silent wrong answers.

Series: per-fault-rate outcome mix, goodput, and p99 served latency for
a calm → storm → recovery schedule whose storm phase runs at the swept
fault rate (the calm/recovery phases sanity-check that degradation is
storm-scoped).  ``REPRO_BENCH_SMALL=1`` shrinks the workload for CI.
"""

from __future__ import annotations

import os

from repro.obs import use_registry
from repro.serve import (
    ServeOutcome,
    StormPhase,
    Traffic,
    build_stack,
    run_storm,
)

from _util import print_table

_SMALL = bool(os.environ.get("REPRO_BENCH_SMALL"))
N_KEYS = 500 if _SMALL else 2_000
N_STORM = 200 if _SMALL else 600
N_EDGE = 100 if _SMALL else 300
FAULT_RATES = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8)
SEED = 424242


def _storm_at(rate: float):
    return (
        StormPhase("calm", N_EDGE),
        StormPhase("storm", N_STORM, transient_read=rate,
                   slowdown=3.0, spike_prob=0.02),
        # Recovery arrives at half pressure — the post-incident lull —
        # so breaker cooldowns and half-open probe rounds fit inside the
        # phase even in the REPRO_BENCH_SMALL configuration.
        StormPhase("recovery", N_EDGE, mean_interarrival=0.004),
    )


def test_r2_goodput_degrades_gracefully():
    rows = []
    goodputs = []
    for rate in FAULT_RATES:
        with use_registry():
            served, *_rest = build_stack(seed=SEED, n_keys=N_KEYS)
            report = run_storm(served, _storm_at(rate),
                               Traffic(SEED, N_KEYS))
        # Safety is absolute at every fault rate, not a trend.
        assert report.false_negatives == 0
        calm, storm, recovery = report.phases
        goodput = report.goodput()
        goodputs.append(goodput)
        served_p99 = storm.latency_quantile(0.99)
        rows.append([
            f"{rate:.1f}",
            report.n_requests,
            f"{storm.rate(ServeOutcome.SERVED):.3f}",
            f"{storm.rate(ServeOutcome.DEGRADED):.3f}",
            f"{storm.rate(ServeOutcome.TIMED_OUT):.3f}",
            f"{storm.rate(ServeOutcome.SHED):.3f}",
            f"{goodput:.3f}",
            f"{1e3 * served_p99:.2f}",
            report.breaker_opens,
            report.false_negatives,
        ])
        # Degradation is storm-scoped: the edges stay healthy even at
        # the highest fault rate (early recovery still pays breaker
        # cooldowns, so its bar is slightly lower than calm's).
        assert calm.rate(ServeOutcome.SERVED) == 1.0
        assert recovery.rate(ServeOutcome.SERVED) > 0.8
        # Served answers kept their deadline at every fault rate.
        assert served_p99 <= served.default_budget

    # Graceful degradation: even the zero-fault storm keeps most goodput
    # (it still carries the 3x slowdown and latency spikes), the worst
    # fault rate keeps a usable floor, and no single fault-rate step
    # produces a cliff (> 0.45 absolute goodput drop per step).
    assert goodputs[0] > 0.85
    assert min(goodputs) > 0.3
    for previous, current in zip(goodputs, goodputs[1:]):
        assert previous - current < 0.45

    print_table(
        f"R2: availability/goodput vs fault rate "
        f"({N_KEYS} keys, {N_EDGE}+{N_STORM}+{N_EDGE} requests, seed {SEED})",
        ["fault rate", "requests", "storm served", "storm degraded",
         "storm timed-out", "storm shed", "goodput", "storm p99 (ms)",
         "breaker opens", "false negatives"],
        rows,
        note="rates are per-phase fractions; goodput = served/total across "
             "all three phases; p99 over served storm requests only",
    )
