"""Seeded chaos-under-load storms: the harness every topology shares.

The serving layer's claims — no false negatives, breakers trip and
recover, shedding stays bounded, tail latency respects deadlines — are
statements about behaviour *under storms*, so this module provides the
storm: :func:`build_stack` assembles the full serving pipeline
(simulated clock → fault + latency injectors → faulty device → circuit
breakers → LSM-tree → admission → :class:`ServedFilter`), and
:func:`run_storm` drives an open-loop Poisson workload through a
schedule of :class:`StormPhase` s, flipping fault rates and latency
multipliers between phases the way a real incident does.

The sharded, replicated and tenant topologies reuse all of it: their
``build_*`` put their backend on the same stack rig, their storms run
through the same :func:`run_storm` (the tenant fleet with its own
:class:`Traffic`), and resharding and replica repair run as a
:class:`BackgroundDriver`, the one place a simulated crash is caught
and the backend recovered from its device.

Everything is seeded: the same ``(seed, phases)`` pair replays the same
faults, the same latency spikes, the same arrivals, and therefore the
same outcomes — chaos tests assert exact invariants, not luck.  The
report checks the one invariant that must *never* bend: a key that was
loaded is never answered ABSENT, no matter what broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.lsm import LSMConfig, LSMTree
from repro.cache import BlockCache, CachedDevice, NegativeLookupCache
from repro.common.clock import Answer, SimulatedClock
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    FaultyBlockDevice,
    LatencyInjector,
    RetryPolicy,
    SimulatedCrash,
    TransientIOError,
)
from repro.serve.admission import AdmissionConfig, AdmissionController, Priority
from repro.serve.breaker import BreakerDevice, BreakerState
from repro.serve.served import ServedFilter, ServeOutcome


@dataclass
class StormPhase:
    """One segment of a storm schedule.

    ``transient_read`` is the per-read fault probability applied to run
    and filter blobs for the phase; ``slowdown`` multiplies the latency
    injector's service times (a slow-disk plateau); ``spike_prob``
    overrides the injector's tail-spike probability.
    """

    name: str
    n_requests: int
    mean_interarrival: float = 0.002
    transient_read: float = 0.0
    slowdown: float = 1.0
    spike_prob: float = 0.0

    def __post_init__(self):
        if self.n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 <= self.transient_read <= 1.0:
            raise ValueError("transient_read must be a probability")


@dataclass
class PhaseReport:
    """Outcome tallies for one phase."""

    name: str
    outcomes: dict[ServeOutcome, int] = field(
        default_factory=lambda: {o: 0 for o in ServeOutcome}
    )
    latencies: list[float] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return sum(self.outcomes.values())

    def rate(self, outcome: ServeOutcome) -> float:
        n = self.n_requests
        return self.outcomes[outcome] / n if n else 0.0

    def latency_quantile(self, q: float) -> float:
        """Empirical *q*-quantile of served-request latency."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


@dataclass
class StormReport:
    """Whole-storm result: per-phase tallies plus global invariants."""

    phases: list[PhaseReport] = field(default_factory=list)
    false_negatives: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0

    @property
    def n_requests(self) -> int:
        return sum(p.n_requests for p in self.phases)

    def total(self, outcome: ServeOutcome) -> int:
        return sum(p.outcomes[outcome] for p in self.phases)

    def goodput(self) -> float:
        """Fraction of requests answered authoritatively and on time."""
        n = self.n_requests
        return self.total(ServeOutcome.SERVED) / n if n else 0.0


def _tree_retry(config: LSMConfig, seed: int, clock) -> RetryPolicy:
    """A served tree's retry policy: seeded decorrelated jitter whose
    backoff burns simulated time, like everything else."""
    return RetryPolicy(
        max_attempts=config.retry_attempts, jitter="decorrelated",
        base_backoff=0.0005, max_backoff=0.01, seed=seed, clock=clock,
    )


def _serving_rig(
    seed: int,
    build,
    *,
    n_keys: int = 0,
    budget: float,
    base_latency: float = 0.0008,
    admission_config: AdmissionConfig | None = None,
    device: bool = True,
    negative_cache: NegativeLookupCache | None = None,
):
    """The stack every ``build_*`` shares, around one backend.

    One clock and one seeded fault/latency injector pair; with *device*,
    one faulty device behind one breaker bank (a breaker per address,
    tripping after four samples and cooling down for 50 ms).
    ``build(clock, injector, latency, breaker_device)`` makes the
    backend, and keys ``0..n_keys`` are loaded into it while latency is
    switched off, so the load phase is free and the storm's
    false-negative check has clean ground truth.  Admission control and
    the :class:`ServedFilter` go on top.  Returns ``(served, device,
    injector, latency, clock)``.
    """
    clock = SimulatedClock()
    injector = FaultInjector(seed=seed)
    latency = LatencyInjector(seed=seed, base=base_latency)
    latency.slowdown = 0.0  # load phase is free: storms start at t=0
    faulty = breaker_device = None
    if device:
        faulty = FaultyBlockDevice(injector=injector, latency=latency, clock=clock)
        breaker_device = BreakerDevice(faulty, clock, cooldown=0.05, min_samples=4)
    backend = build(clock, injector, latency, breaker_device)
    for key in range(n_keys):
        backend.put(key, f"value-{key}")
    latency.slowdown = 1.0
    served = ServedFilter(
        backend, clock,
        admission=AdmissionController(clock, admission_config),
        breaker_device=breaker_device, default_budget=budget,
        negative_cache=negative_cache,
    )
    return served, faulty, injector, latency, clock


def build_stack(
    seed: int = 0,
    n_keys: int = 2_000,
    *,
    budget: float = 0.050,
    lsm_config: LSMConfig | None = None,
    cache_mb: float = 0.0,
    cache_policy: str = "lru",
    negative_cache_entries: int = 0,
):
    """Assemble a full serving stack over a freshly-loaded LSM-tree.

    Keys ``0..n_keys`` are ingested *before* any faults or latency are
    enabled, so the storm's false-negative check has clean ground truth.
    Returns ``(served, tree, device, injector, latency, clock)``.

    With ``cache_mb > 0`` a :class:`~repro.cache.BlockCache` is
    interposed *above* the circuit breakers: a cache hit skips simulated
    I/O, injected faults/latency, and breaker traffic entirely (reach it
    as ``tree.device.cache``).  With ``negative_cache_entries > 0`` the
    served facade additionally memoizes authoritative ABSENT answers in
    a :class:`~repro.cache.NegativeLookupCache` (``served.negative_cache``).
    """

    def build(clock, _injector, _latency, breaker_device):
        config = lsm_config if lsm_config is not None else LSMConfig(
            memtable_entries=64, retry_attempts=3, seed=seed
        )
        device_stack: object = breaker_device
        if cache_mb > 0:
            block_cache = BlockCache(
                int(cache_mb * 1024 * 1024), policy=cache_policy, seed=seed
            )
            device_stack = CachedDevice(breaker_device, block_cache)
        tree = LSMTree(config, device=device_stack)
        tree.retry = _tree_retry(config, seed, clock)
        return tree

    served, device, injector, latency, clock = _serving_rig(
        seed, build, n_keys=n_keys, budget=budget,
        negative_cache=(
            NegativeLookupCache(negative_cache_entries)
            if negative_cache_entries > 0 else None
        ),
    )
    return served, served.backend, device, injector, latency, clock


CALM_STORM_RECOVERY = (
    StormPhase("calm", 300, transient_read=0.0),
    StormPhase("storm", 400, transient_read=0.6, slowdown=4.0, spike_prob=0.05),
    StormPhase("recovery", 300, transient_read=0.0),
)


# Every storm asks for a loaded key half the time, and sends 20% HIGH,
# 60% NORMAL and 20% LOW priority requests.
PRESENT_FRACTION = 0.5
_PRIORITIES = (Priority.HIGH, Priority.NORMAL, Priority.LOW)
_PRIORITY_WEIGHTS = (0.2, 0.6, 0.2)


class Traffic:
    """A storm's seeded request stream.

    One RNG draws every arrival gap, key and priority, so a seed replays
    the same storm.  :meth:`pick` names the next request as ``(key,
    present, tenant)``: here a loaded key ``0..n_keys`` with probability
    :data:`PRESENT_FRACTION`, else a key guaranteed absent, with no
    tenant.  Other topologies subclass it to draw from their own key
    space.
    """

    def __init__(self, seed: int = 0, n_keys: int = 2_000):
        self.rng = random.Random(seed ^ 0x570F)
        self.n_keys = n_keys

    def pick(self):
        rng, n = self.rng, self.n_keys
        present = rng.random() < PRESENT_FRACTION
        return (rng.randrange(n) if present else n + rng.randrange(n)), present, None


def run_storm(
    served: ServedFilter,
    phases=CALM_STORM_RECOVERY,
    traffic: Traffic | None = None,
    *,
    ticker=None,
) -> StormReport:
    """Drive a phase schedule through *served* and audit the answers.

    Requests come from *traffic* (default ``Traffic()``).  A false
    negative is a present key answered ABSENT — the invariant the
    one-sided-error contract says can never happen, shed or storm or not.
    Each phase sets the read-fault rate of the backend's
    ``FAULT_CLASSES`` and the latency model's slowdown and spike rate.

    *ticker*, if given, is called as ``ticker(arrival)`` before every
    request — the hook background work (resharding pumps, replica
    repair, tenant churn) uses to interleave with live traffic.  It may
    swap ``served.backend`` (crash recovery does).
    """
    traffic = traffic if traffic is not None else Traffic()
    rng = traffic.rng
    # A device-backed store reaches its injectors through the device;
    # the tenant store, which has none, holds them itself.
    chaos = getattr(served.backend, "device", served.backend)
    injector, latency = chaos.injector, chaos.latency
    classes = served.backend.FAULT_CLASSES
    clock = served.clock
    report = StormReport()
    arrival = clock.now()
    for phase in phases:
        injector.transient_read = {
            **{c: phase.transient_read for c in classes}, "*": 0.0,
        }
        latency.slowdown = phase.slowdown
        latency.spike_prob = phase.spike_prob
        phase_report = PhaseReport(phase.name)
        report.phases.append(phase_report)
        for _ in range(phase.n_requests):
            arrival += rng.expovariate(1.0 / phase.mean_interarrival)
            if ticker is not None:
                ticker(arrival)
            key, present, tenant = traffic.pick()
            priority = rng.choices(_PRIORITIES, weights=_PRIORITY_WEIGHTS)[0]
            response = served.serve(
                key, priority=priority, arrival=arrival, tenant=tenant,
            )
            phase_report.outcomes[response.outcome] += 1
            if response.outcome is ServeOutcome.SERVED:
                phase_report.latencies.append(response.latency)
            if present and response.answer is Answer.ABSENT:
                report.false_negatives += 1
    if served.breaker_device is not None:
        report.breaker_opens = served.breaker_device.n_transitions(BreakerState.OPEN)
        report.breaker_closes = served.breaker_device.n_transitions(
            BreakerState.CLOSED
        )
    served.publish_gauges()
    return report


class BackgroundDriver:
    """The crash-recovering background half of a storm.

    Passed to :func:`run_storm` as its ticker.  Before every request a
    seeded *write_fraction* of ticks updates a loaded key (the write
    load that makes resharding and repair necessary), then the
    topology's ``step(arrival)`` runs — plan, pump, kill or heal.  A
    :class:`~repro.common.faults.SimulatedCrash` out of a step, or out
    of :meth:`drain`, is a process death: ``absorb()`` folds the dying
    backend's counters into *report*, ``recover(device)`` rebuilds the
    backend from its device alone, and the result replaces
    ``served.backend``.  *report* needs ``events``, ``crashes`` and
    ``recoveries``.
    """

    def __init__(self, served, report, *, step, recover, absorb,
                 seed: int, n_keys: int, write_fraction: float):
        self.served = served
        self.report = report
        self.step = step
        self.recover = recover
        self.absorb = absorb
        self.n_keys = n_keys
        self.write_fraction = write_fraction
        self.requests = 0
        self._writes = 0
        self._wrng = random.Random(seed ^ 0x3317E)

    def __call__(self, arrival: float) -> None:
        self.requests += 1
        if self.write_fraction and self._wrng.random() < self.write_fraction:
            key = self._wrng.randrange(self.n_keys)
            self._writes += 1
            try:
                self.served.backend.put(key, f"value-{key}-u{self._writes}")
            except (TransientIOError, CircuitOpenError):
                pass  # an update lost to a storm; the key stays present
        self.guarded(self.step, arrival)

    def guarded(self, action, *args, where: str = ""):
        """``action(*args)``, or None after recovering from its crash."""
        try:
            return action(*args)
        except SimulatedCrash as crash:
            clock, report = self.served.clock, self.report
            report.events.append((clock.now(), f"crash:{crash.step}"))
            report.crashes += 1
            self.absorb()
            self.served.backend = self.recover(self.served.backend.device)
            report.recoveries += 1
            report.events.append((clock.now(), f"recovered:{where}{crash.step}"))
            return None

    def drain(self, step, rounds: int) -> None:
        """Call ``step()`` until it returns true, at most *rounds* times."""
        for _ in range(rounds):
            if self.guarded(step, where="drain:"):
                return
