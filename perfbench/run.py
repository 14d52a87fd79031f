"""Wall-clock serving benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload read-zipf --seed 0 --seconds 10 --trace 0

A run builds the workload's stack ``SETUP_REPS`` times (``setup_s`` is
the median build-plus-preload time) and drives the last one with one
closed-loop client.  ``--seconds`` sizes the traffic: that many seconds
of requests at the workload's nominal rate, in whole calm/storm/recovery
cycles, so every run of a seed does the same work however fast the host
is; arrivals follow an open-loop Poisson schedule in simulated time.  Every answer is checked against the
workload's ground truth, and the end state is audited (migration done,
replicas converged with no hints pending, Bloofi invariants clean).  Any
violation fails the run: it prints ``"correct": false`` with no metrics
and exits 1.

Wall times are corrected for interference from other load on the host
(``hostspeed.py``); the uncorrected figures are printed as ``raw.*``.

Every metric is printed as ``metric <name> = <value> <unit>``; the last
line is one JSON object with the metrics ``BENCHMARK.json`` names: the
end-to-end set with ``--trace 0``, the per-layer set with ``--trace 1``.
With ``--trace 1`` a second, traced pass runs on a freshly built stack,
with span wrappers around each layer's public calls (``layers.py``); its
spans are written to ``perfbench/out/<workload>.spans.npz``.  End-to-end
numbers always come from the untraced pass.

``failed_frac`` and ``sim_p99_ms`` live in simulated time, so they
repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 3


def gated_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics the final JSON line carries: the
    ``end_to_end`` list of BENCHMARK.json, or ``per_layer`` when traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def drive(workload, seconds: float, probe):
    """Closed-loop traffic: the requests of *seconds* at the workload's
    nominal rate (whole cycles, at least one) on an open-loop Poisson
    arrival schedule, with a host probe every ``INTERVAL_S`` between
    requests; probe time is not traffic time."""
    from hostspeed import INTERVAL_S
    from workloads import Traffic

    traffic = Traffic()
    phase_starts, at = {}, 0
    for phase in workload.cycle:
        phase_starts[at] = phase
        at += phase.n_requests
    rng = random.Random(workload.seed ^ 0xA771)
    cycle_len = workload.cycle_len
    n_requests = cycle_len * max(
        1, round(seconds * workload.requests_per_second / cycle_len))
    arrival = workload.clock.now()
    begin = time.perf_counter()
    traffic.first_probe = probe.sample()
    start = window_start = time.perf_counter()
    next_probe = start + INTERVAL_S
    probing = 0.0
    for index in range(n_requests):
        phase = phase_starts.get(index % cycle_len)
        if phase is not None:
            workload.set_phase(phase)
            mean = phase.mean_interarrival
        arrival += rng.expovariate(1.0 / mean)
        workload.tick(index, arrival, traffic)
        workload.request(index, arrival, traffic)
        now = time.perf_counter()
        if now >= next_probe:
            traffic.close_window(now - window_start, probe.sample())
            window_start = time.perf_counter()
            probing += window_start - now
            next_probe = window_start + INTERVAL_S
    end = time.perf_counter()
    traffic.close_window(end - window_start, probe.sample())
    traffic.wall_s = end - start - probing
    traffic.probing_s = (start - begin) + probing + (time.perf_counter() - end)
    return traffic


def _quantile_us(samples_ns, q: float) -> float:
    import numpy as np

    if len(samples_ns) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) / 1e3


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


TAIL_BLOCK = 1000  # consecutive samples per p99 block: ten beyond its p99


def _tail_us(samples) -> float:
    """The p99 of each block of ``TAIL_BLOCK`` consecutive samples, median
    over the blocks: the run's typical tail, which a burst of load from
    elsewhere on the host cannot drag along with it."""
    import numpy as np

    blocks = [samples[i:i + TAIL_BLOCK]
              for i in range(0, len(samples) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    return float(np.median([_quantile_us(b, 99) for b in blocks or [samples]]))


def corrected(traffic) -> dict:
    """Throughput and latency quantiles with every probe window's wall
    times scaled by that window's host-speed factor."""
    import numpy as np

    from hostspeed import NOMINAL_S

    windows = np.array(traffic.windows, dtype=np.float64)
    # A window's speed is the mean of the probes that bracket it.
    probes = np.concatenate(([traffic.first_probe], windows[:, 4]))
    factor = NOMINAL_S / ((probes[:-1] + probes[1:]) / 2)

    def scaled(samples, ends):
        counts = np.diff(np.concatenate(([0], ends))).astype(np.int64)
        return np.asarray(samples, dtype=np.float64) * np.repeat(factor, counts)

    out = {"ops_per_s": traffic.ops / float((windows[:, 0] * factor).sum())}
    reads = scaled(traffic.read_ns, windows[:, 1])
    out["read_p50_us"] = _quantile_us(reads, 50)
    out["read_p99_us"] = _tail_us(reads)
    if traffic.write_ns:
        writes = scaled(traffic.write_ns, windows[:, 2])
        out["write_p50_us"] = _quantile_us(writes, 50)
        out["write_p99_us"] = _tail_us(writes)
    return out


def traffic_and_drain(workload, seconds: float, probe, *, probe_drain=True):
    """Drive traffic, then finish background work with chaos switched
    off; returns ``(traffic, raw drain s, corrected drain s, violations)``.

    ``probe_drain=False`` times the drain without timer-signal probes,
    which would otherwise land inside traced spans.
    """
    traffic = drive(workload, seconds, probe)
    workload.set_phase(workload.cycle[0])
    if probe_drain:
        _, drain_raw, drain_s = probe.timed(workload.drain)
    else:
        t0 = time.perf_counter()
        workload.drain()
        drain_raw = drain_s = time.perf_counter() - t0
    violations = traffic.violations + workload.final_violations()
    return traffic, drain_raw, drain_s, violations


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: str = "full") -> dict:
    """One benchmark run; returns every figure it measured."""
    import numpy

    from hostspeed import HostProbe, reference_loop_s
    from layers import RepairedBuckets, layer_counters, snapshot, trace_targets
    from repro.obs.metrics import MetricsRegistry, set_default_registry
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    probe = HostProbe()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "host.ref_s.before": reference_loop_s(),
    }

    def fresh_stack():
        gc.collect()
        set_default_registry(MetricsRegistry())
        workload = cls(seed, scale)
        _, raw, fixed = probe.timed(workload.build)
        return workload, raw, fixed

    setup_raw, setup_fixed = [], []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None  # let the previous stack go before building the next
        workload, raw, fixed = fresh_stack()
        setup_raw.append(raw)
        setup_fixed.append(fixed)
    result["params"] = {**workload.params, "cycle_len": workload.cycle_len}
    gc.collect()
    before = snapshot(workload)
    traffic, drain_raw, drain_s, violations = traffic_and_drain(
        workload, seconds, probe)
    probes = [w[4] for w in traffic.windows]
    result.update({
        "attempted": traffic.ops,
        "failed": traffic.writes_raised,
        "violations": violations,
        **corrected(traffic),
        "setup_s": statistics.median(setup_fixed),
        "raw.setup_s": statistics.median(setup_raw),
        "raw.ops_per_s": traffic.ops / traffic.wall_s,
        "raw.read_p50_us": _quantile_us(traffic.read_ns, 50),
        "raw.read_p99_us": _quantile_us(traffic.read_ns, 99),
        "read_samples": len(traffic.read_ns),
        "write_samples": len(traffic.write_ns),
        "traffic_s": traffic.wall_s,
        "host.probe_median_s": statistics.median(probes),
        "host.probe_min_s": min(probes),
        "failed_frac": traffic.not_served / traffic.ops,
        "sim_p99_ms": 1e3 * _nearest_rank(traffic.sim_latency, 0.99),
        "space_amp": workload.space_amp(),
        "counters": layer_counters(before, snapshot(workload), workload),
    })
    if workload.converges:
        result["converge_s"] = drain_s
        result["raw.converge_s"] = drain_raw
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    if trace and not violations:
        workload = None
        workload, _, _ = fresh_stack()
        tracer, repaired = Tracer(), RepairedBuckets()
        if hasattr(workload, "repairer"):
            repaired.watch(workload.repairer)
        gc.collect()
        before = snapshot(workload)
        tracer.install(trace_targets(repaired))
        t0 = time.perf_counter()
        try:
            traced, _, _, traced_violations = traffic_and_drain(
                workload, seconds, probe, probe_drain=False)
        finally:
            traced_end = time.perf_counter()
            tracer.uninstall()
        layers = tracer.layer_table()
        self_total = sum(v["self_s"] for v in layers.values())
        traced_wall = traced_end - t0 - traced.probing_s
        result.update({
            "violations": violations + traced_violations,
            "traced_attempted": traced.ops,
            "traced_failed": traced.writes_raised,
            "layers": layers,
            "trace.spans": len(tracer),
            "trace.wall_s": traced_wall,
            "trace.self_s": self_total,
            "trace.self_frac": self_total / traced_wall,
            "trace.overhead_frac": 1.0 - corrected(traced)["ops_per_s"]
            / result["ops_per_s"],
            "counters": layer_counters(before, snapshot(workload), workload,
                                       repaired),
        })
        spans_path = BENCH_DIR / "out" / f"{name}.spans.npz"
        tracer.save(spans_path)
        result["trace.spans_file"] = str(spans_path.relative_to(ROOT))
    result["host.ref_s.after"] = reference_loop_s()
    return result


_UNITS = [
    ("ops_per_s", "1/s"), ("read_p50_us", "us"), ("read_p99_us", "us"),
    ("read_samples", "count"), ("write_p50_us", "us"), ("write_p99_us", "us"),
    ("write_samples", "count"), ("converge_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("failed_frac", "ratio"), ("sim_p99_ms", "ms"),
    ("space_amp", "ratio"), ("raw.ops_per_s", "1/s"), ("raw.read_p50_us", "us"),
    ("raw.read_p99_us", "us"), ("raw.converge_s", "s"), ("raw.setup_s", "s"),
    ("traffic_s", "s"), ("host.probe_median_s", "s"), ("host.probe_min_s", "s"),
    ("host.ref_s.before", "s"), ("host.ref_s.after", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.self_frac", "ratio"),
    ("trace.wall_s", "s"), ("trace.self_s", "s"), ("trace.spans", "count"),
]


def _counter_unit(name: str) -> str:
    if name == "device.bytes_written":
        return "B"
    if any(part in name for part in ("frac", "rate", "per_", "amp")):
        return "ratio"
    return "count"


def metric_lines(result: dict) -> list[tuple[str, float, str]]:
    """Every measured figure as ``(name, value, unit)``."""
    lines = [(k, result[k], unit) for k, unit in _UNITS if k in result]
    for layer, row in sorted(result.get("layers", {}).items()):
        lines.append((f"{layer}.calls", row["calls"], "count"))
        lines.append((f"{layer}.self_s", row["self_s"], "s"))
    for key, value in sorted(result["counters"].items()):
        lines.append((key, value, _counter_unit(key)))
    return lines


def json_line(result: dict, trace: bool) -> dict:
    """The final JSON object: the BENCHMARK.json metric set, or no
    metrics at all when the oracle found a violation."""
    if result["violations"]:
        return {"correct": False, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": {}}
    flat = {**result, **result["counters"]}
    for layer, row in result.get("layers", {}).items():
        flat[f"{layer}.calls"] = row["calls"]
        flat[f"{layer}.self_s"] = row["self_s"]
    return {
        "correct": True,
        "attempted": result["traced_attempted" if trace else "attempted"],
        "failed": result["traced_failed" if trace else "failed"],
        "metrics": {
            name: {"value": flat[name], "unit": unit}
            for name, unit in gated_metrics(trace).items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small stacks for the self-tests")
    args = parser.parse_args(argv)
    _use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale)
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} scale={result['scale']} "
          f"params={json.dumps(result['params'])}")
    print(f"# python={result['python']} numpy={result['numpy']} "
          f"nproc={result['nproc']}")
    for violation in result["violations"][:20]:
        print(f"VIOLATION {violation}", file=sys.stderr)
    if not result["violations"]:
        for name, value, unit in metric_lines(result):
            print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps(json_line(result, bool(args.trace))))
    return 0 if not result["violations"] else 1


if __name__ == "__main__":
    sys.exit(main())
