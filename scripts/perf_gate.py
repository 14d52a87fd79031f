#!/usr/bin/env python3
"""CI performance gate for the batch-kernel throughput snapshot.

Compares the snapshot written by ``bench_t4_throughput.py::
test_t4_batch_vs_scalar`` (``benchmarks/bench_t4_batch.json`` by
default) against the committed baseline ``benchmarks/BENCH_baseline.json``
with a relative tolerance.

Two metrics per family:

* ``speedup`` (batch/scalar ratio) — the primary gate.  It is a ratio of
  two timings on the *same* machine, so it transfers across hardware and
  noisy shared runners far better than absolute ops/s.
* ``batch_ops_s`` — reported for context and checked with the same
  tolerance, but a regression here alone is always warn-only (absolute
  throughput on a shared runner is not comparable to the baseline host).

Default mode is **warn-only** (exit 0 with warnings printed) because CI
runs on shared runners; pass ``--strict`` to turn speedup regressions
into a nonzero exit.  See docs/performance.md for the baseline-refresh
workflow.

``--only reshard`` / ``--only tenant`` runs just that same-run snapshot
check instead, for the CI lane that has just written that snapshot; a
missing snapshot always fails.  Each check runs only under its
``--only``, so no job gates on a snapshot it did not produce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(_HERE)
DEFAULT_BASELINE = os.path.join(_REPO, "benchmarks", "BENCH_baseline.json")
DEFAULT_SNAPSHOT = os.path.join(_REPO, "benchmarks", "bench_t4_batch.json")
DEFAULT_RESHARD = os.path.join(_REPO, "benchmarks", "bench_r3_reshard.json")
DEFAULT_TENANT = os.path.join(_REPO, "benchmarks", "bench_r5_tenant.json")


def compare(baseline: dict, snapshot: dict, tolerance: float):
    """Yield (family, metric, current, floor, ok) rows."""
    base_families = baseline.get("families", {})
    snap_families = snapshot.get("families", {})
    for family in sorted(base_families):
        base = base_families[family]
        snap = snap_families.get(family)
        if snap is None:
            yield family, "missing", None, None, False
            continue
        for metric in ("speedup", "batch_ops_s"):
            floor = base[metric] * (1.0 - tolerance)
            current = snap[metric]
            yield family, metric, current, floor, current >= floor


def _load_snapshot(path: str, label: str):
    """The snapshot, or None with the reason it could not be read."""
    try:
        with open(path) as fh:
            return json.load(fh), None
    except OSError:
        return None, f"{label} snapshot {path} missing"
    except ValueError as exc:
        return None, f"{label} snapshot {path} unreadable: {exc}"


def check_reshard(snap: dict, floor: float = 0.7) -> list[str]:
    """Check the online-reshard snapshot.

    The R3 bench (``bench_r3_reshard.py``) writes steady-state and
    during-migration goodput for identical storms; a migration that
    keeps less than *floor* of steady goodput means background batches
    are stealing foreground capacity.
    """
    warnings = []
    steady = snap.get("steady", {}).get("goodput")
    migration = snap.get("migration", {}).get("goodput")
    if steady is None or migration is None:
        return ["reshard snapshot missing goodput fields"]
    print(f"perf-gate: reshard goodput steady {steady:.3f} -> "
          f"migration {migration:.3f} (floor {floor:.0%} of steady)")
    if migration < floor * steady:
        warnings.append(
            f"migration goodput {migration:.3f} < {floor:.0%} of steady "
            f"{steady:.3f} — background resharding is starving traffic"
        )
    if not snap.get("migration", {}).get("completed", True):
        warnings.append("reshard bench migration did not complete")
    return warnings


def check_tenant(snap: dict, ratio_ceiling: float = 0.2) -> list[str]:
    """Check the tenant-router snapshot.

    The R5 bench (``bench_r5_tenant.py``) records router-vs-flat probe
    counts per fleet size plus a same-storm goodput comparison.  Gates:

    * probe ratio at the largest measured fleet (and specifically at any
      fleet >= 10k tenants) must stay <= *ratio_ceiling* — the Bloofi
      descent must keep beating the O(N) fan-out by 5x;
    * zero false negatives and zero router/flat divergences anywhere —
      probe savings must never change an answer;
    * router goodput >= flat goodput under the identical storm.

    Same-run ratios on one machine, so shared-runner-safe to enforce
    strictly.
    """
    warnings = []
    series = snap.get("series", [])
    if not series:
        return ["tenant snapshot has no probe series"]
    for row in series:
        n = row.get("n_tenants", 0)
        ratio = row.get("ratio")
        if ratio is None:
            warnings.append(f"tenant series row for n={n} missing ratio")
            continue
        if row.get("false_negatives", 1) != 0:
            warnings.append(f"tenant router false negatives at n={n}")
        if row.get("divergences", 1) != 0:
            warnings.append(f"router/flat answer divergence at n={n}")
        if (n >= 10_000 or row is series[-1]) and ratio > ratio_ceiling:
            warnings.append(
                f"router probe ratio {ratio:.4f} at {n} tenants exceeds "
                f"{ratio_ceiling:.0%} of flat fan-out"
            )
    top = series[-1]
    print(f"perf-gate: tenant probe ratio {top.get('ratio', float('nan')):.4f} "
          f"at {top.get('n_tenants')} tenants "
          f"(ceiling {ratio_ceiling:.0%} of flat fan-out)")
    goodput = snap.get("goodput", {})
    router_g = goodput.get("router", {}).get("goodput")
    flat_g = goodput.get("flat", {}).get("goodput")
    if router_g is not None and flat_g is not None:
        print(f"perf-gate: tenant goodput router {router_g:.3f} vs "
              f"flat {flat_g:.3f} under the identical storm")
        if router_g < flat_g:
            warnings.append(
                f"router goodput {router_g:.3f} below flat fan-out "
                f"{flat_g:.3f} — the descent is costing more than it saves"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed relative regression before a metric trips "
             "(default 0.5 = current may fall to 50%% of baseline)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on speedup regressions and --only check "
             "warnings (default: warn only)",
    )
    parser.add_argument(
        "--reshard-snapshot", default=DEFAULT_RESHARD,
        help="bench_r3_reshard.py snapshot read by --only reshard",
    )
    parser.add_argument(
        "--tenant-snapshot", default=DEFAULT_TENANT,
        help="bench_r5_tenant.py snapshot read by --only tenant",
    )
    parser.add_argument(
        "--tenant-ratio-ceiling", type=float, default=0.2,
        help="max allowed router/flat probe ratio at >= 10k tenants "
             "(default 0.2 = the router must probe at most a fifth of "
             "what flat fan-out probes)",
    )
    parser.add_argument(
        "--only", choices=("reshard", "tenant"),
        help="run only this same-run snapshot check (a missing snapshot "
             "fails it) instead of the throughput comparison",
    )
    args = parser.parse_args(argv)

    if args.only is not None:
        # Same-run ratios (migration/steady, router/flat on one machine),
        # so unlike absolute throughput they are shared-runner-safe to
        # enforce strictly.
        snap, error = _load_snapshot(
            getattr(args, f"{args.only}_snapshot"), args.only
        )
        if snap is None:
            print(f"perf-gate: FAIL ({args.only}) — {error}")
            return 1
        if args.only == "reshard":
            warnings = check_reshard(snap)
        else:
            warnings = check_tenant(snap, args.tenant_ratio_ceiling)
        label = "FAIL" if args.strict else "WARN"
        for warning in warnings:
            print(f"perf-gate: {label} ({args.only}) — {warning}")
        print(f"perf-gate: {args.only} checks: "
              + (f"{len(warnings)} failed" if warnings else "all passed"))
        return int(args.strict and bool(warnings))

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: cannot read baseline {args.baseline}: {exc}")
        return 1
    try:
        with open(args.snapshot) as fh:
            snapshot = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: cannot read snapshot {args.snapshot}: {exc}")
        print("perf-gate: run the bench first: PYTHONPATH=src python -m pytest "
              "benchmarks/bench_t4_throughput.py::test_t4_batch_vs_scalar -s")
        return 1

    failures = []
    print(f"perf-gate: tolerance {args.tolerance:.0%}, "
          f"baseline {os.path.relpath(args.baseline, _REPO)}")
    print(f"{'family':<22}{'metric':<14}{'current':>12}{'floor':>12}  status")
    for family, metric, current, floor, ok in compare(
        baseline, snapshot, args.tolerance
    ):
        if metric == "missing":
            print(f"{family:<22}{metric:<14}{'-':>12}{'-':>12}  MISSING")
            failures.append((family, metric))
            continue
        status = "ok" if ok else "REGRESSION"
        print(f"{family:<22}{metric:<14}{current:>12.2f}{floor:>12.2f}  {status}")
        if not ok and metric == "speedup":
            failures.append((family, metric))

    if failures:
        names = ", ".join(f"{f}:{m}" for f, m in failures)
        if args.strict:
            print(f"perf-gate: FAIL — {names}")
            return 1
        print(f"perf-gate: WARN (shared-runner mode, not failing) — {names}")
    else:
        print("perf-gate: all families within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
