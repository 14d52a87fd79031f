"""Replay lock: seeded storms reproduce their recorded tallies exactly.

Every storm here draws only from ``random.Random``, whose stream Python
keeps stable across releases, so a seed must replay the same requests,
faults, crashes and repairs.  The constants below were recorded from the
same calls; a refactor that changes any of them changed behaviour.  The
tenant storm is left out: its Zipf stream comes from NumPy's
``Generator``, which NumPy does not keep stable across releases.

Phase tallies are ``(served, degraded, shed, timed_out)`` counts, in
:class:`~repro.serve.served.ServeOutcome` order.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.serve import ServeOutcome, build_stack, run_reshard_storm, run_storm
from repro.serve.replica import run_replica_storm

_QUIET = {"false_negatives": 0, "breaker_opens": 0, "breaker_closes": 0}

LOCKED = {
    ("plain", 0): {"storm": {
        "phases": {"calm": (300, 0, 0, 0), "storm": (400, 0, 0, 0),
                   "recovery": (300, 0, 0, 0)}, **_QUIET}},
    ("plain", 1): {"storm": {
        "phases": {"calm": (300, 0, 0, 0), "storm": (400, 0, 0, 0),
                   "recovery": (300, 0, 0, 0)}, **_QUIET}},
    ("reshard", 0): {
        "storm": {
            "phases": {"calm": (206, 0, 94, 0), "storm": (74, 9, 164, 153),
                       "recovery": (257, 0, 32, 11)},
            "false_negatives": 0, "breaker_opens": 7, "breaker_closes": 2,
        },
        "report": {
            "crashes": 1, "recoveries": 1, "completed": True,
            "keys_moved": 282, "keys_verified": 282, "keys_retired": 282,
            "repairs": 0, "lookups": 567, "double_reads": 50,
            "pump_sheds": 747, "final_epoch": 1,
        },
    },
    ("reshard", 1): {
        "storm": {
            "phases": {"calm": (223, 0, 74, 3), "storm": (41, 2, 207, 150),
                       "recovery": (285, 0, 6, 9)},
            "false_negatives": 0, "breaker_opens": 1, "breaker_closes": 1,
        },
        "report": {
            "crashes": 1, "recoveries": 1, "completed": True,
            "keys_moved": 264, "keys_verified": 264, "keys_retired": 264,
            "repairs": 0, "lookups": 564, "double_reads": 45,
            "pump_sheds": 754, "final_epoch": 1,
        },
    },
    ("replica", 0): {
        "storm": {
            "phases": {"calm": (220, 29, 51, 0), "storm": (4, 0, 340, 56),
                       "recovery": (13, 17, 246, 24)}, **_QUIET,
        },
        "report": {
            "kills": 1, "heals": 1, "crashes": 1, "recoveries": 1,
            "hints_journaled": 120, "hints_replayed": 120, "hints_dropped": 0,
            "repairs": 1915, "repair_bytes": 84974, "buckets_checked": 368,
            "repair_sheds": 397, "converged": True, "backlog": 0,
        },
    },
    ("replica", 1): {
        "storm": {
            "phases": {"calm": (233, 31, 32, 4), "storm": (8, 0, 355, 37),
                       "recovery": (0, 0, 300, 0)}, **_QUIET,
        },
        "report": {
            "kills": 1, "heals": 1, "crashes": 1, "recoveries": 1,
            "hints_journaled": 225, "hints_replayed": 225, "hints_dropped": 0,
            "repairs": 1991, "repair_bytes": 88656, "buckets_checked": 374,
            "repair_sheds": 398, "converged": True, "backlog": 0,
        },
    },
}


def _storm_tally(storm) -> dict:
    return {
        "phases": {
            p.name: tuple(p.outcomes[o] for o in ServeOutcome)
            for p in storm.phases
        },
        "false_negatives": storm.false_negatives,
        "breaker_opens": storm.breaker_opens,
        "breaker_closes": storm.breaker_closes,
    }


def _int_fields(report) -> dict:
    return {
        k: v for k, v in report.as_dict().items() if type(v) in (int, bool)
    }


def _run(kind: str, seed: int) -> dict:
    if kind == "plain":
        served = build_stack(seed, 2000, cache_mb=1, negative_cache_entries=512)[0]
        return {"storm": _storm_tally(run_storm(served))}
    if kind == "reshard":
        storm, report, _ = run_reshard_storm(
            seed, 2000, 4, reshard_at=200, crash_at_step="backfill",
            write_fraction=0.1,
        )
    else:
        storm, report, _, _ = run_replica_storm(
            seed, 2000, 3, kill_at=200, heal_at=500, wipe=True,
            crash_at_step="handoff.replay:applied", write_fraction=0.1,
        )
    return {"storm": _storm_tally(storm), "report": _int_fields(report)}


@pytest.mark.parametrize("kind, seed", sorted(LOCKED))
def test_storm_replays_its_recorded_tallies(kind, seed):
    with obs.use_registry():
        assert _run(kind, seed) == LOCKED[kind, seed]
