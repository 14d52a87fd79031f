"""Every crash point in the serving code is in a crash table, and every
table entry is a crash point.

Crash points are the names passed to ``_crash_point`` under
``src/repro/serve/``, plus the ``reshard.<step>`` name each migration
step enters through.  They are collected from the source and compared
with the tables the chaos sweeps parametrize over (``CRASH_STEPS``,
``HANDOFF_STEPS``, ``REPAIR_STEPS``), so a crash point added without a
table entry, or an entry no code fires, fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.serve
from repro.serve import CRASH_STEPS, HANDOFF_STEPS, REPAIR_STEPS, MigrationStep

_CALL = re.compile(r"(?<!def )_crash_point\(\s*([^)]*?)\s*\)")
# The one computed name: ReshardCoordinator._enter's per-step crash point.
_STEP_NAME = 'f"reshard.{step.value}"'


def crash_points_in_source() -> set[str]:
    names = {f"reshard.{step.value}" for step in MigrationStep}
    for path in Path(repro.serve.__file__).parent.glob("*.py"):
        for arg in _CALL.findall(path.read_text()):
            assert arg == _STEP_NAME or re.fullmatch(r'"[^"]+"', arg), (
                f"{path.name}: crash point {arg} is neither a literal nor "
                "a migration step; give it a table this test can read"
            )
            if arg != _STEP_NAME:
                names.add(arg.strip('"'))
    return names


def test_every_crash_point_is_swept():
    swept = (
        {f"reshard.{step}" for step in CRASH_STEPS}
        | set(HANDOFF_STEPS) | set(REPAIR_STEPS)
    )
    found = crash_points_in_source()
    assert "repair.stream" in found and "reshard.backfill:batch" in found
    assert sorted(found - swept) == []


def test_every_table_entry_is_fired():
    tabled = (
        [f"reshard.{step}" for step in CRASH_STEPS]
        + list(HANDOFF_STEPS) + list(REPAIR_STEPS)
    )
    assert len(tabled) == len(set(tabled))
    assert sorted(set(tabled) - crash_points_in_source()) == []
