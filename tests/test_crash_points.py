"""Every crash point in the serving code is swept by a chaos test.

Crash points are the names passed to ``_crash_point`` under
``src/repro/serve/``, plus the ``reshard.<step>`` name each migration
step enters through.  They are collected from the source, so a crash
point added without a sweep fails here instead of going untested.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.serve
from repro.serve import MigrationStep
from tests.test_replica import HANDOFF_STEPS, REPAIR_STEPS
from tests.test_reshard import CRASH_STEPS

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
