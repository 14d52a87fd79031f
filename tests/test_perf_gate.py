"""``scripts/perf_gate.py``: the snapshot gates CI runs strict.

A gate that cannot fail is a bug: with ``--only`` a missing snapshot
must fail, and a snapshot over its bound must fail under ``--strict``.
A gate must also read only what its own job produced: plain runs check
the throughput snapshot and nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

GATE = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                    "scripts", "perf_gate.py")

TENANT_OK = {
    "series": [{"n_tenants": 2000, "ratio": 0.0314,
                "false_negatives": 0, "divergences": 0}],
    "goodput": {"router": {"goodput": 0.667}, "flat": {"goodput": 0.129}},
}
RESHARD_OK = {"steady": {"goodput": 1.0},
              "migration": {"goodput": 1.0, "completed": True}}


def _gate(tmp_path, only: str, snapshot: dict | None, *extra: str) -> int:
    path = tmp_path / f"{only}.json"
    if snapshot is not None:
        path.write_text(json.dumps(snapshot))
    return subprocess.run(
        [sys.executable, GATE, "--only", only, f"--{only}-snapshot",
         str(path), *extra],
        capture_output=True, text=True,
    ).returncode


@pytest.mark.parametrize("only,snapshot", [("tenant", TENANT_OK),
                                           ("reshard", RESHARD_OK)])
def test_passing_snapshot_passes_strict(tmp_path, only, snapshot):
    assert _gate(tmp_path, only, snapshot, "--strict") == 0


@pytest.mark.parametrize("only", ["tenant", "reshard"])
def test_missing_snapshot_fails(tmp_path, only):
    assert _gate(tmp_path, only, None, "--strict") == 1
    assert _gate(tmp_path, only, None) == 1


def test_plain_run_checks_only_the_throughput_snapshot(tmp_path):
    families = {"families": {"bloom": {"speedup": 4.0, "batch_ops_s": 1e6}}}
    baseline = tmp_path / "baseline.json"
    snapshot = tmp_path / "snapshot.json"
    baseline.write_text(json.dumps(families))
    snapshot.write_text(json.dumps(families))
    bad_tenant = json.loads(json.dumps(TENANT_OK))
    bad_tenant["series"][0]["ratio"] = 0.5
    tenant = tmp_path / "tenant.json"
    tenant.write_text(json.dumps(bad_tenant))
    run = subprocess.run(
        [sys.executable, GATE, "--strict", "--baseline", str(baseline),
         "--snapshot", str(snapshot), "--tenant-snapshot", str(tenant),
         "--reshard-snapshot", str(tmp_path / "absent.json")],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout
    assert "tenant" not in run.stdout and "reshard" not in run.stdout


def test_ratio_over_ceiling_fails_only_under_strict(tmp_path):
    bad = json.loads(json.dumps(TENANT_OK))
    bad["series"][0]["ratio"] = 0.5
    assert _gate(tmp_path, "tenant", bad, "--strict") == 1
    assert _gate(tmp_path, "tenant", bad) == 0


def test_starved_migration_fails_strict(tmp_path):
    bad = json.loads(json.dumps(RESHARD_OK))
    bad["migration"]["goodput"] = 0.5
    assert _gate(tmp_path, "reshard", bad, "--strict") == 1
