"""Self-tests for the serving benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from repro.apps.lsm import LSMTree  # noqa: E402
from repro.common.clock import Answer, LookupResult  # noqa: E402
from repro.serve import TenantStore  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, seed):
    """Every workload runs clean at tiny size and prints every
    end-to-end metric with its unit, on two seeds."""
    out = _cli("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", "0", "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == set(run.gated_metrics(trace=False))
    for name, metric in last["metrics"].items():
        assert metric["unit"] == run.gated_metrics(trace=False)[name]
        assert metric["value"] > 0, name
    printed = {line.split()[1] for line in out.stdout.splitlines()
               if line.startswith("metric ")}
    assert {"failed_frac", "sim_p99_ms", "space_amp"} <= printed


def _lie_once(monkeypatch, cls):
    """Make *cls*.lookup answer one authoritative ABSENT for a key it
    would have answered PRESENT."""
    original = cls.lookup
    lied = []

    def lookup(self, key, **kwargs):
        result = original(self, key, **kwargs)
        if not lied and result.state is Answer.PRESENT:
            lied.append(key)
            return LookupResult(Answer.ABSENT, complete=True)
        return result

    monkeypatch.setattr(cls, "lookup", lookup)
    return lied


@pytest.mark.parametrize("workload,backend", [
    ("read-zipf", LSMTree), ("tenant-churn", TenantStore),
])
def test_one_false_absent_fails_the_run(workload, backend, monkeypatch, capsys):
    lied = _lie_once(monkeypatch, backend)
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.2",
                     "--scale", "tiny"])
    assert lied, "the wrapped backend never answered PRESENT"
    assert code == 1
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
    assert not any(line.startswith("metric ") for line in out.splitlines())


@pytest.mark.parametrize("workload", ["read-zipf", "replica-heal"])
def test_traced_self_times_fit_in_the_wall_time(workload):
    result = run.run(workload, 0, 0.3, trace=True, scale="tiny")
    assert not result["violations"]
    layers = result["layers"]
    total = sum(row["self_s"] for row in layers.values())
    assert total == pytest.approx(result["trace.self_s"])
    assert 0 < total <= result["trace.wall_s"]
    assert 0 < layers["served.serve"]["calls"] <= result["traced_attempted"]
    last = run.json_line(result, trace=True)
    assert set(last["metrics"]) == set(run.gated_metrics(trace=True))


def test_tracer_self_time_excludes_children():
    class Layer:
        def outer(self):
            self.inner()
            return 1

        def inner(self):
            sum(range(20_000))

    tracer = Tracer()
    tracer.install([(Layer, "outer", "outer"), (Layer, "inner", "inner")])
    try:
        assert Layer().outer() == 1
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer"  # original restored
    table = tracer.layer_table()
    assert table["outer"]["calls"] == table["inner"]["calls"] == 1
    parent = tracer.end[0] - tracer.start[0]
    child = tracer.end[1] - tracer.start[1]
    assert table["outer"]["self_s"] == pytest.approx(parent - child)
    assert table["inner"]["self_s"] == pytest.approx(child)


def test_fails_without_the_program_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _cli("--workload", "read-zipf", "--seed", "0", "--seconds", "1",
               cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
