"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quotient" in out
        assert "§2.5" in out
        assert "adaptive" in out

    def test_space(self, capsys):
        assert main(["space", "--epsilon", "0.00390625", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "8.000" in out  # log2(1/2^-8)
        assert "KiB" in out

    def test_space_rejects_bad_epsilon(self):
        with pytest.raises(SystemExit):
            main(["space", "--epsilon", "2.0"])

    def test_monkey(self, capsys):
        assert main(["monkey", "--levels", "10,100,1000", "--bits-per-key", "8"]) == 0
        out = capsys.readouterr().out
        assert "sum of FPRs" in out
        # Monkey's total must print lower than uniform's.
        line = [l for l in out.splitlines() if "sum of FPRs" in l][0]
        monkey_total, uniform_total = map(float, line.split()[-2:])
        assert monkey_total < uniform_total

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


_SMALL = ["--n-keys", "400", "--n-ops", "200", "--memtable-entries", "64"]


class TestStatsCommand:
    def test_table_has_fp_rate_device_and_retry_rows(self, capsys):
        assert main(["stats", *_SMALL, "--fault-rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "repro_lsm_filter_fp_rate{level=" in out
        assert "repro_device_reads_total" in out
        assert "repro_device_writes_total" in out
        assert "repro_retry_backoff_seconds" in out
        assert "p50=" in out and "p99=" in out
        assert "YCSB-B" in out

    def test_prometheus_format_round_trips(self, capsys):
        from repro import obs

        assert main(["stats", *_SMALL, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        samples = obs.parse_prometheus(out)
        assert "repro_lsm_lookups_total" in samples
        assert "repro_device_reads_total" in samples
        assert samples["repro_lsm_lookups_total"][()] > 0

    def test_json_format_round_trips(self, capsys):
        from repro import obs

        assert main(["stats", *_SMALL, "--format", "json"]) == 0
        out = capsys.readouterr().out
        rebuilt = obs.from_json(out)
        assert "repro_lsm_filter_fp_rate" in rebuilt.snapshot()
        assert rebuilt.snapshot() == obs.from_json(out).snapshot()

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        from repro import obs

        path = tmp_path / "metrics.json"
        assert main(["stats", *_SMALL, "--metrics-out", str(path)]) == 0
        rebuilt = obs.from_json(path.read_text())
        assert rebuilt.get("repro_lsm_lookups_total") is not None

    def test_selftest_passes(self, capsys):
        assert main(["stats", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_rejects_bad_fault_rate(self):
        with pytest.raises(SystemExit):
            main(["stats", "--fault-rate", "1.5"])


class TestTraceCommand:
    def test_prints_probe_tree(self, capsys):
        assert main(["trace", *_SMALL, "--fault-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "lsm.get" in out
        assert "filter.probe" in out
        assert "device.read" in out
        assert "retry.attempt" in out
        assert "probe trees" in out


class TestServeSimTenantCommand:
    """serve-sim --tenants drives the Bloofi fleet end to end: the exit
    code is the contract (nonzero on any false negative, lost audit key,
    or tree-invariant violation), and the report must surface the
    numbers the tenant-chaos CI job greps for."""

    _BASE = ["serve-sim", "--seed", "3", "--tenants", "32",
             "--n-requests", "180"]

    def test_router_storm_exits_clean(self, capsys):
        assert main([*self._BASE, "--tenant-churn", "6",
                     "--tenant-quota", "300"]) == 0
        out = capsys.readouterr().out
        assert "false negatives: 0" in out
        assert "post-drain audit" in out
        assert "0 invariant failures" in out
        assert "provisioned" in out

    def test_flat_mode_probes_whole_fleet(self, capsys):
        assert main([*self._BASE, "--tenant-mode", "flat"]) == 0
        out = capsys.readouterr().out
        # Flat fan-out pays at least one probe per tenant per lookup.
        line = [l for l in out.splitlines() if "mean probes" in l][0]
        assert float(line.split()[4]) >= 32

    def test_tenants_exclusive_with_shards(self):
        with pytest.raises(SystemExit):
            main([*self._BASE, "--shards", "4"])

    def test_churn_requires_tenants(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenant-churn", "5"])

    def test_quota_requires_tenants(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenant-quota", "100"])


class TestServeSimArmedCrash:
    """An armed ``--crash-at-step`` must fire: a typo'd or unreachable
    step fails the run instead of passing it untested."""

    @pytest.mark.parametrize("topology", [
        ["--shards", "4", "--reshard-at", "60", "--crash-at-step", "bakfill"],
        ["--replicas", "3", "--kill-replica-at", "60", "--heal-at", "150",
         "--crash-at-step", "handoff.replya"],
    ], ids=["sharded", "replicated"])
    def test_crash_that_never_fires_fails_the_run(self, topology, capsys):
        argv = ["serve-sim", "--seed", "0", "--n-keys", "300",
                "--n-requests", "240", *topology]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "never fired" in out
        assert "false negatives: 0" in out


class TestServeSimFlagTable:
    """A serve-sim flag the chosen stack does not read is a usage error
    (exit 2), never a silently ignored option."""

    @pytest.mark.parametrize("flags", [
        ["--shards", "2", "--cache-mb", "1", "--negative-cache", "512"],
        ["--tenant-mode", "flat", "--tenant-trees", "9"],
        ["--journal-out", "unused.json"],
        ["--tenants", "8", "--n-keys", "300"],
        ["--cache-policy", "tinylfu"],
        ["--shards", "2", "--reshard-kind", "merge"],
        ["--replicas", "3", "--wipe-replica"],
        ["--repl-quorum", "2"],
        ["--replicas", "3", "--repl-quorum", "5"],
    ], ids=[
        "cache-on-sharded", "tenant-flags-on-classic", "journal-on-classic",
        "n-keys-on-tenant", "policy-without-cache", "kind-without-reshard",
        "wipe-without-kill", "quorum-without-replicas", "quorum-above-R",
    ])
    def test_mismatched_flag_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--n-requests", "30", *flags])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
