"""Load generator: determinism, SLO report shape, batching contrast."""

import json

from repro import obs
from repro.fault import FaultConfig
from repro.serve.loadgen import LoadReport, main, run_load
from repro.serve.service import ServeConfig


def small_config(batching=True, **overrides) -> ServeConfig:
    defaults = dict(
        agents_per_session=32,
        devices=1,
        physics=False,
        batching=batching,
        queue_capacity=64,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def small_run(batching=True, **kwargs) -> LoadReport:
    params = dict(
        clients=4, duration_s=0.05, rate_rps=4000.0, seed=11,
        config=small_config(batching=batching),
    )
    params.update(kwargs)
    return run_load(**params)


class TestReport:
    def test_percentiles_are_ordered(self):
        report = small_run()
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_counts_balance(self):
        report = small_run()
        terminal = (
            report.completed + report.rejected + report.shed + report.expired
        )
        assert terminal == report.offered
        assert report.throughput_rps > 0

    def test_deterministic_for_a_seed(self):
        a, b = small_run(), small_run()
        assert a.to_dict() == b.to_dict()
        assert a.latencies_ms == b.latencies_ms

    def test_different_seeds_differ(self):
        assert small_run().to_dict() != small_run(seed=99).to_dict()

    def test_to_dict_is_json_serializable(self):
        payload = json.dumps(small_run().to_dict())
        decoded = json.loads(payload)
        assert decoded["completed"] > 0
        assert "throughput_rps" in decoded


class TestBatchingContrast:
    def test_batching_amortizes_launches(self):
        on, off = small_run(True), small_run(False)
        assert on.completed > 0 and off.completed > 0
        assert on.launches < off.launches
        assert on.launches_per_request < off.launches_per_request
        assert on.mean_batch_size > off.mean_batch_size == 1.0

    def test_saturation_favors_batching_throughput(self):
        # Offer more than the per-request path can dispatch; the batched
        # service completes more of the same arrival stream.
        kwargs = dict(clients=16, duration_s=0.1, rate_rps=16000.0, seed=3)
        on = run_load(config=small_config(True), **kwargs)
        off = run_load(config=small_config(False), **kwargs)
        assert on.completed > off.completed
        assert on.throughput_rps > off.throughput_rps
        assert off.rejected > 0  # the unbatched queue actually overflowed


class TestChaosMode:
    def _chaos_run(self, seed=7, fault_rate=0.2) -> LoadReport:
        cfg = small_config(
            devices=2,
            faults=FaultConfig.chaos(seed=seed, device_fault_rate=fault_rate),
        )
        return run_load(
            clients=8, duration_s=0.05, rate_rps=8000.0, seed=seed, config=cfg
        )

    def test_chaos_run_strands_nothing(self):
        report = self._chaos_run()
        assert report.faults is not None
        assert report.faults["injected"] > 0
        assert report.stranded == 0
        assert report.completed + report.failed > 0
        # Every fault is attributed, and some session failed over.
        by_cause = obs.get_ledger().snapshot()["count_by_cause"]
        assert by_cause["fault-inject"] > 0
        assert by_cause["failover-restore"] >= 1

    def test_chaos_report_is_deterministic(self):
        assert self._chaos_run().to_dict() == self._chaos_run().to_dict()

    def test_recovery_counters_reach_the_report(self):
        report = self._chaos_run()
        assert report.retries > 0
        d = report.to_dict()
        for key in ("failed", "stranded", "retries", "timeouts",
                    "evictions", "failovers", "faults"):
            assert key in d
        assert "chaos" in "\n".join(report.lines())

    def test_fault_free_report_omits_the_chaos_block(self):
        report = small_run()
        assert report.faults is None
        assert "chaos" not in "\n".join(report.lines())


class TestCli:
    def test_main_prints_report_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--clients", "4", "--duration", "0.02", "--rate", "2000",
                "--agents", "32", "--devices", "1", "--seed", "5",
                "--json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "p50" in text and "throughput" in text
        data = json.loads(out.read_text())
        assert data["completed"] > 0

    def test_compare_mode_reports_both(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--clients", "4", "--duration", "0.02", "--rate", "2000",
                "--agents", "32", "--devices", "1", "--compare",
                "--json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "batching on" in text and "batching OFF" in text
        assert "batching vs no-batching" in text
        report = json.loads(out.read_text())
        slo = report["batching"]
        for key in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps"):
            assert slo[key] > 0, key
        assert slo["p50_ms"] <= slo["p95_ms"] <= slo["p99_ms"]
        assert slo["launches"] < report["no_batching"]["launches"]

    def test_trace_output_is_valid_json(self, tmp_path, capsys):
        code = main(
            [
                "--clients", "2", "--duration", "0.01", "--rate", "1000",
                "--agents", "32", "--devices", "1",
                "--trace", str(tmp_path),
            ]
        )
        assert code == 0
        trace = json.loads((tmp_path / "serve-loadgen.trace.json").read_text())
        assert trace["traceEvents"]
        assert "serve.batch" in {e["name"] for e in trace["traceEvents"]}
        metrics = json.loads(
            (tmp_path / "serve-loadgen.metrics.json").read_text()
        )
        counters = metrics["metrics"]["counters"]
        assert counters["repro.serve.launches"] > 0
        assert counters["repro.serve.batches"] > 0
        ledger = metrics["transfer_ledger"]["bytes_by_cause"]
        assert ledger["batch-concat"] > 0
        assert ledger["batch-split"] > 0

    def test_cli_chaos_flag_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "--clients", "4", "--duration", "0.02", "--rate", "4000",
                "--agents", "32", "--devices", "2", "--seed", "7",
                "--chaos", "--chaos-rate", "0.2", "--json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "chaos" in text
        data = json.loads(out.read_text())
        assert data["stranded"] == 0
        assert data["faults"]["injected"] > 0
