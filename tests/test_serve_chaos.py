"""Chaos campaign and benchmark-artifact tests (smoke-sized)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import observe
from repro.obs.export import validate_envelope
from repro.serve.bench import run_bench
from repro.serve.chaos import (
    SERVE_SITES,
    ChaosInjector,
    ChaosSpec,
    default_chaos_specs,
    run_chaos_campaign,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _serve_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})


class TestChaosInjector:
    def test_plans_are_deterministic(self):
        specs = default_chaos_specs()
        a = ChaosInjector(specs, seed=9)
        b = ChaosInjector(specs, seed=9)
        for request_id in range(200):
            assert a.plan_for(request_id) == b.plan_for(request_id)
        assert a.injections == b.injections
        assert a.by_site == b.by_site

    def test_plan_cached_not_recounted(self):
        injector = ChaosInjector(default_chaos_specs(), seed=1)
        for request_id in range(100):
            injector.plan_for(request_id)
        before = injector.injections
        for request_id in range(100):
            injector.plan_for(request_id)
        assert injector.injections == before

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec("regfile", rate=0.5)  # a kernel site, not a serve site
        with pytest.raises(ValueError):
            ChaosSpec(SERVE_SITES[0], rate=1.5)

    def test_obs_counts_injections(self):
        with observe() as obs:
            injector = ChaosInjector(default_chaos_specs(), seed=3)
            for request_id in range(100):
                injector.plan_for(request_id)
            if injector.injections:
                assert (obs.metrics.counters["serve.chaos.injections"]
                        == injector.injections)


class TestChaosCampaign:
    def test_smoke_campaign_holds_the_contract(self):
        report = run_chaos_campaign(requests=200, seed=4,
                                    min_injections=30)
        assert report.ok, report.violations()
        assert report.fields["resolved"] == report.fields["submitted"] == 200
        counts = report.outcome_counts()
        assert counts["hung"] == counts["silent"] == counts["crash"] == 0
        assert not report.findings  # no untyped result, bounded p99
        assert report.fields["injected_faults"] >= 30
        # The mix actually exercised the machinery: one event per
        # affected request.
        assert report.injections == len(
            {e.detail["request_id"] for e in report.events}) > 0
        assert counts["corrected"] > 0 and counts["detected"] > 0

    def test_campaign_is_deterministic(self):
        first = run_chaos_campaign(requests=150, seed=6, min_injections=1)
        second = run_chaos_campaign(requests=150, seed=6, min_injections=1)
        assert first.fields["injected_faults"] == \
            second.fields["injected_faults"]
        assert first.fields["by_site"] == second.fields["by_site"]
        assert [e.site for e in first.events] == [
            e.site for e in second.events]

    def test_cli_chaos_exits_zero_on_pass(self, tmp_path):
        out = tmp_path / "chaos.json"
        proc = _serve_cli("--chaos", "--requests", "150",
                          "--min-injections", "20", "--seed", "2",
                          "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout
        report = json.loads(out.read_text())
        assert report["bench"] == "chaos"
        assert report["outcomes"]["hung"] == 0
        assert report["outcomes"]["silent"] == 0

    def test_cli_chaos_exits_nonzero_on_infeasible_floor(self):
        proc = _serve_cli("--chaos", "--requests", "30",
                          "--min-injections", "100000")
        assert proc.returncode == 1
        assert "injections realized" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_cli_chaos_empty_campaign_fails(self):
        proc = _serve_cli("--chaos", "--requests", "0",
                          "--min-injections", "0")
        assert proc.returncode == 1
        assert "no events" in proc.stdout

    def test_seeded_silent_value_fails_the_gate(self, monkeypatch):
        """Blind the engine's integrity check while it serves: injected
        corruptions go out as ``ok``, the campaign's re-verification
        finds them silent, and the shared gate fails the campaign."""
        from repro.serve import bench
        from repro.serve.executor import SimulatedExecutor

        serving = [True]
        real_run_trace = bench.run_trace
        real_verify = SimulatedExecutor.verify

        async def run_trace(*args, **kwargs):
            try:
                return await real_run_trace(*args, **kwargs)
            finally:
                serving[0] = False

        monkeypatch.setattr(bench, "run_trace", run_trace)
        monkeypatch.setattr(
            SimulatedExecutor, "verify",
            lambda self, request, value: (
                serving[0] or real_verify(self, request, value)))
        report = run_chaos_campaign(requests=200, seed=4, min_injections=1)
        assert report.outcome_counts()["silent"] > 0
        assert not report.ok


class TestBenchArtifact:
    def test_smoke_bench_envelope_and_fields(self):
        artifact = run_bench(requests=800, seed=1, workers=8, rate=2000.0,
                             time_scale=0.5)
        assert validate_envelope(artifact) == []
        assert artifact["bench"] == "serve"
        results = artifact["results"]
        assert results["requests"] == 800
        assert results["latency_s"]["p50"] <= results["latency_s"]["p99"]
        assert results["throughput_rps"] > 0
        for key in ("retried", "degraded", "shed", "timed_out"):
            assert key in results
        engine = artifact["engine"]
        assert engine["resolved"] == engine["submitted"] == 800

    def test_closed_loop_mode(self):
        artifact = run_bench(requests=400, seed=2, workers=8, rate=2000.0,
                             mode="closed", time_scale=0.5)
        assert validate_envelope(artifact) == []
        assert artifact["results"]["requests"] == 400
        assert artifact["config"]["mode"] == "closed"
