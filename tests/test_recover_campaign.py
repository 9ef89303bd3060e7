"""Kill-campaign tests: forked workers really die by SIGKILL, every
resume classifies in the shared campaign taxonomy, torn writes are
detected, a seeded silent divergence fails the gate, and the campaign
is deterministic in its seed.

Forked children exit via SIGKILL or ``os._exit`` only, so pytest's
machinery never runs twice.
"""

import json

import pytest

from repro.fault.crash import (SITE_OP_BOUNDARY, SITE_WAL_MID_RECORD,
                               CrashInjector, CrashSpec, crash_point,
                               install_crash_hook, pending_tear)
from repro.fault.report import OUTCOMES
from repro.recover import campaign as campaign_mod
from repro.recover.campaign import build_workload, run_campaign
from repro.recover.cli import main


@pytest.fixture(autouse=True)
def _no_leaked_hook():
    yield
    install_crash_hook(None)


class TestCrashPrimitives:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec("nonsense", 0)
        with pytest.raises(ValueError):
            CrashSpec(SITE_OP_BOUNDARY, -1)

    def test_crash_point_noop_without_hook(self):
        install_crash_hook(None)
        crash_point(SITE_OP_BOUNDARY)  # must not raise or kill

    def test_pending_tear_counts_occurrences(self):
        spec = CrashSpec(SITE_WAL_MID_RECORD, 2, tear_fraction=0.25)
        install_crash_hook(CrashInjector([spec]))
        assert pending_tear() is None
        assert pending_tear() is None
        assert pending_tear() is spec
        assert pending_tear() is None


class TestWorkloads:
    @pytest.mark.parametrize("name", ["ckks", "bgv"])
    def test_goldens_are_stable(self, name):
        workload = build_workload(name)
        assert workload.golden() == workload.golden()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            build_workload("paillier")


class TestKillCampaign:
    def test_small_campaign_all_classified(self):
        report = run_campaign(executors=("ckks",), injections=6, seed=5)
        assert report.injections == 6
        assert report.ok
        assert report.outcome_counts()["corrected"] == 6
        assert all(e.detail["crashed"] for e in report.events)
        # Torn writes are detected and survived.
        assert any("torn_tail" in e.detail["findings"]
                   for e in report.events)
        assert set(report.per_site()) == {SITE_OP_BOUNDARY,
                                          SITE_WAL_MID_RECORD}

    def test_torn_runs_carry_the_finding(self):
        report = run_campaign(executors=("ckks",), injections=4, seed=11)
        for event in report.events:
            if event.site == SITE_WAL_MID_RECORD:
                assert event.outcome == "corrected"
                assert "torn_tail" in event.detail["findings"]

    def test_deterministic_in_seed(self):
        a = run_campaign(executors=("ckks",), injections=4, seed=9)
        b = run_campaign(executors=("ckks",), injections=4, seed=9)
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        report = run_campaign(executors=("ckks",), injections=2, seed=1)
        payload = json.loads(report.to_json())
        assert payload["injections"] == 2
        assert set(payload["outcomes"]) == set(OUTCOMES)
        assert payload["outcomes"]["silent"] == 0
        assert len(payload["events"]) == 2

    def test_seeded_silent_divergence_fails_the_gate(self, monkeypatch):
        """A resume that exits cleanly with the wrong outputs is silent;
        the shared gate must fail the campaign."""
        wrong = "0" * 64
        monkeypatch.setattr(campaign_mod.Workload, "golden",
                            lambda self: wrong)
        report = run_campaign(executors=("ckks",), injections=2, seed=1)
        assert report.outcome_counts()["silent"] == 2
        assert not report.ok


class TestCli:
    def test_campaign_mode(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(["--campaign", "--executor", "ckks",
                     "--injections", "4", "--seed", "2",
                     "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["injections"] == 4
        assert payload["outcomes"]["corrected"] == 4

    def test_requires_mode(self):
        with pytest.raises(SystemExit):
            main([])

    def test_empty_campaign_fails(self, capsys):
        assert main(["--campaign", "--executor", "ckks",
                     "--injections", "0"]) == 1
        assert "no events" in capsys.readouterr().out

    def test_bench_sweeps_the_chosen_executor(self, tmp_path, monkeypatch):
        swept = []

        def fake_sweep(*, executor="ckks"):
            swept.append(executor)
            return []

        monkeypatch.setattr("repro.recover.cli.recovery_latency_sweep",
                            fake_sweep)
        out = tmp_path / "bench.json"
        assert main(["--bench", "--executor", "bgv", "--injections", "2",
                     "--out", str(out)]) == 0
        assert swept == ["bgv"]
        campaign = json.loads(out.read_text())["campaign"]
        assert campaign["executors"] == ["bgv"] and campaign["ok"] is True
