"""Campaign driver: coverage, classification, determinism, CLI."""

import json

import pytest

from repro.fault.campaign import (
    CampaignConfig,
    audit_determinism,
    keyswitch_config,
    run_campaign,
    smoke_config,
)
from repro.fault.cli import main
from repro.fault.injector import CORE_SITES, KINDS, current_fault_hook
from repro.fault.policy import IntegrityPolicy
from repro.fault.report import OUTCOMES, CampaignEvent, CampaignReport


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(smoke_config(injections=48))

    def test_no_silent_corruption_under_retry(self, report):
        assert report.outcome_counts().get("silent", 0) == 0

    def test_all_core_sites_and_kinds_covered(self, report):
        assert set(report.per_site()) == set(CORE_SITES)
        assert {e.detail["kind"] for e in report.events} == set(KINDS)

    def test_live_detection_rate(self, report):
        assert report.detection_rate_live >= 0.99

    def test_detection_latency_recorded(self, report):
        latencies = [e.detail["detection_latency"] for e in report.events
                     if e.detail["detection_latency"] is not None]
        assert latencies and all(lat >= 0 for lat in latencies)

    def test_hook_is_uninstalled_after_campaign(self, report):
        assert current_fault_hook() is None

    def test_report_serializes(self, report):
        data = json.loads(report.to_json())
        assert data["injections"] == 48
        assert data["policy"] == "detect-retry"
        assert len(data["events"]) == 48
        assert set(data["outcomes"]) == set(OUTCOMES)  # zero-filled

    def test_report_carries_shared_artifact_envelope(self, report):
        data = json.loads(report.to_json())
        assert data["schema"] == 1
        assert data["bench"] == "faults"
        assert set(data["host"]) == {"machine", "python", "numpy"}


class TestCampaignGate:
    """The one pass rule every campaign preset shares."""

    @staticmethod
    def _report(*outcomes, allowed=("masked", "corrected")):
        return CampaignReport(
            bench="t", label="t", allowed=frozenset(allowed),
            events=[CampaignEvent(i, "s", o) for i, o in enumerate(outcomes)])

    def test_allowed_outcomes_pass(self):
        report = self._report("masked", "corrected")
        assert report.ok
        assert report.outcome_counts() == {**dict.fromkeys(OUTCOMES, 0),
                                           "masked": 1, "corrected": 1}

    def test_outcome_outside_preset_fails(self):
        assert not self._report("masked", "crash").ok

    def test_hung_and_silent_fail_even_if_allowed(self):
        for outcome in ("hung", "silent"):
            assert not self._report(outcome, allowed=OUTCOMES).ok

    def test_empty_campaign_and_findings_fail(self):
        assert self._report().violations() == ["campaign ran no events"]
        report = self._report("masked")
        report.findings.append("p99 over bound")
        assert report.violations() == ["p99 over bound"]


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert audit_determinism(smoke_config(injections=12))

    def test_different_seed_differs(self):
        a = run_campaign(smoke_config(injections=12, seed=1)).to_json()
        b = run_campaign(smoke_config(injections=12, seed=2)).to_json()
        assert a != b


class TestPolicies:
    def test_off_policy_never_detects(self):
        report = run_campaign(smoke_config(
            injections=16, policy=IntegrityPolicy.OFF))
        seen = {k for k, v in report.outcome_counts().items() if v}
        assert seen <= {"masked", "silent", "crash"}
        assert all(e.detail["detection_latency"] is None
                   for e in report.events)

    def test_detect_policy_counts_without_correcting(self):
        report = run_campaign(smoke_config(
            injections=16, policy=IntegrityPolicy.DETECT))
        assert report.outcome_counts().get("silent", 0) == 0
        assert sum(e.detail["retries"] for e in report.events) == 0


class TestKeyswitchCampaign:
    def test_spare_channel_campaign_is_clean(self):
        report = run_campaign(keyswitch_config(injections=8))
        counts = report.outcome_counts()
        assert counts.get("silent", 0) == 0
        assert counts.get("corrected", 0) >= 1


class TestConfigValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(workload="toaster"))

    def test_unsupported_site_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(workload="keyswitch",
                                        sites=("regfile",)))

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(sites=()))


class TestCli:
    def test_smoke_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        code = main(["--campaign", "smoke", "--injections", "16",
                     "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["injections"] == 16
        assert data["outcomes"].get("silent", 0) == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_audit_mode(self, capsys):
        assert main(["--campaign", "smoke", "--injections", "8",
                     "--audit"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_policy_override(self, capsys):
        main(["--campaign", "smoke", "--injections", "8",
              "--policy", "off"])
        assert "policy=off" in capsys.readouterr().out

    def test_silent_outcome_fails_the_gate(self, capsys):
        """With integrity checks off, seeded faults reach the output
        unseen; the shared gate must turn that into exit 1."""
        assert main(["--campaign", "smoke", "--injections", "8",
                     "--policy", "off"]) == 1
        out = capsys.readouterr().out
        assert "silent" in out and "FAIL" in out

    def test_empty_campaign_fails(self, capsys):
        assert main(["--injections", "0"]) == 1
        assert "no events" in capsys.readouterr().out
        assert main(["--injections", "0", "--audit"]) == 1
