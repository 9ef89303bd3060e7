"""The benchmark regression sentinel: spec resolution, noise-aware
thresholds, best-of-group scoring, and the end-to-end gate.

The load-bearing assertions: a seeded 20% latency inflation fails the
full comparison (tolerance 15%) while a 10% wobble passes; portable
mode never applies wall-clock comparisons across hosts but still
catches speedup collapses, zero-invariant violations, and vanished
bit-identity flags; and a wildcard spec that resolves nothing is a
failure, not a vacuous pass.
"""

import copy
import json

import pytest

from repro.obs.export import host_envelope
from repro.obs.sentinel import (
    ARTIFACTS,
    BENCH_SPECS,
    REGEN_COMMANDS,
    MetricSpec,
    compare_envelopes,
    compare_files,
    run_sentinel,
)


def _serve_envelope() -> dict:
    env = host_envelope("serve")
    env["engine"] = {"error": 0, "integrity_failures": 0,
                     "degrade_steps": 0}
    env["results"] = {
        "latency_s": {"p50": 0.004, "p95": 0.080, "p99": 0.200},
        "throughput_rps": 5000.0,
        "goodput_rps": 3700.0,
    }
    return env


def _kernels_envelope() -> dict:
    env = host_envelope("kernel_batching")
    env["ntt"] = {"1024": {"bit_identical": True, "speedup": 2.4,
                           "speedup_compiled": 14.0, "batched_s": 0.001}}
    env["automorphism"] = {"1024": {"bit_identical": True, "speedup": 1.8,
                                    "batched_s": 0.0005}}
    env["keyswitch_small_params"] = {
        "bit_identical": True, "backends_bit_identical": True,
        "speedup": 4.0, "speedup_compiled": 11.0,
        "batched_s": 0.01, "compiled_s": 0.004,
    }
    return env


class TestLatencyThresholds:
    def test_twenty_percent_regression_fails(self):
        base = _serve_envelope()
        bad = copy.deepcopy(base)
        for key in ("p50", "p95", "p99"):
            bad["results"]["latency_s"][key] *= 1.20
        checks = compare_envelopes(base, [bad])
        failed = {c.path for c in checks if not c.ok}
        assert failed == {"results.latency_s.p50", "results.latency_s.p95",
                          "results.latency_s.p99"}

    def test_ten_percent_wobble_passes(self):
        base = _serve_envelope()
        noisy = copy.deepcopy(base)
        for key in ("p50", "p95", "p99"):
            noisy["results"]["latency_s"][key] *= 1.10
        noisy["results"]["throughput_rps"] *= 0.90
        assert all(c.ok for c in compare_envelopes(base, [noisy]))

    def test_throughput_collapse_fails(self):
        base = _serve_envelope()
        bad = copy.deepcopy(base)
        bad["results"]["throughput_rps"] *= 0.70
        failed = {c.path for c in checks_fail(base, bad)}
        assert "results.throughput_rps" in failed

    def test_latency_not_compared_in_portable_mode(self):
        base = _serve_envelope()
        bad = copy.deepcopy(base)
        bad["results"]["latency_s"]["p99"] *= 5.0  # different host: fine
        assert all(c.ok for c in
                   compare_envelopes(base, [bad], portable_only=True))

    def test_error_invariant_checked_in_portable_mode(self):
        base = _serve_envelope()
        bad = copy.deepcopy(base)
        bad["engine"]["error"] = 3
        failed = {c.path for c in
                  compare_envelopes(base, [bad], portable_only=True)
                  if not c.ok}
        assert failed == {"engine.error"}


def checks_fail(base: dict, cand: dict) -> list:
    return [c for c in compare_envelopes(base, [cand]) if not c.ok]


class TestBestOfGroup:
    def test_one_slow_candidate_cannot_fail_the_gate(self):
        """Best-of-group: a descheduled run is outvoted by a clean one."""
        base = _serve_envelope()
        slow = copy.deepcopy(base)
        slow["results"]["latency_s"]["p99"] *= 2.0
        clean = copy.deepcopy(base)
        assert all(c.ok for c in compare_envelopes(base, [slow, clean]))

    def test_consistent_regression_still_fails(self):
        base = _serve_envelope()
        bad1 = copy.deepcopy(base)
        bad2 = copy.deepcopy(base)
        for bad in (bad1, bad2):
            bad["results"]["latency_s"]["p99"] *= 1.25
        failed = [c for c in compare_envelopes(base, [bad1, bad2])
                  if not c.ok]
        assert any(c.path == "results.latency_s.p99" for c in failed)


class TestPortableKernelSpecs:
    def test_quick_candidate_passes_against_full_baseline(self):
        """The committed artifact has sizes up to 16384; the quick regen
        only emits 1024 — wildcards resolve against the candidate."""
        full = _kernels_envelope()
        full["ntt"]["16384"] = {"bit_identical": True, "speedup": 2.0,
                                "batched_s": 0.1}
        assert all(c.ok for c in compare_envelopes(
            full, [_kernels_envelope()], portable_only=True))

    def test_speedup_collapse_fails_floor(self):
        base = _kernels_envelope()
        bad = copy.deepcopy(base)
        bad["ntt"]["1024"]["speedup"] = 1.01
        failed = [c for c in
                  compare_envelopes(base, [bad], portable_only=True)
                  if not c.ok]
        assert any("floor" in c.detail for c in failed)

    def test_lost_bit_identity_fails(self):
        base = _kernels_envelope()
        bad = copy.deepcopy(base)
        bad["keyswitch_small_params"]["bit_identical"] = False
        failed = {c.path for c in
                  compare_envelopes(base, [bad], portable_only=True)
                  if not c.ok}
        assert "keyswitch_small_params.bit_identical" in failed

    def test_missing_compiled_columns_are_optional(self):
        base = _kernels_envelope()
        nocc = copy.deepcopy(base)
        for section in (nocc["ntt"]["1024"],
                        nocc["keyswitch_small_params"]):
            section.pop("speedup_compiled", None)
        nocc["keyswitch_small_params"]["backends_bit_identical"] = None
        assert all(c.ok for c in
                   compare_envelopes(base, [nocc], portable_only=True))

    def test_vanished_section_is_not_a_vacuous_pass(self):
        base = _kernels_envelope()
        gone = copy.deepcopy(base)
        gone.pop("ntt")
        failed = [c for c in
                  compare_envelopes(base, [gone], portable_only=True)
                  if not c.ok]
        assert any("resolved 0" in c.detail for c in failed)


class TestZeroAndExact:
    def test_missing_required_zero_key_fails(self):
        """An artifact that stopped reporting a zero-invariant count must
        not pass as if it had reported zero."""
        env = host_envelope("faults")
        env["detection_rate_live"] = 1.0
        env["outcomes"] = {"detected": 10}
        env["injections"] = 10
        checks = compare_envelopes(env, [copy.deepcopy(env)],
                                   portable_only=True)
        zero = [c for c in checks if c.path == "outcomes.silent"]
        assert zero and not zero[0].ok
        assert "missing" in zero[0].detail

    def test_nonzero_silent_fails(self):
        env = host_envelope("faults")
        env["detection_rate_live"] = 1.0
        env["outcomes"] = {"detected": 10}
        bad = copy.deepcopy(env)
        bad["outcomes"]["silent"] = 1
        failed = {c.path for c in
                  compare_envelopes(env, [bad], portable_only=True)
                  if not c.ok}
        assert "outcomes.silent" in failed

    def test_detection_rate_floor(self):
        env = host_envelope("faults")
        env["detection_rate_live"] = 1.0
        env["outcomes"] = {}
        bad = copy.deepcopy(env)
        bad["detection_rate_live"] = 0.80
        failed = {c.path for c in
                  compare_envelopes(env, [bad], portable_only=True)
                  if not c.ok}
        assert "detection_rate_live" in failed

    def test_exact_counts_full_mode_only(self):
        env = host_envelope("faults")
        env["detection_rate_live"] = 1.0
        env["outcomes"] = {"detected": 53, "corrected": 60, "silent": 0}
        env["injections"] = 200
        smoke = copy.deepcopy(env)
        smoke["injections"] = 24  # different campaign scale
        smoke["outcomes"]["detected"] = 7
        smoke["outcomes"]["corrected"] = 60
        assert all(c.ok for c in
                   compare_envelopes(env, [smoke], portable_only=True))
        assert {c.path for c in checks_fail(env, smoke)} == {
            "injections", "outcomes.detected"}


class TestSpecTables:
    def test_every_committed_artifact_has_specs_and_a_regen_command(self):
        assert set(ARTIFACTS.values()) == set(BENCH_SPECS)
        assert set(ARTIFACTS.values()) == set(REGEN_COMMANDS)

    def test_every_spec_resolves_in_its_committed_artifact(self, repo_root):
        """Required portable specs must match the committed baselines —
        a renamed metric key must fail loudly here, not silently skip."""
        for name, bench in ARTIFACTS.items():
            baseline = json.loads((repo_root / name).read_text())
            checks = compare_envelopes(baseline, [baseline],
                                       portable_only=True)
            bad = [c for c in checks if not c.ok]
            assert not bad, f"{name}: {[(c.path, c.detail) for c in bad]}"

    def test_every_required_spec_resolves_in_its_committed_artifact(
            self, repo_root):
        """Every required spec, portable or not, names a key that the
        committed artifact actually carries — a spec cannot pass on a
        missing key."""
        for name in ARTIFACTS:
            baseline = json.loads((repo_root / name).read_text())
            bad = [(c.path, c.detail)
                   for c in compare_envelopes(baseline, [baseline])
                   if not c.ok]
            assert not bad, f"{name}: {bad}"

    def test_latency_tolerance_is_tighter_than_the_gate(self):
        """The seeded-regression acceptance (20%) must exceed the
        latency tolerance, or the sentinel could never catch it."""
        assert MetricSpec("x", "latency").tol < 0.20


@pytest.fixture
def repo_root():
    import pathlib

    import repro

    return pathlib.Path(repro.__file__).resolve().parents[2]


class TestEndToEnd:
    def test_compare_files_seeded_regression_exits_nonzero(
            self, tmp_path, repo_root):
        """The acceptance gate: a 20% latency inflation of the committed
        serve artifact must fail the full file-level comparison."""
        baseline_path = repo_root / "BENCH_serve.json"
        baseline = json.loads(baseline_path.read_text())
        bad = copy.deepcopy(baseline)
        for key in ("p50", "p95", "p99"):
            bad["results"]["latency_s"][key] *= 1.20
        bad_path = tmp_path / "candidate.json"
        bad_path.write_text(json.dumps(bad))
        checks = compare_files(baseline_path, [bad_path])
        assert any(not c.ok for c in checks)
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "--sentinel",
             "--baseline", str(baseline_path),
             "--candidate", str(bad_path),
             "--report", str(tmp_path / "report.json")],
            cwd=repo_root, capture_output=True, text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": str(repo_root / "src")})
        assert proc.returncode != 0, proc.stdout + proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is False
        assert report["bench"] == "sentinel"

    def test_run_sentinel_without_regen_validates_committed(
            self, tmp_path, repo_root):
        report_path = tmp_path / "SENTINEL_report.json"
        result = run_sentinel(repo_root, regen=False,
                              report_path=report_path,
                              log=lambda *_: None)
        assert result.ok
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert {a["file"] for a in report["artifacts"]} == set(ARTIFACTS)

    def test_run_sentinel_flags_missing_artifact(self, tmp_path):
        result = run_sentinel(tmp_path, regen=False, log=lambda *_: None)
        assert not result.ok
