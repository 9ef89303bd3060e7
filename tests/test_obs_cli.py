"""``python -m repro.obs``: the workload profiler CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.cli import _WORKLOADS, build_parser, main, profile
from repro.obs.export import validate_chrome_trace


class TestProfile:
    @pytest.fixture(scope="class")
    def result(self):
        workload = _WORKLOADS["keyswitch"](quick=True, seed=2025)
        return profile(workload, m=16)

    def test_neutrality_checks_pass(self, result):
        assert result["checks"]["bit_identical"]
        assert result["checks"]["cycles_identical"]
        assert result["ok"]

    def test_phase_cycles_sum_to_backend_total(self, result):
        assert result["checks"]["phase_sum_matches_total"]
        assert result["checks"]["fully_attributed"]
        assert result["unattributed"] == 0
        assert result["phase_sum"] == result["cycles"]["on"]

    def test_keyswitch_phase_taxonomy(self, result):
        assert {"keyswitch.decompose", "keyswitch.ntt",
                "keyswitch.inner_product", "keyswitch.mod_down"} \
            <= set(result["phases"])

    def test_hrot_covers_automorphism_phase(self):
        workload = _WORKLOADS["hrot"](quick=True, seed=3)
        result = profile(workload, m=16)
        assert result["ok"]
        assert "hrot.automorphism" in result["phases"]


class TestMain:
    def test_end_to_end_artifacts(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        status = main(["--workload", "keyswitch", "--quick",
                       "--trace", str(trace), "--metrics", str(metrics)])
        assert status == 0

        with open(trace) as fh:
            trace_obj = json.load(fh)
        assert validate_chrome_trace(trace_obj) == []
        names = {e["name"] for e in trace_obj["traceEvents"]
                 if e.get("ph") == "X"}
        assert "keyswitch.ntt" in names and "vpu.execute" in names

        with open(metrics) as fh:
            snap = json.load(fh)
        assert snap["schema"] == 1 and snap["bench"] == "obs"
        assert snap["workload"] == "keyswitch"
        assert all(snap["checks"].values())
        assert snap["counters"]["vpu.executions"] > 0
        assert snap["counters"]["backend.kernels.ntt"] > 0

    def test_validate_trace_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["--workload", "keyswitch", "--quick",
                     "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        assert main(["--validate-trace", str(trace)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"notTraceEvents": []}')
        assert main(["--validate-trace", str(bad)]) == 1

    def test_validate_envelope_cli_roundtrip(self, tmp_path):
        from repro.serve.bench import run_bench

        src = str(Path(__file__).resolve().parents[1] / "src")

        def validate(path: Path) -> int:
            return subprocess.run(
                [sys.executable, "-m", "repro.obs", "--validate-envelope",
                 str(path)],
                capture_output=True, text=True,
                env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}).returncode

        artifact = run_bench(requests=200, seed=3, workers=4, rate=2000.0,
                             time_scale=0.25)
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(artifact))
        assert validate(path) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 0, "bench": ""}))
        assert validate(bad) == 1

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "keyswitch"
        assert args.m == 16 and not args.quick
