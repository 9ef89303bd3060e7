"""Self-tests of the end-to-end benchmark.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
Tiny-size smoke runs of every workload, trace reconciliation, traced
vs untraced bit-identity, and the shape of ``BENCHMARK.json`` and of the
result line.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("e2ebench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
workloads, BUILD = run._import_program()

from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str) -> dict:
    """The workload's spec shrunk to smoke-test size."""
    spec = copy.deepcopy(run.CONFIG["workloads"][name])
    if name.startswith("mlp-"):
        spec["params"] = {"n": 256, "levels": 6, "scale_bits": 27,
                          "prime_bits": 29}
        spec["warmup_requests"] = 1
    if name == "serve-n256":
        spec.update(steady_rps=20.0, overload_rps=60.0, warmup_rounds=1)
    if name == "vpu-n256":
        spec["input_pool"] = 1
    return spec


def build(name: str, seed: int = 3):
    return run.make_workload(workloads, name, tiny(name), seed,
                             BUILD / "selftest" / name)


GATED = [w["name"] for w in BENCHMARK["workloads"]]
WORKLOADS = sorted(run.CONFIG["workloads"])


def test_benchmark_json_matches_the_metric_lists():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["e2ebench"]
    assert set(GATED) <= set(WORKLOADS)
    assert all("not_in_benchmark_json" in run.CONFIG["workloads"][name]
               for name in set(WORKLOADS) - set(GATED))
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= min(0.25, setup["bound"])
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]] + GATED
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"]
               + BENCHMARK["per_layer"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_outputs_are_correct(name):
    wl = build(name)
    try:
        wl.setup()
        window = wl.timed(0.5, 2)
        assert window.attempted >= 2
        assert window.wrong == 0 and window.failed == 0
        metrics = run.end_to_end(wl.spec, window, 0.1)
        assert all(metrics[m] > 0 for m, _ in run.END_TO_END)
    finally:
        wl.shutdown()


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_reconciles_and_outputs_are_bit_identical(name):
    wl = build(name)
    try:
        wl.setup()
        plain = wl.timed(0.4, 2)
        before = wl.layer_counters()
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.timed(0.4, 2, tracer)
        finally:
            tracer.restore()
        after = wl.layer_counters()
        identity = wl.check()
        vpu = (traced, before, after) if name == "vpu-n256" else None
        if wl.spec.get("vpu_probe_requests"):
            vpu, probe = run.vpu_probe(workloads, 3, 1)
            identity.update(probe)
        metrics, checks = run.per_layer(plain, traced, tracer, before, after,
                                        vpu)
        assert all(checks.values()), checks
        assert identity and all(identity.values()), identity
    finally:
        wl.shutdown()
    assert set(metrics) == {m for m, _, _ in run.PER_LAYER}
    assert sum(metrics[m] for m in run.RECONCILED) == pytest.approx(
        metrics["trace.wall_ms"], rel=1e-9)
    if name.startswith("mlp-"):
        assert metrics["kernels.fwd_ntt.calls"] > 0
        assert metrics["fhe.decompose.calls"] > 0
    if name == "serve-n256":
        assert metrics["integrity.checks"] > 0
        assert metrics["journal.appends"] == pytest.approx(2.0)
    if name in ("mlp-n4096", "vpu-n256"):
        assert metrics["vpu.cycles_per_req"] > 0


@pytest.mark.parametrize("name", ["mlp-n1024", "vpu-n256"])
def test_wrong_outputs_are_caught(name):
    wl = build(name)
    wl.setup()
    decrypt = wl.ctx.decrypt
    wl.ctx.decrypt = lambda ct: decrypt(ct) + 0.5
    window = wl.timed(0.2, 2)
    assert window.wrong == window.failed == window.attempted >= 2


def test_identity_check_sees_one_flipped_bit():
    wl = build("mlp-n1024")
    wl.setup()
    ct = wl.fixed_run(wl.backend)
    flipped = ct.copy()
    flipped.parts[1].residues[0, 0] ^= 1
    assert workloads.same_ciphertext(ct, ct.copy())
    assert not workloads.same_ciphertext(ct, flipped)


def test_tracer_restores_every_patched_name():
    from repro.fhe import ckks, keyswitch

    before = (keyswitch.mod_down, ckks.mod_down, ckks.rescale,
              keyswitch.decompose_digits, ckks.CkksContext.rotate)
    tracer = Tracer()
    tracer.install()
    assert ckks.mod_down is not before[1]
    tracer.restore()
    assert (keyswitch.mod_down, ckks.mod_down, ckks.rescale,
            keyswitch.decompose_digits, ckks.CkksContext.rotate) == before


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name,trace", [("mlp-n4096", "0"),
                                        ("serve-n256", "1")])
def test_cli_prints_every_metric_last(name, trace):
    proc = _run_cli(ROOT, "--workload", name, "--seed", "4",
                    "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == {
        name: v["unit"] for name, v in result["metrics"].items()}


def test_cli_fails_without_program_sources():
    bare = BUILD / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run_cli(bare, "--workload", "mlp-n1024", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
