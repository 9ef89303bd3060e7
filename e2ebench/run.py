"""End-to-end benchmark: encrypted MLP, full-stack serving, VPU model.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload mlp-n4096 --seed 1 --seconds 40 --trace 0

Workloads (``e2ebench/config.json`` records why each exists):

* ``mlp-n4096`` -- closed loop, one client: encrypt a 16-feature input,
  ``encrypted_matvec_bsgs`` with W1, ``square``,
  ``encrypted_matvec_bsgs`` with W2, decrypt; CompiledBackend.  After
  timing, two vpu-n256 requests run on the VPU model as a probe: their
  exact counts are the ``vpu.*`` per-layer metrics.
* ``mlp-n1024`` -- the same request at n=1024.  A diagnostic, not in
  ``BENCHMARK.json``: its run-to-run spread is too wide to gate on.
* ``serve-n256`` -- open loop through ServeEngine, CkksOpExecutor,
  IntegrityBackend(CompiledBackend(), "detect-retry") and a
  RequestJournal: a ``steady`` phase, then an ``overload`` phase.
* ``vpu-n256`` -- closed loop: one HMult then HRot(1) on VpuBackend(m=16).
  A diagnostic like ``mlp-n1024``: host speed drift moves the simulator
  past the bound.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` times half the run untraced and half traced and prints
the per-layer metrics.  Every output is checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any output is wrong, when
a bit-identity or trace-reconciliation check fails, or when the
benchmark cannot run (for example without the ``src`` tree).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
CONFIG = json.loads((HERE / "config.json").read_text())

END_TO_END = (("setup_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("goodput_rps", "1/s"),
              ("peak_rss_mb", "MB"))

#: What a latency percentile reads when it lands on a miss (a request
#: shed, timed out or failed counts at +inf, which JSON cannot carry):
#: far above any completed request, so it reads as a regression.
MISS_MS = 1e6

KERNELS = ("fwd_ntt", "inv_ntt", "auto", "ks_inner")
FHE = ("decompose", "accumulate", "mod_down", "rescale", "encode")
SERVE_PHASES = ("queue", "dispatch", "compute", "verify")
SERVE_COUNTS = ("shed", "timeout", "watchdog_fires", "retries", "degraded")


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for k in KERNELS:
        spec += [(f"kernels.{k}.calls", "calls/req", "lower"),
                 (f"kernels.{k}.self_ms", "ms/req", "lower")]
    spec += [("kernels.us_per_row", "us", "lower"),
             ("kernels.share", "ratio", "higher"),
             ("kernels.plan_cache_hit_ratio", "ratio", "higher")]
    for f in FHE:
        spec += [(f"fhe.{f}.calls", "calls/req", "lower"),
                 (f"fhe.{f}.self_ms", "ms/req", "lower")]
    spec += [("fhe.ckks.self_ms", "ms/req", "lower"),
             ("integrity.checks", "calls/req", "lower"),
             ("integrity.verify_ms", "ms/req", "lower"),
             ("integrity.dispatch_ms", "ms/req", "lower"),
             ("integrity.share", "ratio", "lower"),
             ("integrity.detections", "count", "lower"),
             ("integrity.retries", "count", "lower")]
    for phase in SERVE_PHASES:
        spec += [(f"serve.{phase}_ms.p50", "ms", "lower"),
                 (f"serve.{phase}_ms.p99", "ms", "lower")]
    spec += [(f"serve.{c}", "count", "lower") for c in SERVE_COUNTS]
    spec += [("serve.admitted_useful_ratio", "ratio", "higher"),
             ("serve.gen_lag_ms.p99", "ms", "lower"),
             ("serve.steady_p98_ms", "ms", "lower"),
             ("serve.admission_ms", "ms/req", "lower"),
             ("serve.golden_verify_ms", "ms/req", "lower"),
             ("journal.appends", "calls/req", "lower"),
             ("journal.self_ms", "ms/req", "lower"),
             ("journal.append_ms.p50", "ms", "lower"),
             ("journal.share", "ratio", "lower"),
             ("vpu.cycles_per_req", "cycles", "lower"),
             ("vpu.cycles_per_s", "1/s", "higher"),
             ("vpu.kernel_invocations", "calls/req", "lower"),
             ("vpu.program_compilations", "count", "lower"),
             ("vpu.program_cache_hits", "calls/req", "lower"),
             ("vpu.network_passes", "count/req", "lower"),
             ("vpu.compute_utilization", "ratio", "higher"),
             ("vpu.host_ms", "ms/req", "lower"),
             ("loop.idle_ms", "ms/req", "lower"),
             ("trace.wall_ms", "ms/req", "lower"),
             ("trace.unattributed_ms", "ms/req", "lower"),
             ("trace.overhead_frac", "ratio", "lower"),
             ("fail_frac", "ratio", "lower")]
    return spec


PER_LAYER = _per_layer_spec()

#: Per-layer self times (ms per request) that add up to ``trace.wall_ms``.
RECONCILED = (
    *(f"kernels.{k}.self_ms" for k in KERNELS),
    *(f"fhe.{f}.self_ms" for f in FHE), "fhe.ckks.self_ms",
    "integrity.verify_ms", "integrity.dispatch_ms", "serve.admission_ms",
    "serve.golden_verify_ms", "journal.self_ms", "loop.idle_ms",
    "trace.unattributed_ms")

#: Every span layer the tracer records.
LAYERS = frozenset({
    "request", "loop.idle", "journal", "serve.admission", "serve.golden",
    "integrity.verify", "integrity.dispatch", "fhe.ckks",
    *(f"kernels.{k}" for k in KERNELS), *(f"fhe.{f}" for f in FHE)})

#: Checks that re-run one fixed request on another path; each counts
#: as one attempted request.
IDENTITY_CHECKS = ("numpy_identical", "fixed_correct", "traced_identical",
                   "vpu_numpy_identical", "vpu_traced_identical")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_program():
    """Put the checkout's ``src`` on the path and import the workloads;
    keeps every file the run writes inside the checkout."""
    src = ROOT_DIR / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program sources under {src}")
    build = ROOT_DIR / ".bench_build"
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "kernels")
    # The C compiler's intermediate files, too, stay in the checkout.
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(build / "tmp")
    for name in ("REPRO_BACKEND", "REPRO_JIT", "REPRO_TRACE"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    return workloads, build


def make_workload(workloads, name: str, spec: dict, seed: int, scratch: Path):
    if name.startswith("mlp-"):
        return workloads.MlpWorkload(spec, seed)
    if name == "vpu-n256":
        return workloads.VpuWorkload(spec, seed)
    return workloads.ServeWorkload(spec, seed, scratch)


# -- metrics -----------------------------------------------------------------


def finite_ms(value: float) -> float:
    return value if math.isfinite(value) else MISS_MS


def end_to_end(spec: dict, window, setup_s: float) -> dict[str, float]:
    """``latency_tail_ms`` is the workload's ``tail_quantile``, which
    keeps at least ten samples beyond it at the workload's
    ``min_samples``.  On ``serve-n256`` that is p90, not the p98 the
    sample supports: p98 spread 0.5 of its median between runs, p90
    0.16-0.31 (p98 is reported per layer as ``serve.steady_p98_ms``)."""
    from workloads import percentile

    lat = window.latencies_ms
    if "goodput_rps" in window.extra:
        goodput = window.extra["goodput_rps"]
    else:
        goodput = (window.attempted - window.failed) / window.seconds
    return {
        "setup_s": setup_s,
        "latency_p50_ms": finite_ms(percentile(lat, 0.50)),
        "latency_tail_ms": finite_ms(percentile(lat, spec["tail_quantile"])),
        "goodput_rps": goodput,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tracer, counters0, counters1, vpu=None
              ) -> tuple[dict[str, float], dict[str, bool]]:
    """Per-layer metrics: span self times per request from the traced
    window; counters (``counters0`` before and ``counters1`` after it)
    from the untraced window.  ``vpu`` is ``(window, counters before,
    counters after)`` of untraced requests on the VPU model, if any ran."""
    from workloads import percentile

    requests = max(traced.attempted, 1)
    times = tracer.self_times()
    root_ns = tracer.root_ns()

    def calls(layer):
        return times.get(layer, (0, 0))[0] / requests

    def self_ms(*layers):
        return sum(times.get(layer, (0, 0))[1] for layer in layers) \
            / requests / 1e6

    wall_ms = root_ns / requests / 1e6
    idle_ms = self_ms("loop.idle")
    busy_ms = wall_ms - idle_ms
    kernel_layers = [f"kernels.{k}" for k in KERNELS]
    kernel_ms = self_ms(*kernel_layers)
    rows = sum(tracer.rows[layer] for layer in kernel_layers)
    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        m[f"kernels.{k}.self_ms"] = self_ms(f"kernels.{k}")
    m["kernels.us_per_row"] = (kernel_ms * requests * 1e3 / rows
                               if rows else 0.0)
    m["kernels.share"] = kernel_ms / busy_ms
    hits = counters1.get("plan_hits", 0) - counters0.get("plan_hits", 0)
    misses = counters1.get("plan_misses", 0) - counters0.get("plan_misses", 0)
    m["kernels.plan_cache_hit_ratio"] = (hits / (hits + misses)
                                         if hits + misses else 0.0)
    for f in FHE:
        m[f"fhe.{f}.calls"] = calls(f"fhe.{f}")
        m[f"fhe.{f}.self_ms"] = self_ms(f"fhe.{f}")
    m["fhe.ckks.self_ms"] = self_ms("fhe.ckks")
    extra = plain.extra
    integrity = extra.get("integrity", {})
    m["integrity.checks"] = calls("integrity.verify")
    m["integrity.verify_ms"] = self_ms("integrity.verify")
    m["integrity.dispatch_ms"] = self_ms("integrity.dispatch")
    m["integrity.share"] = self_ms("integrity.verify",
                                   "integrity.dispatch") / busy_ms
    m["integrity.detections"] = integrity.get("detections", 0)
    m["integrity.retries"] = integrity.get("retries", 0)
    phases = extra.get("phases", [])
    for phase in SERVE_PHASES:
        values = [p.get(phase, 0.0) for p in phases]
        m[f"serve.{phase}_ms.p50"] = percentile(values, 0.5) if values else 0.0
        m[f"serve.{phase}_ms.p99"] = percentile(values, 0.99) if values else 0.0
    engine = extra.get("engine", {})
    m["serve.shed"] = (engine.get("rejected_rate", 0)
                       + engine.get("rejected_capacity", 0))
    for c in ("timeout", "watchdog_fires", "retries", "degraded"):
        m[f"serve.{c}"] = engine.get(c, 0)
    admitted = engine.get("submitted", 0) - m["serve.shed"]
    completed = engine.get("ok", 0) + engine.get("degraded", 0)
    m["serve.admitted_useful_ratio"] = completed / admitted if admitted else 0.0
    lags = extra.get("gen_lag_ms", [])
    m["serve.gen_lag_ms.p99"] = percentile(lags, 0.99) if lags else 0.0
    # The steady phase holds about 500 samples, so p98 is its highest
    # percentile with ten samples beyond.
    m["serve.steady_p98_ms"] = (finite_ms(percentile(plain.latencies_ms, 0.98))
                                if phases else 0.0)
    m["serve.admission_ms"] = self_ms("serve.admission")
    m["serve.golden_verify_ms"] = self_ms("serve.golden")
    journal = [end - start for layer, start, end, _ in tracer.spans
               if layer == "journal"]
    m["journal.appends"] = len(journal) / requests
    m["journal.self_ms"] = self_ms("journal")
    m["journal.append_ms.p50"] = (statistics.median(journal) / 1e6
                                  if journal else 0.0)
    m["journal.share"] = self_ms("journal") / busy_ms
    if vpu is not None:
        window, vpu0, vpu1 = vpu
        n = max(window.attempted, 1)
        cycles = window.extra["cycles"]
        # Every request costs the same exact count; -1 flags otherwise.
        m["vpu.cycles_per_req"] = cycles[0] if len(cycles) == 1 else -1
        m["vpu.cycles_per_s"] = (vpu1["cycles"] - vpu0["cycles"]) / window.seconds
        for name in ("kernel_invocations", "program_cache_hits",
                     "network_passes"):
            m[f"vpu.{name}"] = (vpu1[name] - vpu0[name]) / n
        m["vpu.program_compilations"] = vpu1["program_compilations"]
        m["vpu.compute_utilization"] = vpu1["compute_utilization"]
        m["vpu.host_ms"] = statistics.mean(window.latencies_ms)
    else:
        for name in ("cycles_per_req", "cycles_per_s", "kernel_invocations",
                     "program_compilations", "program_cache_hits",
                     "network_passes", "compute_utilization", "host_ms"):
            m[f"vpu.{name}"] = 0.0
    m["loop.idle_ms"] = idle_ms
    m["trace.wall_ms"] = wall_ms
    m["trace.unattributed_ms"] = self_ms("request")
    m["trace.overhead_frac"] = (percentile(traced.latencies_ms, 0.5)
                                / percentile(plain.latencies_ms, 0.5) - 1.0)
    m["fail_frac"] = ((plain.failed + traced.failed)
                      / (plain.attempted + traced.attempted))

    # Reconciliation: every span closed in order, no negative self
    # time, and the layer self times sum to the measured wall time.
    total_self = sum(ns for _, ns in times.values())
    checks = {
        "spans_closed": all(end >= start for _, start, end, _ in tracer.spans),
        "self_nonnegative": all(ns >= 0 for _, ns in times.values()),
        "self_sums_to_root": total_self == root_ns,
        "root_matches_wall": abs(root_ns - traced.wall_ns)
        <= 0.01 * traced.wall_ns,
        "layers_sum_to_wall": math.isclose(
            sum(m[name] for name in RECONCILED), wall_ms, rel_tol=1e-9),
        "layers_all_named": set(times) <= LAYERS,
    }
    return m, checks


# -- running one workload ----------------------------------------------------


def vpu_probe(workloads, seed: int, requests: int):
    """Run ``requests`` vpu-n256 requests on the VPU model, untimed
    against any bound: its exact counts are per-layer metrics, and its
    outputs are checked like the vpu-n256 workload's."""
    vpu = workloads.VpuWorkload(CONFIG["workloads"]["vpu-n256"], seed)
    vpu.setup()
    before = vpu.layer_counters()
    window = vpu.timed(0.0, requests)
    after = vpu.layer_counters()
    checks = {f"vpu_{name}": ok for name, ok in vpu.check().items()}
    return (window, before, after), checks


def run(args) -> int:
    workloads, build = _import_program()
    from repro.kernels.provider import resolve_provider
    from tracer import Tracer

    import_s = time.perf_counter() - _T0
    t = time.perf_counter()
    if resolve_provider() is None:
        raise RuntimeError("the compiled-kernel provider failed to build")
    build_s = time.perf_counter() - t

    spec = CONFIG["workloads"][args.workload]
    scratch = build / "e2ebench" / f"{args.workload}-{os.getpid()}"
    wl = make_workload(workloads, args.workload, spec, args.seed, scratch)
    setups = []
    try:
        for rep in range(CONFIG["setup_reps"]):
            if rep:
                wl.close()
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)
        min_samples = spec.get("min_samples", 0)
        windows = {}
        if args.trace:
            half = args.seconds / 2.0
            counters0 = wl.layer_counters()
            plain = windows["untraced"] = wl.timed(half, min_samples)
            counters1 = wl.layer_counters()
            tracer = Tracer()
            tracer.install()
            try:
                traced = windows["traced"] = wl.timed(half, 1, tracer)
            finally:
                tracer.restore()
        else:
            windows["untraced"] = wl.timed(args.seconds, min_samples)
        checks = wl.check()
        vpu = None
        if args.workload == "vpu-n256" and args.trace:
            vpu = (plain, counters0, counters1)
        elif spec.get("vpu_probe_requests"):
            vpu, probe_checks = vpu_probe(workloads, args.seed,
                                          spec["vpu_probe_requests"])
            windows["vpu probe"] = vpu[0]
            checks.update(probe_checks)
        if args.trace:
            metrics, reconcile = per_layer(plain, traced, tracer,
                                           counters0, counters1, vpu)
            checks.update(reconcile)
        else:
            metrics = end_to_end(spec, windows["untraced"], setup_s)
    finally:
        wl.shutdown()

    identity = [ok for name, ok in checks.items() if name in IDENTITY_CHECKS]
    attempted = sum(w.attempted for w in windows.values()) + len(identity)
    failed = sum(w.failed for w in windows.values()) + identity.count(False)
    wrong = sum(w.wrong for w in windows.values())
    correct = wrong == 0 and all(checks.values())
    if args.trace:
        metrics["fail_frac"] = failed / attempted
    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in PER_LAYER}
    _print_table(args, spec, windows, metrics, units, checks, setups,
                 import_s, build_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def _print_table(args, spec, windows, metrics, units, checks, setups,
                 import_s, build_s) -> None:
    from workloads import percentile

    print(f"# e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"#   build {build_s:.3f} s, import {import_s:.3f} s, set-up reps "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    q = spec["tail_quantile"]
    for label, w in windows.items():
        lat = w.latencies_ms
        beyond = len(lat) - math.ceil(q * len(lat))
        print(f"#   {label}: {w.attempted} requests in {w.seconds:.2f} s, "
              f"{w.failed} failed, {w.wrong} wrong; latency samples "
              f"{len(lat)} (p50 {percentile(lat, .5):.3f} ms, tail "
              f"p{q * 100:g} {percentile(lat, q):.3f} ms with {beyond} "
              "beyond)")
        print(f"#     fail_frac {w.failed / max(w.attempted, 1):.4f}")
        extra = w.extra
        if "goodput_rps" in extra:
            count = len(lat)
            tails = ", ".join(
                f"serve_p{round(q * 100)}_ms {percentile(lat, q):.3f} "
                f"({count - math.ceil(q * count)} beyond)"
                for q in (0.98, 0.99))
            print(f"#     steady phase: {count} samples, serve_p50_ms "
                  f"{percentile(lat, .5):.3f}, {tails}; overload phase: "
                  f"goodput_rps {extra['goodput_rps']:.2f}; engine phase "
                  f"samples {len(extra['phases'])}")
        if "cycles" in extra:
            print(f"#     sim_cycles_per_req {extra['cycles']} (every "
                  f"request), sim_cycles_per_s "
                  f"{extra['model_cycles'] / w.seconds:.1f}")
    for name, ok in checks.items():
        print(f"#   check {name}: {'ok' if ok else 'FAILED'}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:16.6f} {unit}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("e2ebench: --seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
