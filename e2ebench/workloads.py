"""The benchmark's four workloads, written against public APIs only.

Each workload object is built once per set-up repetition (``setup``),
then timed (``timed``), then checked (``check``).  A closed-loop
workload sends its next request when the previous one returns; the
serve workload is an open loop driven by :mod:`loadgen`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import shutil
import time
from pathlib import Path

import numpy as np

from repro.fhe import linear
from repro.fhe.backend import (IntegrityBackend, NumpyBackend, VpuBackend,
                               clear_caches, use_backend)
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams, toy_params
from repro.kernels import CompiledBackend
from repro.recover.journal import RequestJournal
from repro.serve.deadline import Deadline
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.executor import CkksOpExecutor
from repro.serve.requests import OPS, ServeRequest
from repro.serve.trace import TraceConfig, generate_trace

import loadgen
from tracer import ROOT, KernelProxy, TimedSelector, Tracer


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries are misses)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def same_ciphertext(a, b) -> bool:
    return (len(a.parts) == len(b.parts) and a.scale == b.scale
            and all(np.array_equal(x.residues, y.residues)
                    and x.primes == y.primes
                    for x, y in zip(a.parts, b.parts)))


@dataclasses.dataclass
class Window:
    """One timed window: per-request latencies (ms) and outcomes."""

    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wall_ns: int = 0
    seconds: float = 0.0
    extra: dict = dataclasses.field(default_factory=dict)


def compiled_backend() -> CompiledBackend:
    backend = CompiledBackend()
    if backend.provider_name is None:
        raise RuntimeError("no compiled-kernel provider could be loaded")
    return backend


class ClosedLoop:
    """Shared closed-loop timing for the mlp and vpu workloads."""

    backend = None

    def close(self) -> None:
        """Nothing outlives a set-up: the next one rebuilds the context."""

    shutdown = close

    def timed(self, seconds: float, min_samples: int,
              tracer: Tracer | None = None) -> Window:
        window = Window()
        backend = self.backend if tracer is None else KernelProxy(
            self.backend, tracer)
        cap = max(3.0 * seconds, seconds + 30.0)
        start = time.perf_counter()
        with use_backend(backend):
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= cap or (elapsed >= seconds and
                                      window.attempted >= min_samples):
                    break
                index = self.next_index
                self.next_index += 1
                t0 = time.perf_counter_ns()
                root = tracer.open(ROOT) if tracer is not None else None
                try:
                    output = self.request(index)
                    ok = True
                except Exception as exc:  # a failed request is a result
                    output, ok = exc, False
                if tracer is not None:
                    tracer.close(root)
                dt = time.perf_counter_ns() - t0
                window.wall_ns += dt
                window.attempted += 1
                window.latencies_ms.append(dt / 1e6)
                if not (ok and self.correct(index, output)):
                    window.failed += 1
                    window.wrong += 1
        window.seconds = time.perf_counter() - start
        return window


class MlpWorkload(ClosedLoop):
    """Encrypted two-layer MLP: encrypt, matvec, square, matvec, decrypt."""

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.dim = spec["features"]
        rng = np.random.default_rng([seed, 0])
        scale = 1.0 / math.sqrt(self.dim)
        self.w1 = rng.uniform(-scale, scale, (self.dim, self.dim))
        self.w2 = rng.uniform(-scale, scale, (self.dim, self.dim))
        self.next_index = 0

    def setup(self) -> None:
        clear_caches()
        self.params = CkksParams(**self.spec["params"])
        self.ctx = CkksContext(self.params, seed=self.seed)
        self.ctx.generate_galois_keys(
            linear.required_rotations(self.dim, bsgs=True))
        self.backend = compiled_backend()
        with use_backend(self.backend):
            for _ in range(self.spec["warmup_requests"]):
                self.request(-1)
        self.fixed_input = None

    def features(self, index: int) -> np.ndarray:
        # Warm-up and check requests use negative indices: own stream.
        stream = [self.seed, 1 if index >= 0 else 2, abs(index)]
        return np.random.default_rng(stream).uniform(-1.0, 1.0, self.dim)

    def evaluate(self, ct):
        ctx = self.ctx
        ct = linear.encrypted_matvec_bsgs(ctx, ct, self.w1)
        ct = ctx.square(ct)
        return linear.encrypted_matvec_bsgs(ctx, ct, self.w2)

    def request(self, index: int) -> np.ndarray:
        x = np.tile(self.features(index), self.params.slots // self.dim)
        return self.ctx.decrypt(self.evaluate(self.ctx.encrypt(x)))

    def expected(self, index: int) -> np.ndarray:
        return self.w2 @ (self.w1 @ self.features(index)) ** 2

    def correct(self, index: int, output) -> bool:
        got = np.real(np.asarray(output)).reshape(-1, self.dim)
        err = np.max(np.abs(got - self.expected(index)[None, :]))
        return bool(err <= self.spec["tolerance"])

    # -- fixed-request identity checks ----------------------------------

    def fixed_run(self, backend):
        """Steps 2-4 of one fixed request on ``backend``; the input
        ciphertext is encrypted once so every backend sees the same
        bits."""
        if self.fixed_input is None:
            with use_backend(self.backend):
                x = np.tile(self.features(-2), self.params.slots // self.dim)
                self.fixed_input = self.ctx.encrypt(x)
        with use_backend(backend):
            return self.evaluate(self.fixed_input)

    def check(self) -> dict[str, bool]:
        """Bit-identity of one fixed request: compiled vs numpy and
        traced vs untraced."""
        compiled = self.fixed_run(self.backend)
        out = {"numpy_identical": same_ciphertext(
            compiled, self.fixed_run(NumpyBackend()))}
        with use_backend(NumpyBackend()):
            out["fixed_correct"] = self.correct(-2, self.ctx.decrypt(compiled))
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.fixed_run(KernelProxy(self.backend, tracer))
        finally:
            tracer.restore()
        out["traced_identical"] = same_ciphertext(compiled, traced)
        return out

    def layer_counters(self) -> dict:
        return {"plan_hits": self.backend.plan_cache_hits,
                "plan_misses": self.backend.plan_cache_misses}


class VpuWorkload(ClosedLoop):
    """One HMult then HRot(1) on the behavioral VPU model."""

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.next_index = 0

    def setup(self) -> None:
        clear_caches()
        self.params = toy_params()
        self.ctx = CkksContext(self.params, seed=self.seed)
        self.ctx.generate_galois_keys([1])
        rng = np.random.default_rng([self.seed, 2])
        slots = self.params.slots
        self.plain = [(rng.uniform(-1.0, 1.0, slots),
                       rng.uniform(-1.0, 1.0, slots))
                      for _ in range(self.spec["input_pool"])]
        with use_backend(NumpyBackend()):
            self.inputs = [(self.ctx.encrypt(a), self.ctx.encrypt(b))
                           for a, b in self.plain]
        self.backend = VpuBackend(m=self.spec["m"])
        self.outputs: dict[int, object] = {}
        self.cycles: list[int] = []
        with use_backend(self.backend):
            for _ in range(self.spec["warmup_requests"]):
                self.request(-1)
        self.outputs.clear()
        self.cycles.clear()

    def timed(self, seconds: float, min_samples: int,
              tracer: Tracer | None = None) -> Window:
        window = super().timed(seconds, min_samples, tracer)
        wrong = self.verify_outputs()
        window.failed += wrong
        window.wrong += wrong
        window.extra["cycles"] = sorted(set(self.cycles))
        window.extra["model_cycles"] = sum(self.cycles)
        self.cycles.clear()
        return window

    def request(self, index: int):
        a, b = self.inputs[index % len(self.inputs)]
        stats = self.backend.vpu.stats
        before = stats.cycles
        out = self.ctx.rotate(self.ctx.multiply(a, b), 1)
        self.cycles.append(self.backend.vpu.stats.cycles - before)
        self.outputs[index] = out
        return out

    def expected(self, index: int) -> np.ndarray:
        a, b = self.plain[index % len(self.plain)]
        return np.roll(a * b, -1)

    def correct(self, index: int, output) -> bool:
        # Decrypt on the numpy path after timing, so no model cycles
        # are spent on the check (backends are bit-identical).
        return hasattr(output, "parts")

    def verify_outputs(self) -> int:
        """Decrypt every timed output; returns the number that are
        wrong.  Outputs are dropped afterwards."""
        wrong = 0
        with use_backend(NumpyBackend()):
            for index, ct in self.outputs.items():
                got = np.real(self.ctx.decrypt(ct))
                if np.max(np.abs(got - self.expected(index))) > \
                        self.spec["tolerance"]:
                    wrong += 1
        self.outputs.clear()
        return wrong

    def check(self) -> dict[str, bool]:
        """Bit-identity of one fixed request: VPU model vs numpy and
        traced vs untraced."""
        a, b = self.inputs[0]

        def run(backend):
            with use_backend(backend):
                return self.ctx.rotate(self.ctx.multiply(a, b), 1)

        model = run(self.backend)
        out = {"numpy_identical": same_ciphertext(model, run(NumpyBackend()))}
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(KernelProxy(self.backend, tracer))
        finally:
            tracer.restore()
        out["traced_identical"] = same_ciphertext(model, traced)
        return out

    def layer_counters(self) -> dict:
        backend = self.backend
        stats = backend.vpu.stats
        return {"kernel_invocations": backend.kernel_invocations,
                "program_compilations": backend.program_compilations,
                "program_cache_hits": backend.program_cache_hits,
                "cycles": stats.cycles,
                "network_passes": stats.network_passes,
                "compute_utilization": stats.compute_utilization()}


class ServeWorkload:
    """Open-loop serving over the full stack: ServeEngine (default
    config), CkksOpExecutor on toy params, IntegrityBackend
    (detect-retry) over CompiledBackend, and a RequestJournal.

    The ``steady`` phase offers about a fifth of capacity: at 60 rps a
    slow spell of the shared 2-core host pushed utilization toward one
    half, and the steady p50 doubled from one run to the next.  The
    ``overload`` phase offers about twice capacity."""

    def __init__(self, spec: dict, seed: int, scratch: Path):
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        self.selector = TimedSelector()
        self.loop = asyncio.SelectorEventLoop(self.selector)
        self.engine = None
        self.reps = 0
        self.next_phase = 0

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        clear_caches()
        self.compiled = compiled_backend()
        self.backend = IntegrityBackend(self.compiled, "detect-retry")
        with use_backend(self.backend):
            self.executor = CkksOpExecutor(seed=self.seed)
        self.reps += 1
        self.journal_path = self.scratch / f"journal-{self.reps}.wal"
        self.journal = RequestJournal(self.journal_path)
        self.engine = ServeEngine(self.executor, ServeConfig(),
                                  journal=self.journal)
        self._run(self._warm())

    def _run(self, coro):
        with use_backend(self.backend):
            return self.loop.run_until_complete(coro)

    async def _warm(self) -> None:
        await self.engine.start()
        request_id = -1
        for _ in range(self.spec["warmup_rounds"]):
            for op in OPS:
                result = await self.engine.submit(ServeRequest(
                    request_id, "warmup", op, Deadline.after(10.0)))
                request_id -= 1
                if not result.succeeded:
                    raise RuntimeError(
                        f"warm-up {op} resolved {result.status}")

    def close(self) -> None:
        if self.engine is not None:
            self._run(self.engine.close())
            self.engine = None

    def shutdown(self) -> None:
        self.close()
        self.loop.close()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- traffic --------------------------------------------------------

    def _trace(self, rps: float, seconds: float, seed: int,
               min_count: int = 0):
        """Seeded Poisson arrivals at ``rps`` for ``seconds`` (or for the
        first ``min_count`` arrivals, if that is longer).

        Burst episodes are off: with the default 6x bursts the steady
        phase's p50 moved by 30% between runs of one seed, because a
        burst briefly exceeds capacity and the queue it leaves decides
        the median."""
        count = max(int(rps * seconds * 1.5), min_count) + 50
        items = generate_trace(TraceConfig(
            requests=count, tenants=self.spec["tenants"], seed=seed,
            rate=rps, burst_fraction=0.0))
        keep = max(min_count, sum(1 for i in items if i.offset < seconds))
        offset = self.next_phase * 1_000_000
        self.next_phase += 1
        return [dataclasses.replace(item, request_id=item.request_id + offset)
                for item in items[:keep]]

    def timed(self, seconds: float, min_samples: int = 0,
              tracer: Tracer | None = None) -> Window:
        spec = self.spec
        steady = self._trace(spec["steady_rps"],
                             seconds * spec["steady_share"], self.seed * 2,
                             min_samples)
        overload = self._trace(spec["overload_rps"],
                               max(seconds - steady[-1].offset,
                                   seconds * (1 - spec["steady_share"])),
                               self.seed * 2 + 1)
        if tracer is not None:
            self.backend.inner = KernelProxy(self.compiled, tracer)
            self.selector.tracer = tracer
        counters0 = self.backend.integrity_counters()
        stats0 = self.engine.stats()
        start = time.perf_counter()
        try:
            phases = [self._run(loadgen.open_loop(self.engine, items, tracer))
                      for items in (steady, overload)]
        finally:
            self.selector.tracer = None
            self.backend.inner = self.compiled
        window = Window(seconds=time.perf_counter() - start)
        for phase in phases:
            window.wall_ns += phase.wall_ns
        steady_res, over_res = phases
        window.attempted = len(steady_res.records) + len(over_res.records)
        window.latencies_ms = steady_res.latencies_ms()
        misses = sum(1 for v in window.latencies_ms if math.isinf(v))
        errors = steady_res.errors() + over_res.errors()
        window.wrong = errors
        window.failed = misses + over_res.errors()
        stats1 = self.engine.stats()
        delta = {k: stats1[k] - stats0[k] for k in stats0
                 if isinstance(stats0[k], int)}
        counters1 = self.backend.integrity_counters()
        window.extra = {
            "goodput_rps": over_res.goodput_rps(),
            "phases": steady_res.phase_ms() + over_res.phase_ms(),
            "gen_lag_ms": steady_res.lags_ms + over_res.lags_ms,
            "engine": delta,
            "integrity": {k: counters1[k] - counters0[k] for k in counters0},
        }
        return window

    # -- checks ---------------------------------------------------------

    def check(self) -> dict[str, bool]:
        """Decrypted outputs of each op, traced vs untraced, must be
        bit-identical (the golden verify already checks values)."""
        async def run_all(executor):
            out = {}
            for op in OPS:
                out[op] = await executor.run(ServeRequest(
                    -100, "check", op, Deadline.after(10.0)), 0)
            return out

        plain = self._run(run_all(self.executor))
        tracer = Tracer()
        tracer.install()
        self.backend.inner = KernelProxy(self.compiled, tracer)
        try:
            traced = self._run(run_all(self.executor))
        finally:
            self.backend.inner = self.compiled
            tracer.restore()
        return {"traced_identical": all(
            np.array_equal(plain[op], traced[op]) for op in OPS)}

    def layer_counters(self) -> dict:
        return {"plan_hits": self.compiled.plan_cache_hits,
                "plan_misses": self.compiled.plan_cache_misses}
