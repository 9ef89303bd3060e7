"""The kill campaign: seeded SIGKILL injection against the durable
executor, with every run judged against an uninterrupted golden.

Protocol per injection (mirroring the one-fault-per-run discipline of
:mod:`repro.fault.campaign`, but at process granularity):

1. **fork** a worker; the child installs a :class:`CrashInjector` with
   one seeded :class:`CrashSpec` — either ``op_boundary`` (SIGKILL
   between two journaled ops) or ``wal_mid_record`` (SIGKILL halfway
   through a WAL append, leaving a torn record) — then runs the
   workload through :class:`DurableExecutor.run` and dies by its own
   SIGKILL.  The parent confirms the child actually died by signal.
2. **fork** a second worker with *no* crash hook; it rebuilds the
   context (deterministic keygen) and calls
   :meth:`DurableExecutor.resume`, writing its outcome (outputs digest,
   typed findings, resume stats) to a result file before ``os._exit``.
3. the parent classifies in the shared campaign taxonomy
   (:mod:`repro.fault.report`):

   * ``corrected`` — the crash fired and the resumed outputs digest
     equals the golden's (a torn write shows up as the ``torn_tail``
     finding in the event detail);
   * ``masked`` — the crash spec never fired and the run still matches;
   * ``crash`` — the resume raised or exited non-zero;
   * ``silent`` — a wrong digest with a clean exit: the divergence the
     whole subsystem exists to make impossible.

   The preset allows only ``masked`` and ``corrected``.

Forked children never return into the parent's interpreter: they leave
via SIGKILL or ``os._exit``, so pytest/atexit machinery runs exactly
once.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.ctstate import (Op, bgv_mult_switch_sequence,
                                    ckks_mult_rotate_sequence)
from repro.fault.crash import (SITE_OP_BOUNDARY, SITE_WAL_MID_RECORD,
                               CrashInjector, CrashSpec, install_crash_hook)
from repro.fault.report import CampaignEvent, CampaignReport
from repro.recover.executor import DurableExecutor, golden_outputs_digest

__all__ = [
    "EXECUTORS", "Workload", "build_workload", "run_campaign",
    "recovery_latency_sweep",
]

#: A resume must reproduce the golden; anything else fails the campaign.
ALLOWED = frozenset({"masked", "corrected"})

#: The two recover workload executors the campaign sweeps.
EXECUTORS = ("ckks", "bgv")

_KEY_SEED = 2025
_INPUT_SEED = 7
_RUN_SEED = 42


@dataclass
class Workload:
    """One campaign executor: a context factory plus a recorded run."""

    name: str
    make_ctx: Callable[[], Any]
    ops: list[Op]
    inputs: list[Any]
    run_seed: int = _RUN_SEED

    def executor(self, directory: Path, *,
                 checkpoint_interval: int = 4) -> DurableExecutor:
        return DurableExecutor(self.make_ctx(), self.ops, self.inputs,
                               directory,
                               checkpoint_interval=checkpoint_interval,
                               run_seed=self.run_seed,
                               label=f"recover-{self.name}")

    def golden(self) -> str:
        return golden_outputs_digest(self.make_ctx(), self.ops, self.inputs,
                                     run_seed=self.run_seed,
                                     label=f"golden-{self.name}")


def _feed_count(ops: Sequence[Op]) -> int:
    return sum(1 for op in ops if op.kind in ("encrypt", "multiply_plain"))


def build_workload(name: str) -> Workload:
    """The named campaign executor (``ckks`` or ``bgv``).

    Both rebuild their context deterministically from a fixed key seed
    — exactly what a restarted service does when it reloads key
    material — so resume operates against bit-identical keys.
    """
    if name == "ckks":
        from repro.fhe.ckks import CkksContext
        from repro.fhe.params import toy_params

        params = toy_params()

        def make_ctx() -> Any:
            ctx = CkksContext(params, seed=_KEY_SEED)
            ctx.generate_galois_keys([1])
            return ctx

        ops = ckks_mult_rotate_sequence(params.levels)
        ops = ops + [Op("add", (len(ops) - 1, len(ops) - 1)),
                     Op("rotate", (len(ops),), arg=1)]
        rng = np.random.default_rng(_INPUT_SEED)
        inputs = [rng.standard_normal(params.n // 2).tolist()
                  for _ in range(_feed_count(ops))]
        return Workload(name, make_ctx, ops, inputs)
    if name == "bgv":
        from repro.fhe.bgv import BgvContext, BgvParams

        params = BgvParams(n=256, levels=3, plaintext_modulus=65537,
                           prime_bits=30)

        def make_ctx() -> Any:
            ctx = BgvContext(params, seed=_KEY_SEED)
            ctx.generate_galois_keys([1])
            return ctx

        ops = bgv_mult_switch_sequence(params.levels)
        ops = ops + [Op("add", (len(ops) - 1, len(ops) - 1)),
                     Op("rotate", (len(ops),), arg=1)]
        rng = np.random.default_rng(_INPUT_SEED)
        inputs = [rng.integers(0, params.plaintext_modulus,
                               size=params.n).tolist()
                  for _ in range(_feed_count(ops))]
        return Workload(name, make_ctx, ops, inputs)
    raise ValueError(f"unknown campaign executor {name!r}; "
                     f"choose from {EXECUTORS}")


def _fork_crash_worker(workload: Workload, directory: Path,
                       spec: CrashSpec, *,
                       checkpoint_interval: int) -> bool:
    """Fork, run the workload under the crash spec, confirm the kill.

    Returns True when the child died by SIGKILL (the seeded crash
    fired); False when it ran to completion (spec beyond the run's
    occurrence count — still a valid, crash-free journal)."""
    pid = os.fork()
    if pid == 0:
        # Child: one seeded crash, then die.  Never return to the
        # caller's interpreter — SIGKILL or os._exit only.
        try:
            install_crash_hook(CrashInjector([spec]))
            workload.executor(
                directory,
                checkpoint_interval=checkpoint_interval).run()
            os._exit(0)  # spec never fired; run committed
        except BaseException:
            os._exit(3)
    _, status = os.waitpid(pid, 0)
    return os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


def _fork_resume_worker(workload: Workload, directory: Path, *,
                        checkpoint_interval: int
                        ) -> "tuple[int, dict | None]":
    """Fork a clean worker that resumes and reports; returns its exit
    status (0 = resume completed) and its report, if it wrote one."""
    result_path = directory / "resume-result.json"
    pid = os.fork()
    if pid == 0:
        try:
            report = workload.executor(
                directory,
                checkpoint_interval=checkpoint_interval).resume()
            payload = {
                "digest": report.outputs_digest,
                "findings": report.finding_kinds(),
                "resumed_from": report.resumed_from,
                "replayed_ops": report.replayed_ops,
                "committed": report.committed,
            }
            result_path.write_text(json.dumps(payload))
            os._exit(0)
        except BaseException as exc:  # noqa: BLE001 — crash report
            try:
                result_path.write_text(json.dumps(
                    {"error": f"{type(exc).__name__}: {exc}"}))
            except OSError:
                pass
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    try:
        return status, json.loads(result_path.read_text())
    except (OSError, json.JSONDecodeError):
        return status, None


def _classify(fired: bool, payload: "dict | None", status: int,
              golden: str) -> "tuple[str, dict]":
    """(outcome, detail) for one resume."""
    if status != 0 or payload is None:
        return "crash", {"error": (payload or {}).get(
            "error", f"resume exit {status}")}
    detail = {"findings": payload.get("findings", []),
              "resumed_from": payload.get("resumed_from", -1),
              "replayed_ops": payload.get("replayed_ops", 0)}
    if payload.get("digest") == golden and payload.get("committed"):
        return ("corrected" if fired else "masked"), detail
    # Wrong outputs with a clean exit: the divergence nobody caught.
    detail["error"] = (f"outputs digest {payload.get('digest', '')[:12]}… "
                       f"!= golden {golden[:12]}… with no error raised")
    return "silent", detail


def run_campaign(*, executors: Sequence[str] = EXECUTORS,
                 injections: int = 100, seed: int = 0,
                 checkpoint_interval: int = 4) -> CampaignReport:
    """SIGKILL the durable executor ``injections`` times; classify every
    resume.  Deterministic in ``seed``."""
    rng = random.Random(seed)
    workloads = {name: build_workload(name) for name in executors}
    goldens = {name: wl.golden() for name, wl in workloads.items()}
    report = CampaignReport(
        bench="kill_campaign",
        label=f"kill campaign executors={','.join(executors)} seed={seed}",
        allowed=ALLOWED,
        fields={"executors": list(executors), "seed": seed,
                "checkpoint_interval": checkpoint_interval,
                "goldens": goldens})
    for index in range(injections):
        name = list(workloads)[index % len(workloads)]
        workload = workloads[name]
        n_ops = len(workload.ops)
        # WAL appends in a whole run: BEGIN + one OP_DONE per op +
        # checkpoints + COMMIT.
        n_ckpts = (0 if checkpoint_interval <= 0 else
                   sum(1 for i in range(n_ops)
                       if (i + 1) % checkpoint_interval == 0
                       and i + 1 < n_ops))
        n_appends = 2 + n_ops + n_ckpts
        if index % 2 == 0:
            spec = CrashSpec(SITE_OP_BOUNDARY, rng.randrange(n_ops))
        else:
            spec = CrashSpec(SITE_WAL_MID_RECORD, rng.randrange(n_appends),
                             tear_fraction=rng.choice((0.25, 0.5, 0.9)))
        with tempfile.TemporaryDirectory(prefix="recover-kill-") as tmp:
            directory = Path(tmp)
            fired = _fork_crash_worker(
                workload, directory, spec,
                checkpoint_interval=checkpoint_interval)
            status, payload = _fork_resume_worker(
                workload, directory,
                checkpoint_interval=checkpoint_interval)
            outcome, detail = _classify(fired, payload, status,
                                        goldens[name])
        detail.update(executor=name, at=spec.at, crashed=fired)
        report.events.append(CampaignEvent(index, spec.site, outcome,
                                           detail))
    return report


def recovery_latency_sweep(*, executor: str = "ckks",
                           intervals: Sequence[int] = (0, 1, 2, 4, 8),
                           repeats: int = 3) -> list[dict]:
    """Measure resume latency vs. checkpoint interval.

    For each interval, crash a forked worker at the last op boundary
    (maximum completed work) and time :meth:`DurableExecutor.resume` in
    the parent.  Interval 0 disables checkpoints entirely — the
    full-replay baseline the other rows are read against.
    """
    workload = build_workload(executor)
    golden = workload.golden()
    crash_at = len(workload.ops) - 1
    rows = []
    for interval in intervals:
        times = []
        replayed = skipped = 0
        for repeat in range(repeats):
            with tempfile.TemporaryDirectory(
                    prefix="recover-bench-") as tmp:
                directory = Path(tmp)
                killed = _fork_crash_worker(
                    workload, directory,
                    CrashSpec(SITE_OP_BOUNDARY, crash_at),
                    checkpoint_interval=interval)
                if not killed:
                    raise RuntimeError("bench worker failed to crash")
                t0 = time.perf_counter()
                report = workload.executor(
                    directory, checkpoint_interval=interval).resume()
                times.append(time.perf_counter() - t0)
                if report.outputs_digest != golden:
                    raise RuntimeError(
                        f"bench resume diverged at interval {interval}")
                replayed = report.replayed_ops
                skipped = report.skipped_ops
        rows.append({
            "executor": executor,
            "checkpoint_interval": interval,
            "ops": len(workload.ops),
            "crash_at": crash_at,
            "replayed_ops": replayed,
            "skipped_ops": skipped,
            "resume_ms_best": round(min(times) * 1e3, 3),
            "resume_ms_mean": round(sum(times) / len(times) * 1e3, 3),
        })
    return rows
