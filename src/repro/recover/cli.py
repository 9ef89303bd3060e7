"""``python -m repro.recover`` — the kill campaign and recovery bench.

Modes:

* ``--campaign`` — fork/SIGKILL the durable executor at seeded crash
  points, resume every journal, and classify each run in the shared
  campaign taxonomy.  Exit status follows the campaign gate
  (:func:`repro.fault.report.emit`): non-zero on an empty campaign or
  any run that is not ``masked`` or ``corrected``.
* ``--bench`` — the committed-artifact mode: a full two-executor
  campaign plus the resume-latency-vs-checkpoint-interval sweep,
  written as a ``schema: 1`` envelope (``BENCH_recover.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.fault.report import emit
from repro.obs.export import host_envelope
from repro.recover.campaign import (EXECUTORS, recovery_latency_sweep,
                                    run_campaign)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recover",
        description="durable-execution kill campaign and recovery bench")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--campaign", action="store_true",
                      help="run the seeded SIGKILL campaign")
    mode.add_argument("--bench", action="store_true",
                      help="campaign + latency sweep, written as a "
                           "schema:1 artifact")
    parser.add_argument("--executor", choices=(*EXECUTORS, "both"),
                        default="both",
                        help="workload executor to crash (default both)")
    parser.add_argument("--injections", type=int, default=100,
                        help="seeded crash injections (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--interval", type=int, default=4,
                        help="checkpoint interval in ops (default 4)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the campaign report JSON here")
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_recover.json"),
                        help="bench artifact path "
                             "(default BENCH_recover.json)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    report = run_campaign(
        executors=EXECUTORS if args.executor == "both" else (args.executor,),
        injections=args.injections, seed=args.seed,
        checkpoint_interval=args.interval)
    status = emit(report, args.json)
    if args.campaign:
        return status

    # --bench: the committed artifact.  The sweep times one executor;
    # ``both`` sweeps ckks.
    sweep_executor = "ckks" if args.executor == "both" else args.executor
    print(f"latency sweep ({sweep_executor}, resume time vs checkpoint "
          f"interval):")
    sweep = recovery_latency_sweep(executor=sweep_executor)
    for row in sweep:
        print(f"  interval={row['checkpoint_interval']:2d}  "
              f"skipped={row['skipped_ops']:2d}  "
              f"replayed={row['replayed_ops']:2d}  "
              f"resume={row['resume_ms_best']:.1f} ms")
    campaign = report.to_dict()
    campaign.pop("events")  # per-run detail stays in --json mode
    campaign["ok"] = report.ok
    artifact = host_envelope("recover")
    artifact["campaign"] = campaign
    artifact["latency_sweep"] = sweep
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
