"""Command-line fault campaigns: ``python -m repro.fault``.

Examples::

    python -m repro.fault --campaign smoke
    python -m repro.fault --campaign smoke --policy off --seed 7
    python -m repro.fault --campaign keyswitch --json BENCH_faults.json
    python -m repro.fault --campaign smoke --audit --injections 24

Exit status follows the campaign gate (:func:`repro.fault.report.emit`):
non-zero on a campaign with no injections or any silent corruption —
including under ``--policy off``, which lets corruption through by
design — and when the determinism audit finds two equal-seed runs that
differ.
"""

from __future__ import annotations

import argparse

from repro.fault.campaign import (
    CampaignConfig,
    audit_determinism,
    deep_config,
    keyswitch_config,
    run_campaign,
    smoke_config,
)
from repro.fault.policy import IntegrityPolicy
from repro.fault.report import emit

_CAMPAIGNS = {
    "smoke": smoke_config,
    "deep": deep_config,
    "keyswitch": keyswitch_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault",
        description="Deterministic fault-injection campaigns over the "
                    "behavioral VPU model and the ABFT integrity layer.")
    parser.add_argument("--campaign", choices=sorted(_CAMPAIGNS),
                        default="smoke", help="preset to run")
    parser.add_argument("--policy", type=IntegrityPolicy.parse, default=None,
                        metavar="POLICY",
                        help="integrity policy: off | detect | retry | "
                             "degrade (default: the preset's)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--injections", type=int, default=None)
    parser.add_argument("-n", type=int, default=None, dest="n",
                        help="transform length (vpu-ntt workload)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report as JSON")
    parser.add_argument("--audit", action="store_true",
                        help="run the seeded-determinism audit (two runs, "
                             "byte-identical JSON) instead of one campaign")
    return parser


def _config_from(args: argparse.Namespace) -> CampaignConfig:
    overrides: dict = {}
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.injections is not None:
        overrides["injections"] = args.injections
    if args.n is not None:
        overrides["n"] = args.n
    return _CAMPAIGNS[args.campaign](**overrides)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from(args)
    if args.audit:
        ok = audit_determinism(config)
        print(f"determinism audit ({config.injections} injections, "
              f"seed {config.seed}): "
              + ("byte-identical" if ok else "MISMATCH or no injections"))
        return 0 if ok else 1
    return emit(run_campaign(config), args.json)
