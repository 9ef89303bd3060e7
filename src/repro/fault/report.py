"""The campaign core: one outcome taxonomy, one report, one gate.

Every injection campaign in this repo — bit-level faults in the model
(:mod:`repro.fault.campaign`), SIGKILLs of the durable executor
(:mod:`repro.recover.campaign`) and serve-level chaos
(:mod:`repro.serve.chaos`) — runs the same loop: seeded plan → inject →
classify against a golden → tally → report.  Each layer keeps its
injector and its run-and-classify step; the tally, the report and the
pass rule live here.

Outcome classes per event:

* ``masked`` — the injection never reached the output (bit-identical to
  golden, nothing had to act).
* ``corrected`` — the system noticed and the final output still matches
  golden (replay, resume, retry or degradation won).
* ``detected`` — the failure surfaced as a typed error or flag, but the
  output is not the golden one.
* ``crash`` — the run itself raised or died.
* ``hung`` — the run never resolved.
* ``silent`` — the output is wrong and **nothing** noticed: the outcome
  campaigns exist to drive to zero.

The gate (:meth:`CampaignReport.violations`): a campaign fails if it ran
no events, if any event is ``silent`` or ``hung``, if any outcome lies
outside the set its preset allows, or if its layer recorded a finding
(an invariant checked over the whole run rather than per event).

Serialization is deterministic — sorted keys, stable event order — so
equal seeds produce byte-identical JSON (the seeded-determinism audit
depends on it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

OUTCOMES = ("masked", "corrected", "detected", "crash", "hung", "silent")


@dataclass(frozen=True)
class CampaignEvent:
    """One injection and its classified outcome.  ``detail`` carries the
    layer's own per-event fields, flattened into the event's JSON."""

    index: int
    site: str
    outcome: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.detail)
        out.update(index=self.index, site=self.site, outcome=self.outcome)
        return out


@dataclass
class CampaignReport:
    """A campaign's record: header fields, events, and run-level findings.

    ``bench`` names the JSON envelope, ``label`` heads the text summary,
    ``allowed`` is the outcome set the preset accepts, ``fields`` holds
    the layer's top-level JSON fields (config and aggregates), and
    ``findings`` the layer's run-level invariant violations.
    """

    bench: str
    label: str
    allowed: frozenset[str]
    fields: dict[str, Any] = field(default_factory=dict)
    events: list[CampaignEvent] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def injections(self) -> int:
        return len(self.events)

    def outcome_counts(self) -> dict[str, int]:
        """Count per outcome class, zero-filled over :data:`OUTCOMES`."""
        counts = dict.fromkeys(OUTCOMES, 0)
        for event in self.events:
            counts[event.outcome] += 1
        return counts

    def per_site(self) -> dict[str, dict[str, int]]:
        """Outcome counts per injection site (coverage table)."""
        table: dict[str, dict[str, int]] = {}
        for event in self.events:
            row = table.setdefault(event.site, {})
            row[event.outcome] = row.get(event.outcome, 0) + 1
        return {site: dict(sorted(row.items()))
                for site, row in sorted(table.items())}

    @property
    def detection_rate_live(self) -> float:
        """Detected fraction of events that reached live output:
        ``(corrected + detected) / (corrected + detected + silent)``.
        Masked, crashed and hung events are excluded — there is nothing
        for a check to catch."""
        counts = self.outcome_counts()
        detected = counts["corrected"] + counts["detected"]
        live = detected + counts["silent"]
        return 1.0 if live == 0 else detected / live

    def violations(self) -> list[str]:
        """The gate; an empty list is a pass."""
        problems = list(self.findings)
        if not self.events:
            problems.append("campaign ran no events")
        counts = self.outcome_counts()
        for outcome in OUTCOMES:
            if counts[outcome] and (outcome in ("hung", "silent")
                                    or outcome not in self.allowed):
                problems.append(f"{counts[outcome]} {outcome} outcome(s); "
                                f"preset allows {sorted(self.allowed)}")
        return problems

    @property
    def ok(self) -> bool:
        return not self.violations()

    def summary(self) -> str:
        """One line: label, event count, outcome counts, detection rate."""
        counts = " ".join(f"{k}={v}" for k, v in
                          self.outcome_counts().items())
        return (f"{self.label}: injections={self.injections} {counts} "
                f"live_detection_rate={self.detection_rate_live:.4f}")

    def to_dict(self) -> dict:
        out = dict(self.fields)
        out.update({
            "injections": self.injections,
            "outcomes": self.outcome_counts(),
            "per_site": self.per_site(),
            "detection_rate_live": round(self.detection_rate_live, 4),
            "events": [event.to_dict() for event in self.events],
        })
        return out

    def to_json(self) -> str:
        """Deterministic JSON in the shared ``schema: 1`` envelope:
        byte-identical for equal campaign seeds."""
        from repro.obs.export import host_envelope

        out = host_envelope(self.bench)
        out.update(self.to_dict())
        return json.dumps(out, indent=2, sort_keys=True) + "\n"


def emit(report: CampaignReport, json_path: "str | Path | None" = None
         ) -> int:
    """Print the summary and every violation, optionally write the JSON
    report, and return the process exit status (0 pass, 1 fail)."""
    print(report.summary())
    problems = report.violations()
    for problem in problems:
        print(f"  violation: {problem}")
    if json_path is not None:
        Path(json_path).write_text(report.to_json())
        print(f"report written to {json_path}")
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0
