"""Open-loop load generator for the serve workload.

Each request is timed from when it was *due* to be sent, not from when
``submit`` was called, so a generator stalled behind inline compute
charges its delay to every later request instead of hiding it.  How
late the generator ran is reported separately.  A request that is shed,
times out or fails is a miss: its latency is ``inf``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

from repro.serve.requests import RESOLVED_STATUSES, STATUS_ERROR
from repro.serve.trace import materialize

from tracer import ROOT


@dataclasses.dataclass
class PhaseResult:
    #: ``(due, resolved_at, ServeResult)`` per request, loop-clock seconds.
    records: list
    lags_ms: list[float]
    start: float
    wall_ns: int

    def latencies_ms(self) -> list[float]:
        return [(done - due) * 1e3 if result.succeeded else float("inf")
                for due, done, result in self.records]

    def errors(self) -> int:
        """Requests resolved ``error`` or with a status outside the typed
        set: both are wrong outputs, in any phase."""
        return sum(1 for _, _, r in self.records
                   if r.status == STATUS_ERROR
                   or r.status not in RESOLVED_STATUSES)

    def goodput_rps(self) -> float:
        good = [done for _, done, r in self.records if r.succeeded]
        if not good:
            return 0.0
        return len(good) / (max(good) - self.start)

    def phase_ms(self) -> list[dict[str, float]]:
        """Engine phase attribution of every admitted request."""
        return [{k: v / 1e6 for k, v in r.phases.items()}
                for _, _, r in self.records if r.phases]


async def open_loop(engine, items, tracer=None) -> PhaseResult:
    """Send ``items`` at their trace offsets and wait for every result."""
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter_ns()
    root = tracer.open(ROOT) if tracer is not None else None
    start = loop.time()

    async def one(item, due):
        result = await engine.submit(materialize(item))
        return due, loop.time(), result

    tasks = []
    lags = []
    for item in items:
        due = start + item.offset
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        lags.append((loop.time() - due) * 1e3)
        tasks.append(loop.create_task(one(item, due)))
    records = await asyncio.gather(*tasks)
    if tracer is not None:
        tracer.close(root)
    wall_ns = time.perf_counter_ns() - t0
    return PhaseResult(list(records), lags, start, wall_ns)
