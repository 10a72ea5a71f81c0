"""Event-kernel microbenchmarks: schedule/fire/cancel and heap compaction.

Classic multi-round pytest-benchmark measurements of the kernel hot
path: a schedule/fire/cancel mix in which every fired event schedules
two successors and cancels one of them, so half the heap is dead weight
and the compaction sweep must keep ``pending_events`` exact while the
heap stays bounded.

Full-scale runs persist a ``kernel`` section into ``BENCH_kernel.json``
with events/second.  ``REPRO_BENCH_SCALE=smoke`` shrinks the workload
and skips the persist.
"""

import os
import time

from benchmarks.support import merge_section
from repro.sim import Simulator

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "smoke"

#: events fired per measured run
EVENTS = 2_000 if SMOKE else 20_000

_results: dict[str, float] = {}


def _mix_serial() -> int:
    """Fire EVENTS events; each schedules two successors, cancels one."""
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] >= EVENTS:
            return
        sim.schedule(0.001, tick)
        sim.schedule(0.002, tick).cancel()

    sim.schedule(0.001, tick)
    sim.run()
    return fired[0]


def test_kernel_mix_serial(benchmark):
    fired = benchmark(_mix_serial)
    assert fired == EVENTS
    _results["serial_events_per_second"] = EVENTS / benchmark.stats["mean"]


def test_compaction_keeps_heap_bounded():
    """Cancel-heavy load: the swept heap stays near the live count."""
    sim = Simulator()
    live = []
    for index in range(10_000):
        timer = sim.schedule(1.0 + index, lambda: None)
        if index % 10 == 0:
            live.append(timer)
        else:
            timer.cancel()
    assert sim.pending_events == len(live)
    assert len(sim._heap) <= 2 * len(live) + sim.COMPACTION_MIN_HEAP


def test_zz_persist_kernel_section():
    """Runs last (name-ordered): persist what the mix measured."""
    if SMOKE or not _results:
        return
    merge_section(
        "kernel",
        "kernel",
        {
            "events": EVENTS,
            "serial_events_per_second": round(
                _results["serial_events_per_second"]
            ),
            "measured_at": time.strftime("%Y-%m-%d"),
        },
    )
