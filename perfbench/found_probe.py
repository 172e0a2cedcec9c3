#!/usr/bin/env python3
"""Probe two faults that the workloads leave out.

With `channel_capacity: 1` a full channel drops the newest packet, and
every iteration enqueues HEARTBEAT first, so MSG and MSGACK are the ones
lost. The run then burns its whole step budget without completing a
cycle, yet config validation accepts it and the checkers pass it. This
prints, for n in {2,3,5} at capacity 1 and 2, one broadcast and 20 000
steps: the stop reason, cycles completed, MSG+MSGACK sends and
`checker.gate`.

It then runs the one acceptance-shaped scenario seen failing: criterion
2's benign faults with node 3 crashing at step 250. After the crash is
detected, cycles last a few steps, the 5-cycle quiescence window closes
before the last MSG retransmission, and the quiescence check fails.

    python3 perfbench/found_probe.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssurb import checker, config  # noqa: E402
from ssurb.sim import run_scenario  # noqa: E402
from workloads import schedule  # noqa: E402


def main() -> int:
    for capacity in (1, 2):
        for n in (2, 3, 5):
            cfg = config.from_dict({
                "n": n,
                "channel_capacity": capacity,
                "seed": 0,
                "max_steps": 20_000,
                "broadcasts": [{"node": 1, "payload": "m0"}],
            })
            result = run_scenario(cfg)
            reports = checker.check_all(result.trace.header, result.trace.events)
            sends = result.metrics["sends"]
            print(
                f"capacity={capacity} n={n}: status={result.metrics['status']} "
                f"cycles={result.metrics['cycles']} msg+msgack={sends['MSG'] + sends['MSGACK']} "
                f"gate={checker.gate(reports)}"
            )
    raw = {
        "n": 3,
        "seed": 1286096905,
        "max_steps": 20_000,
        "fifo_enabled": True,
        "scheduler_profile": "reorder-heavy",
        "broadcasts": schedule(3),
        "fault_plan": {
            "omission_prob": 0.2,
            "duplication_prob": 0.1,
            "crashes": [{"node": 3, "step": 250}],
            "detection_latency": 30,
        },
    }
    result = run_scenario(config.from_dict(raw))
    reports = {r.name: r for r in checker.check_all(result.trace.header, result.trace.events)}
    cycles = [e["step"] for e in result.trace.events if e["type"] == "CYCLE"]
    quiescence = reports["quiescence"]
    print(
        f"benign faults + crash, n=3 seed {raw['seed']}: status={result.metrics['status']} "
        f"last cycle boundaries at steps {cycles[-6:]} quiescence={quiescence.verdict} "
        f"witness={quiescence.witness}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
