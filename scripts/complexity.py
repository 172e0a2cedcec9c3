#!/usr/bin/env python3
"""The paper's two complexity experiments, the one implementation that
acceptance criteria 5-7 call too.

`stabilization` sweeps the flow-control window size over every corruption
kind and a seed range, measures recovery in asynchronous cycles, and
validates the linear trend: medians for the large windows must stay within
2x of the a*B + b fit derived from the two smallest windows. A window where
no run stabilizes has no median and fails the trend.

`cost` runs fault-free broadcasts for a range of system sizes and reports,
per n, the worst per-broadcast MSG+MSGACK send count, that count over n^2,
and the worst broadcast-to-delivery latency in asynchronous cycles. The
ratio column should flatten as n grows.

A flag left out keeps the value of criterion 5's or 6's shape.

    python3 scripts/complexity.py stabilization --seeds 20 --out stab.json
    python3 scripts/complexity.py cost --seeds 10 --out cost.json
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ssurb import checker  # noqa: E402
from ssurb.config import CORRUPTION_KINDS, from_dict  # noqa: E402
from ssurb.sim import run_scenarios  # noqa: E402


def stabilization_raws(windows=(1, 2, 4, 8), seeds=20, nodes=4, max_steps=15_000) -> list[dict]:
    """Criterion 5's runs: one corruption of each kind at node 2 on step 250,
    per window and seed, stopped once stabilized for 3 cycles."""
    return [
        {
            "n": nodes,
            "buffer_unit_size": b,
            "seed": seed,
            "max_steps": max_steps,
            "fifo_enabled": kind == "NEXT-SKEW",
            "stop_mode": "stabilized",
            "quiescence_window_cycles": 3,
            "broadcasts": [{"node": 1 + (k % nodes), "payload": f"m{k}"} for k in range(6)],
            "fault_plan": {"corruptions": [{"node": 2, "step": 250, "kind": kind}]},
        }
        for b in windows
        for kind in CORRUPTION_KINDS
        for seed in range(seeds)
    ]


def cost_raws(sizes=range(2, 9), seeds=10, broadcasts=3, max_steps=30_000) -> list[dict]:
    """Criterion 6's runs: fault-free broadcasts from nodes 1, 2, ... per n and seed."""
    return [
        {
            "n": n,
            "buffer_unit_size": 4,
            "seed": seed,
            "max_steps": max_steps,
            "broadcasts": [{"node": 1 + (k % n), "payload": f"m{k}"} for k in range(broadcasts)],
        }
        for n in sizes
        for seed in range(seeds)
    ]


def run_checked(raws: list[dict]) -> list[dict]:
    """Each config of `raws` run and checked, as {"config", "metrics",
    "reports"} with the reports by name, in config order. The runs go
    through `sim.run_scenarios`, which simulates the fault-free prefix of
    configs that differ only in their faults once."""
    runs = [None] * len(raws)
    for index, result in run_scenarios([from_dict(raw) for raw in raws]):
        reports = checker.check_all(result.trace.header, result.trace.events)
        runs[index] = {
            "config": raws[index],
            "metrics": result.metrics,
            "reports": {r.name: r for r in reports},
        }
    return runs


def run_all(raws: list[dict], map_=map) -> list[dict]:
    """`run_checked` over `raws`, one call per group of configs that differ
    only in their fault plans, the groups handed to `map_` (a pool's `map`
    runs them in parallel); results in config order."""
    groups = {}
    for index, raw in enumerate(raws):
        groups.setdefault(json.dumps(dict(raw, fault_plan=None), sort_keys=True), []).append(index)
    runs = [None] * len(raws)
    batches = [[raws[i] for i in group] for group in groups.values()]
    for group, results in zip(groups.values(), map_(run_checked, batches)):
        for index, run in zip(group, results):
            runs[index] = run
    return runs


def stabilization_cycles(run: dict):
    """The run's cycles to stabilization, or None if it did not stabilize."""
    report = run["reports"]["stabilization-time"]
    return report.measured["cycles"] if report.verdict == "PASS" else None


def stabilization_table(runs: list[dict]) -> dict:
    """Per window, in run order: the median and max cycles over the runs
    that stabilized (None where none did), their count, and the rest."""
    windows = {}
    for run in runs:
        windows.setdefault(run["config"]["buffer_unit_size"], []).append(stabilization_cycles(run))
    table = {}
    for b, cycles in windows.items():
        pool = [c for c in cycles if c is not None]
        table[b] = {
            "median_cycles": statistics.median(pool) if pool else None,
            "max_cycles": max(pool) if pool else None,
            "runs": len(pool),
            "unstabilized": len(cycles) - len(pool),
        }
    return table


def trend(table: dict) -> tuple:
    """(a, b, checks): the line a*B + b through the first two windows'
    (B, median) points, and per further window (B, median, bound, ok), ok
    when the median is at most bound = 2*fit(B). A window without a median
    fails, and so does every window when a fitted one has none."""
    (b1, first), (b2, second), *rest = table.items()
    m1, m2 = first["median_cycles"], second["median_cycles"]
    slope = None if None in (m1, m2) else (m2 - m1) / (b2 - b1)
    intercept = None if slope is None else m1 - slope * b1
    checks = []
    for b, row in rest:
        median = row["median_cycles"]
        bound = None if slope is None else 2 * (slope * b + intercept)
        checks.append((b, median, bound, None not in (median, bound) and median <= bound))
    return slope, intercept, checks


def cost_table(runs: list[dict]) -> dict:
    """Per n, in run order: the worst per-broadcast MSG+MSGACK count, that
    over n^2, and the worst delivery latency in cycles."""
    sizes = {}
    for run in runs:
        sizes.setdefault(run["config"]["n"], []).append(run["reports"]["message-cost"].measured)
    table = {}
    for n, costs in sizes.items():
        worst = max((c["max_total"] for c in costs), default=0)
        table[n] = {
            "max_msgs_per_broadcast": worst,
            "ratio_over_n2": round(worst / (n * n), 2),
            "max_latency_cycles": max((c["max_latency_cycles"] for c in costs), default=0),
        }
    return table


def stabilization(**shape) -> dict:
    table = stabilization_table(run_all(stabilization_raws(**shape)))
    for b, row in table.items():
        print(f"B={b:2d}  median={row['median_cycles']}  max={row['max_cycles']}  "
              f"runs={row['runs']}  unstabilized={row['unstabilized']}")
    if len(table) >= 4:
        slope, intercept, checks = trend(table)
        print(f"fit from B in {list(table)[:2]}: cycles ~ {slope}*B + {intercept}")
        for b, median, bound, ok in checks:
            print(f"  B={b}: median {median} <= 2*fit({bound}) -> {'ok' if ok else 'VIOLATED'}")
    return table


def cost(**shape) -> dict:
    table = cost_table(run_all(cost_raws(**shape)))
    for n, row in table.items():
        print(f"n={n}  max msgs/broadcast={row['max_msgs_per_broadcast']:5d}  "
              f"ratio/n^2={row['ratio_over_n2']:6.2f}  "
              f"max latency={row['max_latency_cycles']} cycles")
    return table


def ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="experiment", required=True)
    # a flag left out keeps the default of stabilization_raws or cost_raws
    stab = sub.add_parser(
        "stabilization", help="cycles to recover from one corruption, per window",
        argument_default=argparse.SUPPRESS,
    )
    stab.add_argument("--windows", type=ints, help="buffer_unit_size grid")
    stab.add_argument("--seeds", type=int, help="seeds per (window, kind) cell")
    stab.add_argument("--nodes", type=int)
    stab.add_argument("--max-steps", type=int)
    stab.add_argument("--out", default=None, help="optional JSON summary path")
    msgs = sub.add_parser(
        "cost", help="MSG+MSGACK per broadcast and latency, per n", argument_default=argparse.SUPPRESS
    )
    msgs.add_argument("--sizes", type=ints)
    msgs.add_argument("--seeds", type=int)
    msgs.add_argument("--broadcasts", type=int)
    msgs.add_argument("--max-steps", type=int)
    msgs.add_argument("--out", default=None)
    args = vars(parser.parse_args())
    out = args.pop("out")
    table = {"stabilization": stabilization, "cost": cost}[args.pop("experiment")](**args)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
