#!/usr/bin/env python3
"""Cost of a simulator step as n grows.

Runs one fault-free scenario per n in {2, 4, 8, 16, 32, 64} (and 128 with
`--big`): bufferUnitSize 4, three broadcasts made as soon as possible by
nodes 1-3, seed 0, to complete delivery. Each run has its own process,
so the peak RSS is that run's alone. For each n it prints the steps, the
microseconds of process time per step of the simulation, the process
seconds of `checker.check_all`, the peak RSS and the trace digest:

    python3 scripts/step_cost.py          # about 10 s on one core
    python3 scripts/step_cost.py --big    # n=128 adds about a minute and 600 MB

With `--against OTHER_CHECKOUT` it compares this checkout's `src` with the
other one's on the same host: each n runs K times on each tree
(`--repeat K`, default 3), the two trees alternating and the first tree
of each round alternating too, and it prints each tree's median µs/step,
their ratio and whether the two trees' trace digests match:

    python3 scripts/step_cost.py --against ../parent --repeat 3
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
SIZES = (2, 4, 8, 16, 32, 64)


def measure(n: int, src: str) -> dict:
    sys.path.insert(0, src)
    from ssurb import checker
    from ssurb.config import from_dict
    from ssurb.sim import run_scenario

    cfg = from_dict(
        {
            "n": n,
            "buffer_unit_size": 4,
            "seed": 0,
            "max_steps": 10_000_000,
            "broadcasts": [{"node": 1 + k % n, "payload": f"m{k}"} for k in range(3)],
        }
    )
    start = time.process_time()
    result = run_scenario(cfg)
    simulate_s = time.process_time() - start
    start = time.process_time()
    checker.check_all(result.trace.header, result.trace.events)
    check_s = time.process_time() - start
    steps = result.metrics["steps"]
    return {
        "n": n,
        "status": result.metrics["status"],
        "steps": steps,
        "us_per_step": 1e6 * simulate_s / steps,
        "check_all_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace_digest": result.metrics["trace_digest"],
    }


def run_one(n: int, src: str) -> dict:
    """`measure(n, src)` in a fresh process."""
    out = subprocess.run(
        [sys.executable, __file__, "--one", str(n), "--src", src],
        check=True, capture_output=True, text=True,
    ).stdout
    row = json.loads(out)
    if row["status"] != "complete-delivery":
        raise SystemExit(f"n={n} ({src}): run ended {row['status']}")
    return row


def table(sizes) -> None:
    print(f"{'n':>4} {'steps':>10} {'us/step':>8} {'check_all s':>11} {'peak MB':>8}  trace digest")
    for n in sizes:
        row = run_one(n, SRC)
        print(
            f"{n:>4} {row['steps']:>10} {row['us_per_step']:>8.1f} {row['check_all_s']:>11.2f}"
            f" {row['peak_rss_mb']:>8.0f}  {row['trace_digest']}",
            flush=True,
        )


def compare(sizes, other: str, repeat: int) -> None:
    trees = {"this": SRC, "other": os.path.join(other, "src")}
    print(f"this:  {os.path.abspath(trees['this'])}\nother: {os.path.abspath(trees['other'])}")
    print(f"{'n':>4} {'steps':>10} {'this us/step':>12} {'other us/step':>13} {'this/other':>10}  digests")
    for n in sizes:
        rows = {"this": [], "other": []}
        for k in range(repeat):
            for side in ("this", "other") if k % 2 == 0 else ("other", "this"):
                rows[side].append(run_one(n, trees[side]))
        medians = {side: statistics.median(r["us_per_step"] for r in rows[side]) for side in rows}
        digests = {r["trace_digest"] for side in rows for r in rows[side]}
        print(
            f"{n:>4} {rows['this'][0]['steps']:>10} {medians['this']:>12.1f} {medians['other']:>13.1f}"
            f" {medians['this'] / medians['other']:>10.3f}  {'match' if len(digests) == 1 else 'DIFFER'}",
            flush=True,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--big", action="store_true", help="also run n=128")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT", help="also time the src of that checkout")
    parser.add_argument("--repeat", type=int, default=3, metavar="K", help="runs per tree and n with --against")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child's n
    parser.add_argument("--src", default=SRC, help=argparse.SUPPRESS)  # a child's tree
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one, args.src)))
        return 0
    sizes = SIZES + ((128,) if args.big else ())
    if args.against:
        compare(sizes, args.against, args.repeat)
    else:
        table(sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
