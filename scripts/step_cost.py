#!/usr/bin/env python3
"""Cost of a simulator step as n grows.

Runs one fault-free scenario per n in {2, 4, 8, 16, 32, 64} (and 128 with
`--big`): bufferUnitSize 4, three broadcasts made as soon as possible by
nodes 1-3, seed 0, to complete delivery. Each n runs in its own process,
so the peak RSS is that run's alone. For each n it prints the steps, the
microseconds of process time per step of the simulation, the process
seconds of `checker.check_all`, the peak RSS and the trace digest:

    python3 scripts/step_cost.py          # about 10 s on one core
    python3 scripts/step_cost.py --big    # n=128 adds about a minute and 600 MB
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
SIZES = (2, 4, 8, 16, 32, 64)


def measure(n: int) -> dict:
    sys.path.insert(0, SRC)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--big", action="store_true", help="also run n=128")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child's n
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    sizes = SIZES + ((128,) if args.big else ())
    print(f"{'n':>4} {'steps':>10} {'us/step':>8} {'check_all s':>11} {'peak MB':>8}  trace digest")
    for n in sizes:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(n)], check=True, capture_output=True, text=True
        ).stdout
        row = json.loads(out)
        if row["status"] != "complete-delivery":
            print(f"n={n}: run ended {row['status']}", file=sys.stderr)
            return 1
        print(
            f"{n:>4} {row['steps']:>10} {row['us_per_step']:>8.1f} {row['check_all_s']:>11.2f}"
            f" {row['peak_rss_mb']:>8.0f}  {row['trace_digest']}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
