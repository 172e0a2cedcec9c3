#!/usr/bin/env python3
"""Cost of a simulator step as n grows.

Runs one scenario per n in {2, 4, 8, 16, 32, 64} (and 128 with `--big`):
bufferUnitSize 4, three broadcasts made as soon as possible by nodes
1-3, seed 0, to complete delivery over a fault-free network. Each n has
its own process, so the peak RSS is that n's alone. The process runs the
scenario again and again until the runs have used at least 0.5 s of
process time (n=2 takes 169 steps, a few ms), and for each n it prints
the steps, the runs, the median microseconds of process time per step of
the simulation, the median microseconds per
`NodeState.do_forever_iteration` call over further runs of the same
scenario, again for at least 0.5 s, with that method wrapped in a clock,
so the wrapper does not slow the timed ones, the process seconds of
`checker.check_all`, the peak RSS and the trace digest:

    python3 scripts/step_cost.py          # about 20 s on one core
    python3 scripts/step_cost.py --big    # n=128 adds about two minutes and 600 MB

`--network benign` runs the same scenarios over acceptance criterion 2's
faulty network instead: omission 0.2, duplication 0.1 and the
reorder-heavy scheduler, so drop OMITs, DUPs and reordered pops get a
per-n cost too:

    python3 scripts/step_cost.py --network benign
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
MIN_PROCESS_S = 0.5  # the process time that the runs of one measurement add up to
NETWORKS = {
    "fault-free": {},
    "benign": {
        "scheduler_profile": "reorder-heavy",
        "fault_plan": {"omission_prob": 0.2, "duplication_prob": 0.1},
    },
}


def scenario(config, n: int, network: str):
    """The scenario of size `n` over `network`, built by the `config` module."""
    return config.from_dict(
        {
            "n": n,
            "buffer_unit_size": 4,
            "seed": 0,
            "max_steps": 10_000_000,
            "broadcasts": [{"node": 1 + k % n, "payload": f"m{k}"} for k in range(3)],
            **NETWORKS[network],
        }
    )


def iteration_run(cfg, node_cls, run_scenario) -> tuple[float, float]:
    """(µs per `node_cls.do_forever_iteration` call, process seconds) of one
    run of `cfg` with that method wrapped in a clock."""
    original, clock, totals = node_cls.do_forever_iteration, time.perf_counter_ns, [0, 0]

    def timed(self, view):
        start = clock()
        result = original(self, view)
        totals[0] += clock() - start
        totals[1] += 1
        return result

    node_cls.do_forever_iteration = timed
    try:
        start = time.process_time()
        run_scenario(cfg)
        seconds = time.process_time() - start
    finally:
        node_cls.do_forever_iteration = original
    return totals[0] / 1000 / totals[1], seconds


def repeated(sample) -> list[float]:
    """`sample()` -> (value, process seconds), called until the calls have
    used 0.5 s of process time. The values."""
    values, seconds = [], 0.0
    while seconds < MIN_PROCESS_S:
        value, took = sample()
        values.append(value)
        seconds += took
    return values


def measure(n: int, network: str) -> dict:
    sys.path.insert(0, SRC)
    from ssurb import checker, config
    from ssurb.node import NodeState
    from ssurb.sim import run_scenario

    cfg = scenario(config, n, network)
    simulate_s = []
    while sum(simulate_s) < MIN_PROCESS_S:
        result = None  # the last run's trace does not join the next one's in memory
        start = time.process_time()
        result = run_scenario(cfg)
        simulate_s.append(time.process_time() - start)
    steps = result.metrics["steps"]
    start = time.process_time()
    checker.check_all(result.trace.header, result.trace.events)
    check_s = time.process_time() - start
    row = {
        "n": n,
        "status": result.metrics["status"],
        "steps": steps,
        "us_per_step": 1e6 * statistics.median(simulate_s) / steps,
        "us_per_step_runs": [1e6 * s / steps for s in simulate_s],
        "check_all_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace_digest": result.metrics["trace_digest"],
    }
    del result  # the wrapped runs' traces do not join the last timed one's in memory
    per_call = repeated(lambda: iteration_run(cfg, NodeState, run_scenario))
    row["us_per_iteration"] = statistics.median(per_call)
    return row


def child(args: list[str]) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, *args], check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def run_one(n: int, network: str) -> dict:
    """`measure(n, network)` in a fresh process."""
    row = child(["--one", str(n), "--network", network])
    if row["status"] != "complete-delivery":
        raise SystemExit(f"n={n}: run ended {row['status']}")
    return row


def table(sizes, network: str) -> None:
    print(f"network: {network}")
    print(
        f"{'n':>4} {'steps':>10} {'runs':>5} {'us/step':>8} {'us/iter':>8} {'check_all s':>11}"
        f" {'peak MB':>8}  trace digest"
    )
    for n in sizes:
        row = run_one(n, network)
        print(
            f"{n:>4} {row['steps']:>10} {len(row['us_per_step_runs']):>5} {row['us_per_step']:>8.1f}"
            f" {row['us_per_iteration']:>8.1f} {row['check_all_s']:>11.2f} {row['peak_rss_mb']:>8.0f}"
            f"  {row['trace_digest']}",
            flush=True,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--big", action="store_true", help="also run n=128")
    parser.add_argument(
        "--network", choices=tuple(NETWORKS), default="fault-free",
        help="fault-free (default), or benign: omission 0.2, duplication 0.1, reorder-heavy",
    )
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child's n
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one, args.network)))
        return 0
    table(SIZES + ((128,) if args.big else ()), args.network)
    return 0


if __name__ == "__main__":
    sys.exit(main())
