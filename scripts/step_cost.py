#!/usr/bin/env python3
"""Cost of a simulator step as n grows.

Runs one scenario per n in {2, 4, 8, 16, 32, 64} (and 128 with `--big`):
bufferUnitSize 4, three broadcasts made as soon as possible by nodes 1-3,
seed 0, to complete delivery over a fault-free network. Each n has its own process,
so the peak RSS is that n's alone. The process runs the scenario again and
again until the runs have used at least 0.5 s of process time (n=2 takes
169 steps, a few ms), and for each n it prints the steps, the runs, the
median microseconds of process time per step of the simulation, the
median microseconds per `NodeState.do_forever_iteration` call over further
runs of the same scenario, again for at least 0.5 s, with that method
wrapped in a clock, so the wrapper does not slow the timed ones, the
process seconds of `checker.check_all`, the peak RSS and the trace digest:

    python3 scripts/step_cost.py          # about 20 s on one core
    python3 scripts/step_cost.py --big    # n=128 adds about two minutes and 600 MB

With `--against OTHER_CHECKOUT` it compares this checkout's `src` with the
other one's on the same host. For each n one process imports both trees'
`ssurb` under package names of their own and alternates them run by run,
the first tree of each round alternating too, so the two trees share the
process's offset and the host's drift. Each tree runs until it has at
least K timed runs (`--repeat K`, default 3) and 0.5 s of process time,
and then as many wrapped runs for the per-call cost. It prints each
tree's median µs/step, the number of its runs and their spread (the
interquartile range over the median), the ratio of the medians, and the
median and the min-max of the per-round ratios (this tree's run over the
other's run of the same round, which shares its drift), the same for µs
per iteration call, and whether the two trees' trace digests match:

    python3 scripts/step_cost.py --against ../parent --repeat 3

`--network benign` runs the same scenarios, and the same comparison, over
acceptance criterion 2's faulty network instead: omission 0.2, duplication
0.1 and the reorder-heavy scheduler, so drop OMITs, DUPs and reordered
pops get a per-n cost too:

    python3 scripts/step_cost.py --network benign
"""

import argparse
import importlib
import importlib.util
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


def alternate(sides: list[str], sample, repeat: int) -> dict[str, list[float]]:
    """`sample(side)` -> (value, process seconds), called in rounds over
    `sides`, the first side of each round alternating, until every side has
    at least `repeat` values and 0.5 s of process time. The values by side."""
    values = {side: [] for side in sides}
    seconds = dict.fromkeys(sides, 0.0)
    k = 0
    while min(map(len, values.values())) < repeat or min(seconds.values()) < MIN_PROCESS_S:
        for side in sides if k % 2 == 0 else sides[::-1]:
            value, took = sample(side)
            values[side].append(value)
            seconds[side] += took
        k += 1
    return values


def measure(n: int, src: str, network: str) -> dict:
    sys.path.insert(0, src)
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
    per_call = alternate(["one"], lambda _: iteration_run(cfg, NodeState, run_scenario), 1)["one"]
    row["us_per_iteration"] = statistics.median(per_call)
    return row


def load_tree(src: str, name: str):
    """The modules of the `ssurb` package under `src`, imported as package
    `name`, so that two trees can share one process."""
    package_dir = os.path.join(src, "ssurb")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("checker", "config", "node", "sim"):
        setattr(package, module, importlib.import_module(f"{name}.{module}"))
    return package


def measure_pair(n: int, srcs: dict[str, str], network: str, repeat: int) -> dict:
    """Both trees of `srcs` in this process, alternating run by run."""
    trees = {side: load_tree(src, f"ssurb_{side}") for side, src in srcs.items()}
    cfgs = {side: scenario(tree.config, n, network) for side, tree in trees.items()}
    sides = list(trees)
    last: dict[str, dict] = {}

    def step_sample(side):
        start = time.process_time()
        result = trees[side].sim.run_scenario(cfgs[side])
        seconds = time.process_time() - start
        last[side] = result.metrics
        del result  # its trace is freed outside the timed region
        return 1e6 * seconds / last[side]["steps"], seconds

    def call_sample(side):
        tree = trees[side]
        return iteration_run(cfgs[side], tree.node.NodeState, tree.sim.run_scenario)

    us_per_step = alternate(sides, step_sample, repeat)
    us_per_iteration = alternate(sides, call_sample, repeat)
    return {
        side: {
            "status": last[side]["status"],
            "steps": last[side]["steps"],
            "trace_digest": last[side]["trace_digest"],
            "us_per_step_runs": us_per_step[side],
            "us_per_iteration_runs": us_per_iteration[side],
        }
        for side in sides
    }


def child(args: list[str]) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, *args], check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def run_one(n: int, src: str, network: str) -> dict:
    """`measure(n, src, network)` in a fresh process."""
    row = child(["--one", str(n), "--src", src, "--network", network])
    if row["status"] != "complete-delivery":
        raise SystemExit(f"n={n} ({src}): run ended {row['status']}")
    return row


def table(sizes, network: str) -> None:
    print(f"network: {network}")
    print(
        f"{'n':>4} {'steps':>10} {'runs':>5} {'us/step':>8} {'us/iter':>8} {'check_all s':>11}"
        f" {'peak MB':>8}  trace digest"
    )
    for n in sizes:
        row = run_one(n, SRC, network)
        print(
            f"{n:>4} {row['steps']:>10} {len(row['us_per_step_runs']):>5} {row['us_per_step']:>8.1f}"
            f" {row['us_per_iteration']:>8.1f} {row['check_all_s']:>11.2f} {row['peak_rss_mb']:>8.0f}"
            f"  {row['trace_digest']}",
            flush=True,
        )


def spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def compare(sizes, other: str, repeat: int, network: str) -> None:
    trees = {"this": SRC, "other": os.path.join(other, "src")}
    print(f"this:  {os.path.abspath(trees['this'])}\nother: {os.path.abspath(trees['other'])}")
    print(f"network: {network}")
    print(f"{'':>15}" + (f"{'this':>23}{'other':>23}" + f"{'':>7}{'per round':>23}") * 2)
    print(
        f"{'n':>4} {'steps':>10}" + f" {'us/step':>9} {'runs':>5} {'spread':>6}" * 2 + f" {'ratio':>6}"
        + f" {'median':>6} {'min-max':>15}"
        + f" {'us/iter':>9} {'runs':>5} {'spread':>6}" * 2 + f" {'ratio':>6}"
        + f" {'median':>6} {'min-max':>15}  digests"
    )
    for n in sizes:
        rows = child(
            ["--one", str(n), "--src", trees["this"], "--against", trees["other"],
             "--network", network, "--repeat", str(repeat)]
        )
        for side, row in rows.items():
            if row["status"] != "complete-delivery":
                raise SystemExit(f"n={n} ({trees[side]}): run ended {row['status']}")
        line = f"{n:>4} {rows['this']['steps']:>10}"
        for key in ("us_per_step_runs", "us_per_iteration_runs"):
            medians = {side: statistics.median(rows[side][key]) for side in rows}
            for side in rows:
                line += f" {medians[side]:>9.1f} {len(rows[side][key]):>5} {spread(rows[side][key]):>6.2f}"
            line += f" {medians['this'] / medians['other']:>6.3f}"
            # `alternate` runs whole rounds, so the k-th runs of both trees share a round
            rounds = [a / b for a, b in zip(rows["this"][key], rows["other"][key])]
            line += f" {statistics.median(rounds):>6.3f} {f'{min(rounds):.3f}-{max(rounds):.3f}':>15}"
        same = rows["this"]["trace_digest"] == rows["other"]["trace_digest"]
        print(f"{line}  {'match' if same else 'DIFFER'}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--big", action="store_true", help="also run n=128")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT", help="also time the src of that checkout")
    parser.add_argument(
        "--repeat", type=int, default=3, metavar="K",
        help="at least K timed runs per tree and n with --against",
    )
    parser.add_argument(
        "--network", choices=tuple(NETWORKS), default="fault-free",
        help="fault-free (default), or benign: omission 0.2, duplication 0.1, reorder-heavy",
    )
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child's n
    parser.add_argument("--src", default=SRC, help=argparse.SUPPRESS)  # a child's tree
    args = parser.parse_args()
    if args.one is not None:
        if args.against:  # a child that times both trees; --against is the other's src
            row = measure_pair(args.one, {"this": args.src, "other": args.against}, args.network, args.repeat)
        else:
            row = measure(args.one, args.src, args.network)
        print(json.dumps(row))
        return 0
    sizes = SIZES + ((128,) if args.big else ())
    if args.against:
        compare(sizes, args.against, args.repeat, args.network)
    else:
        table(sizes, args.network)
    return 0


if __name__ == "__main__":
    sys.exit(main())
