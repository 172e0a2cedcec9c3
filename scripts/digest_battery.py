#!/usr/bin/env python3
"""Fixed battery of scenarios for byte-identity checks between two trees.

Runs a fixed list of scenarios that reaches every simulator path: n 1-6,
every corruption kind, crashes with detection latency, channel capacities
1-16, the starve-one-node and reorder-heavy profiles, omission and
duplication, interval snapshots, every stop mode and bounded-mode global
resets. For each scenario it prints one JSON line: the run's metrics
(trace digest included), the SHA-256 of the trace file `Trace.write`
produces, the SHA-256 of the checker reports sorted by name, and the
SHA-256 of every snapshot's per-node consistency verdicts, (ok, clause) of
`checker.evaluate_snapshot` for each node, crashed ones included, in every snapshot of the
trace, also those before the stabilization marker that `check_all` never
evaluates, and the SHA-256 of `canonical(e)` over the run's
`trace.events`, which shows that the events read back as the same dicts.
A last line holds the SHA-256 of one `cli.sweep` summary over a small grid.

A change that must keep behaviour prints the same lines. The committed
golden file `tests/golden/battery.jsonl` holds them, so one checkout is
enough:

    python3 scripts/digest_battery.py --compare

With `--compare` the lines are checked against a file as they are
produced instead of printed, the golden file unless a path is given: the
script prints `identical, N lines` and exits 0, or names the first
scenario and top-level field that differ and exits 1. Another checkout's
lines serve as well:

    (cd ../parent && python3 scripts/digest_battery.py) > before.jsonl
    python3 scripts/digest_battery.py --compare before.jsonl

With `--reference` each scenario also runs through the simulator of commit
1e25b3a (`tests/reference/sim_1e25b3a.py`, a second implementation without
the hot-path devices), and each run of the sweep as a standalone reference
run. The script names the first scenario whose metrics, trace digest
included, differ from the reference's on stderr and exits 1; otherwise it
ends with `reference: identical on every line` on stderr:

    python3 scripts/digest_battery.py --reference --compare

The scenarios come from this script alone (a seeded generator picks the
mixed cells), so both sides run the same list.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden", "battery.jsonl")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ssurb import checker, cli, config  # noqa: E402
from ssurb.config import CORRUPTION_KINDS, STOP_MODES, from_dict  # noqa: E402
from ssurb.sim import run_scenario  # noqa: E402
from ssurb.trace import as_snapshot, canonical  # noqa: E402


def broadcasts(n: int, count: int, spacing: int = 40) -> list[dict]:
    return [
        {"node": 1 + k % n, "payload": f"m{k}", **({"step": spacing * k} if k > 1 else {})}
        for k in range(count)
    ]


def scenarios() -> list[tuple[str, dict]]:
    out: list[tuple[str, dict]] = []

    def add(name: str, **raw) -> None:
        raw.setdefault("max_steps", 20_000)
        out.append((name, raw))

    for n in range(1, 7):
        for seed in range(3):
            add(f"fault-free/n{n}/s{seed}", n=n, seed=seed, broadcasts=broadcasts(n, 3))
    for kind in CORRUPTION_KINDS:
        for b in (1, 2, 4):
            for n, stop in ((3, "stabilized"), (4, "complete-delivery")):
                add(
                    f"corrupt/{kind}/b{b}/n{n}",
                    n=n,
                    buffer_unit_size=b,
                    seed=b * 10 + n,
                    fifo_enabled=kind == "NEXT-SKEW",
                    stop_mode=stop,
                    quiescence_window_cycles=3,
                    broadcasts=broadcasts(n, 4),
                    fault_plan={"corruptions": [{"node": 2, "step": 120, "kind": kind}]},
                )
    for n in (3, 4, 5, 6):
        for latency in (0, 10, 30):
            add(
                f"crash/n{n}/lat{latency}",
                n=n,
                seed=n + latency,
                broadcasts=broadcasts(n, 4),
                fault_plan={
                    "crashes": [{"node": n, "step": 60 + 7 * latency}],
                    "detection_latency": latency,
                },
            )
    for capacity in (1, 2, 3, 4, 8, 16):
        for n in (2, 3, 5):
            add(
                f"capacity/c{capacity}/n{n}",
                n=n,
                seed=capacity,
                channel_capacity=capacity,
                max_steps=4000,
                broadcasts=broadcasts(n, 3),
            )
    for profile in ("starve-one-node", "reorder-heavy"):
        for n in (2, 4, 5):
            add(
                f"profile/{profile}/n{n}",
                n=n,
                seed=7,
                scheduler_profile=profile,
                broadcasts=broadcasts(n, 4),
                fault_plan={"crashes": [{"node": n, "step": 300}], "detection_latency": 20},
            )
    for omission, duplication in ((0.2, 0.0), (0.0, 0.2), (0.2, 0.1), (0.3, 0.3)):
        for n in (2, 3, 5):
            add(
                f"lossy/o{omission}/d{duplication}/n{n}",
                n=n,
                seed=n,
                fifo_enabled=n == 3,
                scheduler_profile="reorder-heavy" if n == 5 else "uniform",
                broadcasts=broadcasts(n, 4),
                fault_plan={"omission_prob": omission, "duplication_prob": duplication},
            )
    for interval in (7, 37):
        for stop in STOP_MODES:
            add(
                f"snapshots/i{interval}/{stop}",
                n=3,
                seed=interval,
                snapshot_interval=interval,
                stop_mode=stop,
                max_steps=1500,
                broadcasts=broadcasts(3, 3),
                fault_plan={
                    "corruptions": [{"node": 2, "step": 90, "kind": "CHANNEL-GARBAGE"}],
                    "crashes": [{"node": 3, "step": 400}],
                    "detection_latency": 15,
                },
            )
    for seed in range(4):
        for kind in ("WINDOW-SKEW", "CHANNEL-GARBAGE", "RANDOMIZE-ALL"):
            add(
                f"bounded/{kind}/s{seed}",
                n=3,
                buffer_unit_size=2,
                bounded_mode=True,
                maxint=12,
                seed=seed,
                max_steps=40_000,
                broadcasts=[{"node": 1 + k % 2, "payload": f"p{k}"} for k in range(16)],
                fault_plan={"corruptions": [{"node": 2, "step": 300 + 50 * seed, "kind": kind}]},
            )
        add(
            f"bounded/crash/s{seed}",
            n=4,
            buffer_unit_size=2,
            bounded_mode=True,
            maxint=12,
            seed=seed,
            max_steps=40_000,
            broadcasts=[{"node": 1, "payload": f"p{k}"} for k in range(16)],
            fault_plan={"crashes": [{"node": 4, "step": 500}], "detection_latency": 10},
        )
    gen = random.Random(2001)
    for k in range(24):
        n = gen.randint(2, 6)
        kind = gen.choice(CORRUPTION_KINDS)
        add(
            f"mixed/{k}",
            n=n,
            buffer_unit_size=gen.choice((1, 2, 3, 4)),
            channel_capacity=gen.choice((2, 4, 16)),
            fifo_enabled=gen.random() < 0.5 or kind == "NEXT-SKEW",
            seed=gen.randrange(1000),
            scheduler_profile=gen.choice(("uniform", "starve-one-node", "reorder-heavy")),
            snapshot_interval=gen.choice((0, 0, 11)),
            broadcasts=broadcasts(n, gen.randint(1, 5), spacing=gen.randint(10, 80)),
            fault_plan={
                "omission_prob": gen.choice((0.0, 0.1, 0.2)),
                "duplication_prob": gen.choice((0.0, 0.1)),
                "crashes": [{"node": n, "step": gen.randint(50, 400)}] if n > 2 else [],
                "detection_latency": gen.randint(0, 30),
                "corruptions": [{"node": 1, "step": gen.randint(50, 300), "kind": kind}],
            },
        )
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdicts_digest(header: dict, events: list[dict]) -> str:
    """SHA-256 over (step, node, ok, clause) of every node of every snapshot,
    each judged against the last corruption before it."""
    verdicts = []
    last_corrupt = None
    for event in events:
        if event["type"] == "CORRUPT":
            last_corrupt = event["step"]
        elif event["type"] == "SNAPSHOT":
            snapshot = as_snapshot(event)  # its packets decoded once for all its nodes
            for entry in event["nodes"]:
                verdict = checker.evaluate_snapshot(snapshot, header, last_corrupt, entry["id"])
                verdicts.append([event["step"], entry["id"], verdict.node is None, verdict.clause])
    return sha256(json.dumps(verdicts))


def events_digest(events) -> str:
    """SHA-256 over `canonical(e)` of every event, one line each."""
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(canonical(event).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class ReferenceMismatch(Exception):
    """A battery run whose metrics differ from the reference simulator's."""


def sweep_digest(reference=None) -> str:
    """SHA-256 of the summary of one small corruption sweep; each of its runs
    is checked against `reference(cfg)`'s trace digest when given."""
    base = from_dict(
        {
            "n": 3,
            "max_steps": 6000,
            "stop_mode": "stabilized",
            "quiescence_window_cycles": 3,
            "broadcasts": broadcasts(3, 3),
        }
    )
    grid = {
        "buffer_unit_size": [1, 2],
        "fault_plan.corruptions": [
            [{"node": 2, "step": 120, "kind": kind}] for kind in ("RANDOMIZE-ALL", "WINDOW-SKEW")
        ],
    }
    summary = cli.sweep(base, grid, [0, 1])
    for cell in summary["cells"] if reference else ():
        for run in cell["runs"]:
            cfg = config.apply_overrides(base, dict(cell["overrides"], seed=run["seed"]))
            if reference(cfg).metrics["trace_digest"] != run["digest"]:
                raise ReferenceMismatch(f"sweep cell {cell['overrides']} seed {run['seed']}")
    return sha256(json.dumps(summary, sort_keys=True))


def battery_lines(reference=None):
    """The battery's JSON lines, one per scenario and then the sweep's. Each
    run is checked against `reference(cfg)` when given (see `--reference`)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        for name, raw in scenarios():
            cfg = from_dict(raw)
            result = run_scenario(cfg)
            if reference and reference(cfg).metrics != result.metrics:
                raise ReferenceMismatch(name)
            result.trace.write(path)
            with open(path, "rb") as fh:
                file_digest = hashlib.sha256(fh.read()).hexdigest()
            reports = checker.check_all(result.trace.header, result.trace.events)
            ordered = sorted((r.to_dict() for r in reports), key=lambda r: r["name"])
            line = {
                "scenario": name,
                "metrics": result.metrics,
                "file_digest": file_digest,
                "reports_digest": sha256(json.dumps(ordered, sort_keys=True)),
                "verdicts_digest": verdicts_digest(result.trace.header, result.trace.events),
                "events_digest": events_digest(result.trace.events),
            }
            yield json.dumps(line, sort_keys=True)
    yield json.dumps({"sweep_digest": sweep_digest(reference)})


def first_difference(before: dict, after: dict) -> str:
    """The first top-level field, in sorted order, in which two lines differ."""
    for field in sorted(before.keys() | after.keys()):
        if before.get(field) != after.get(field):
            return field
    return ""


def compare(path: str, lines) -> int:
    with open(path, encoding="utf-8") as fh:
        expected = [line.rstrip("\n") for line in fh if line.strip()]
    count = 0
    for count, line in enumerate(lines, 1):
        if count > len(expected):
            print(f"line {count}: not in {path}")
            return 1
        if line != expected[count - 1]:
            before, after = json.loads(expected[count - 1]), json.loads(line)
            scenario = after.get("scenario", before.get("scenario", "sweep"))
            print(f"line {count}: {scenario} differs in {first_difference(before, after)}")
            return 1
    if count != len(expected):
        print(f"{path} has {len(expected)} lines, the battery {count}")
        return 1
    print(f"identical, {count} lines")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--compare",
        nargs="?",
        const=GOLDEN,
        metavar="BEFORE.jsonl",
        help="check the lines against this file (default: tests/golden/battery.jsonl)",
    )
    parser.add_argument(
        "--reference", action="store_true", help="check every run against the 1e25b3a simulator"
    )
    args = parser.parse_args()
    reference = None
    if args.reference:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from reference.sim_1e25b3a import run_scenario as reference

    lines = battery_lines(reference)
    try:
        if args.compare:
            status = compare(args.compare, lines)
        else:
            for line in lines:
                print(line, flush=True)
            status = 0
    except ReferenceMismatch as exc:
        print(f"reference: {exc} differs from the reference", file=sys.stderr)
        return 1
    if reference and status == 0:
        print("reference: identical on every line", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
