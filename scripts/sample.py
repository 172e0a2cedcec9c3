#!/usr/bin/env python3
"""Sampling profile of one workload unit: `ssurb`'s time by function and line.

Runs one unit of a workload shape, the scenarios `scripts/ab.py` builds
from `perfbench/workloads.py` (`acceptance`: 6 scenarios, `scale`: one n=16
scenario, `corrupt`: the 28-cell corruption grid run serially), each
through `run_scenario` and then `check_all`. A `SIGALRM` timer
(`signal.setitimer(ITIMER_REAL)`) fires every millisecond of wall time.
Its handler runs on the main thread, in the frame it interrupted, walks
out to the innermost frame whose code lies in the `ssurb` package and
charges the sample to that function and line, or to `(outside ssurb)`
when no such frame is on the stack. Time in C code (`sorted`, `hashlib`,
the JSON encoder) is charged to the `ssurb` line that called it.

A signal handler is used, not a thread that reads `sys._current_frames()`:
such a thread runs only when the main thread lets go of the GIL, so its
samples pile up on calls that release it (one charged 67.8 % of the
scale samples to `hasher.update`).

Line attribution leans towards loop back-edges and calls. CPython runs a
pending handler only where its evaluation loop checks for one, at a
backward jump, a function entry or a call, so the time of a straight run
of bytecodes is charged to the next such point. Function totals are not
skewed that way, except between a caller and its callee.

A third table charges the samples to the north-star layers of `LAYERS`,
one table of `module.py:qualname` patterns and, for the step loop
`Simulation._steps`, of the source lines where each of its ranges starts;
a range runs up to the next one's first line. A sample no layer claims,
set-up and config code or one outside `ssurb`, counts as `other`, so the
layer counts sum to the other tables' totals. A pattern that matches no
function of the package, or an anchor found on other than one line, is a
ValueError: a stale one would quietly move its samples to `other`.

The unit first runs once to warm up. Then each of `--rounds` rounds runs
it plain and sampled, in alternating order, and the overhead printed is
the median over rounds of sampled / plain process time: paired runs a
fraction of a second apart, since the speed of a shared host drifts
within seconds. The tables count the samples of every sampled run and
show the top 15 rows of each.

    python3 scripts/sample.py --shape scale --rounds 20
"""

import argparse
import inspect
import os
import signal
import statistics
import sys
import time
import types
from collections import Counter
from fnmatch import fnmatchcase

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ab  # noqa: E402  (scripts/ab.py, for the workload shapes)
import ssurb  # noqa: E402
from ssurb import checker, config, sim  # noqa: E402

SHAPES = ("acceptance", "scale", "corrupt")
SEED = 0  # of the workload generators
INTERVAL = 0.001  # seconds of wall time between samples
TOP = 15  # rows per table
PACKAGE = os.path.dirname(ssurb.__file__) + os.sep  # as the code objects name their files
OUTSIDE = "(outside ssurb)"
OTHER = "other"

# (layer, the functions it is charged as `module.py:qualname` fnmatch
# patterns, the first patterns that match winning, and the lines of
# `Simulation._steps` from each anchor text on). Faults and broadcast
# requests count with the handlers, the reset barrier with the stop rule;
# `canonical` counts with the snapshots, whose nodes half is most of its
# work, though it also renders the header and the CYCLE, BROADCAST and END
# records.
LAYERS = (
    ("scheduler draw", ("sim.py:WeightTree.*", "sim.py:Simulation._prologue", "sim.py:Simulation._reweigh"),
     ("def _steps(", "total = tree[root]")),
    ("delivery and handlers", ("node.py:NodeState.on_*", "node.py:NodeState.update", "node.py:NodeState.urb_broadcast",
                               "node.py:NodeState.check_overflow", "detectors.py:HeartbeatState.on_heartbeat",
                               "sim.py:Simulation._request_broadcast", "sim.py:Simulation._crash",
                               "sim.py:Simulation._corrupt", "corruption.py:*"),
     ("channel = channel_slots[slot - n]",)),
    ("iteration send", ("sim.py:Simulation._iterate_action*", "sim.py:Simulation._overflow",
                        "sim.py:Simulation._satisfy", "sim.py:Simulation._delayed_crashed", "sim.py:payload_hash",
                        "detectors.py:HeartbeatState.tick*", "detectors.py:ThetaState.*", "trace.py:deliver_line"),
     ("if slot < n:",)),
    ("node iteration", ("node.py:*",), ()),
    ("snapshots", ("sim.py:Simulation._emit_snapshot*", "trace.py:snapshot_*", "trace.py:canonical"),
     ("if interval and step > 0",)),
    ("stop rule and cycle accounting", ("sim.py:Simulation._on_cycle_boundary", "sim.py:Simulation._settled_*",
                                        "sim.py:Simulation._cycle_complete*", "sim.py:Simulation._reset_cycle_tracker",
                                        "sim.py:Simulation._count_missing_gossip*", "sim.py:Simulation._*barrier*",
                                        "sim.py:Simulation._apply_global_reset", "wire.py:message_id",
                                        "checker.py:drained_cycle", "checker.py:snapshot_all_consistent"),
     ("if bounded and self.barrier_active", "step += 1")),
    ("trace hashing", ("trace.py:*", "sim.py:Simulation._event"), ()),
    ("checkers", ("checker.py:*",), ()),
)


def run_unit(cfgs: list) -> None:
    for cfg in cfgs:
        result = sim.run_scenario(cfg)
        checker.check_all(result.trace.header, result.trace.events)


def timed(work) -> float:
    """The process time `work()` takes."""
    start = time.process_time()
    work()
    return time.process_time() - start


def sampled(work, interval: float) -> tuple[Counter, float]:
    """Run `work()` under the timer: its samples by (code, instruction
    offset), or OUTSIDE, and the process time it took."""
    counts, codes = Counter(), {}  # keyed by the code's id: hashing a code object costs ~2 us

    def charge(signum, frame):
        while frame is not None and not frame.f_code.co_filename.startswith(PACKAGE):
            frame = frame.f_back
        if frame is None:
            counts[OUTSIDE] += 1
        else:
            code = frame.f_code
            codes[id(code)] = code
            counts[id(code), frame.f_lasti] += 1

    previous = signal.signal(signal.SIGALRM, charge)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        seconds = timed(work)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Counter({key if key == OUTSIDE else (codes[key[0]], key[1]): n for key, n in counts.items()}), seconds


def line_of(code, offset: int) -> int | None:
    """The source line of the instruction at `offset`; for an instruction
    without one (the compiler adds some), the line of the last before it."""
    line = None
    for start, end, number in code.co_lines():
        if number is not None:
            line = number
        if start <= offset < end:
            break
    return line


def tables(samples: Counter) -> tuple[Counter, Counter]:
    """(by function, by line): keys "module.py:qualname" and "module.py:line qualname"."""
    functions, lines = Counter(), Counter()
    for key, count in samples.items():
        if key == OUTSIDE:
            functions[OUTSIDE] += count
            lines[OUTSIDE] += count
            continue
        code, offset = key
        line = line_of(code, offset)
        module = os.path.basename(code.co_filename)
        name = getattr(code, "co_qualname", code.co_name)
        functions[f"{module}:{name}"] += count
        lines[f"{module}:{line} {name}"] += count
    return functions, lines


def steps_layers() -> dict[int, str]:
    """The layer of each source line of `Simulation._steps`: that of the last
    anchor at or above it. An anchor found other than once is a ValueError."""
    source, first = inspect.getsourcelines(sim.Simulation._steps)
    starts = []
    for layer, _, anchors in LAYERS:
        for anchor in anchors:
            hits = [first + k for k, text in enumerate(source) if anchor in text]
            if len(hits) != 1:
                raise ValueError(f"_steps anchor {anchor!r} found on {len(hits)} lines")
            starts.append((hits[0], layer))
    starts.sort()
    return {line: max((s for s in starts if s[0] <= line), default=(0, OTHER))[1]
            for line in range(first, first + len(source))}


def package_functions() -> set[str]:
    """Every function of the package, nested ones and the module bodies included,
    as `module.py:qualname`, read off the code objects its sources compile to."""
    names, codes = set(), []
    for module in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(PACKAGE + module, encoding="utf-8") as source:
            codes.append((module, compile(source.read(), PACKAGE + module, "exec")))
    while codes:
        module, code = codes.pop()
        names.add(f"{module}:{getattr(code, 'co_qualname', code.co_name)}")
        codes += [(module, const) for const in code.co_consts if isinstance(const, types.CodeType)]
    return names


def check_patterns() -> None:
    """A `LAYERS` pattern that matches no function of the package, which would
    quietly send its samples to OTHER, is a ValueError."""
    functions = package_functions()
    for layer, patterns, _ in LAYERS:
        for pattern in patterns:
            if not any(fnmatchcase(name, pattern) for name in functions):
                raise ValueError(f"{layer} pattern {pattern!r} matches no function")


def layers(samples: Counter) -> Counter:
    """The samples by layer of `LAYERS`, or OTHER; a stale pattern or anchor is a ValueError."""
    check_patterns()
    steps, counts = steps_layers(), Counter({layer: 0 for layer, _, _ in LAYERS} | {OTHER: 0})
    for key, count in samples.items():
        layer = OTHER
        if key != OUTSIDE:
            code, offset = key
            name = f"{os.path.basename(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"
            if name == "sim.py:Simulation._steps":
                layer = steps.get(line_of(code, offset), OTHER)
            else:
                layer = next((lay for lay, patterns, _ in LAYERS if any(fnmatchcase(name, p) for p in patterns)), OTHER)
        counts[layer] += count
    return counts


def print_table(title: str, counts: Counter, rows: int | None = TOP) -> None:
    total = sum(counts.values())
    print(f"{title:60} {'samples':>8} {'share':>7}")
    for key, count in counts.most_common(rows) if rows else counts.items():
        print(f"{key:60} {count:8d} {100 * count / total:6.1f}%")


def profile(cfgs: list, rounds: int) -> tuple[Counter, float]:
    """(samples of every sampled run, median sampled/plain process-time ratio)."""
    run_unit(cfgs)  # warm-up
    samples, ratios = Counter(), []
    for r in range(rounds):
        times = {}
        for mode in ("plain", "sampled") if r % 2 == 0 else ("sampled", "plain"):
            if mode == "plain":
                times[mode] = timed(lambda: run_unit(cfgs))
            else:
                found, times[mode] = sampled(lambda: run_unit(cfgs), INTERVAL)
                samples += found
        ratios.append(times["sampled"] / times["plain"])
    return samples, statistics.median(ratios)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shape", choices=SHAPES, default="acceptance")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()
    cfgs = ab.scenarios(config, args.shape, SEED)
    samples, overhead = profile(cfgs, args.rounds)
    functions, lines = tables(samples)
    print(f"{args.shape}: {sum(samples.values())} samples over {args.rounds} sampled units, "
          f"overhead {overhead:.3f} (median sampled/plain process time)")
    print_table("function", functions)
    print()
    print_table("line", lines)
    print()
    print_table("layer", layers(samples), rows=None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
