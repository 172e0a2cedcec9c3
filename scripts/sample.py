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

The unit first runs once to warm up. Then each of `--rounds` rounds runs
it plain and sampled, in alternating order, and the overhead printed is
the median over rounds of sampled / plain process time: paired runs a
fraction of a second apart, since the speed of a shared host drifts
within seconds. The tables count the samples of every sampled run and
show the top 15 rows of each.

    python3 scripts/sample.py --shape scale --rounds 20
"""

import argparse
import os
import signal
import statistics
import sys
import time
from collections import Counter

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


def print_table(title: str, counts: Counter) -> None:
    total = sum(counts.values())
    print(f"{title:60} {'samples':>8} {'share':>7}")
    for key, count in counts.most_common(TOP):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
