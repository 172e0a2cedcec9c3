#!/usr/bin/env python3
"""ssurb benchmark: one workload, a fixed batch of scenarios, every output checked.

    python3 perfbench/run.py --workload acceptance-mix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # each workload in a fresh process

`--seconds` sizes the batch (see workloads.UNIT_SECONDS); the run then does
that whole batch, so every run with the same seed does the same work.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, with `--trace 1` one with the per-layer metrics
of a traced pass. Outputs (trace digests, spans) go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import workloads as wl
from hostspeed import HostSpeed
from selftest import run_selftest
from tracer import CHECKS, Spans

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".perfbench_out"
WORKLOADS = ("acceptance-mix", "scale-n16", "corrupt-sweep")
MODULES = ("cli", "sim", "config", "checker", "trace", "node", "detectors", "wire", "corruption")
SETUP_REPEATS = 5


def import_ssurb() -> types.SimpleNamespace:
    """Import ssurb afresh: drop any copy already loaded, so each set-up pays
    the import a user's process pays."""
    for name in [k for k in sys.modules if k == "ssurb" or k.startswith("ssurb.")]:
        del sys.modules[name]
    importlib.import_module("ssurb.cli")
    return types.SimpleNamespace(**{name: sys.modules[f"ssurb.{name}"] for name in MODULES})


def setup(workload: str, seed: int, units: int, out: Path):
    """Import ssurb, then generate, write and validate the batch; repeated,
    with the median time reported."""
    src = ROOT_DIR / "src"
    if not (src / "ssurb").is_dir():
        raise SystemExit(f"no ssurb sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        with wl.Timed(speed) as timed:
            m = import_ssurb()
            batch = wl.prepare(m, workload, seed, units, out / "scenarios")
        speed.sample()
        times.append(timed.seconds * speed.factor(*timed.span))
    return statistics.median(times), m, batch


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def add_problems(problems: list[list[str]], found: list[list[str]]) -> None:
    for mine, more in zip(problems, found):
        mine += more


def digest_problems(ids, expected: dict, digests: list[str], what: str) -> list[list[str]]:
    return [
        [f"digest differs from the {what}"] if expected[sid] != digest else []
        for sid, digest in zip(ids, digests)
    ]


def msgs_per_broadcast(outcomes: list[wl.Outcome]) -> float:
    sends = sum(sum(o.facts.cost.values()) for o in outcomes)
    return sends / sum(len(o.facts.cost) for o in outcomes)


def scaled(outcomes: list[wl.Outcome], attr: str) -> list[float]:
    return [getattr(o, attr) * o.factor for o in outcomes]


def end_to_end(m, workload: str, batch: wl.Batch, out: Path, problems, setup_s: float) -> dict:
    if workload == "corrupt-sweep":
        sweep = wl.timed_sweep(m, batch, nproc())
        add_problems(problems, sweep.problems)
    outcomes = wl.serial_pass(m, workload, batch, out)
    add_problems(problems, [o.problems for o in outcomes])
    if workload == "corrupt-sweep":
        timed_s = sweep.scaled_s
        add_problems(problems, digest_problems(
            batch.ids, sweep.digests, [o.digest for o in outcomes], "pool sweep"))
    else:
        timed_s = sum(scaled(outcomes, "wall"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "scenarios_per_s": (len(outcomes) / timed_s, "1/s"),
        "steps_per_s": (sum(o.steps for o in outcomes) / sum(scaled(outcomes, "inside")), "1/s"),
        "scenario_s_p50": (statistics.median(scaled(outcomes, "wall")), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "msgs_per_broadcast": (msgs_per_broadcast(outcomes), "count"),
    }
    raw = {"pool_sweep_s": sweep.raw_s} if workload == "corrupt-sweep" else {}
    write_outputs(batch, outcomes, out, metrics, raw=raw)
    return metrics


def per_layer(m, workload: str, batch: wl.Batch, out: Path, problems) -> dict:
    """Untraced reference pass(es), then the traced serial pass. corrupt-sweep's
    layer split comes from a serial pass: spans recorded in pool workers would
    measure the pool, not the layers."""
    pool_speedup = 1.0  # the serial workloads run one worker
    raw: dict = {}
    if workload == "corrupt-sweep":
        pooled = wl.timed_sweep(m, batch, nproc())
        serial = wl.timed_sweep(m, batch, 1)
        add_problems(problems, pooled.problems)
        add_problems(problems, serial.problems)
        add_problems(problems, digest_problems(
            batch.ids, pooled.digests, [serial.digests[sid] for sid in batch.ids], "pool sweep"))
        pool_speedup = serial.scaled_s / pooled.scaled_s
        raw = {"pool_sweep_s": pooled.raw_s, "serial_sweep_s": serial.raw_s}
        untraced_s = serial.scaled_s
        digests, what = pooled.digests, "pool sweep"
    else:
        reference = wl.serial_pass(m, workload, batch, out)
        add_problems(problems, [o.problems for o in reference])
        digests = {sid: o.digest for sid, o in zip(batch.ids, reference)}
        untraced_s = sum(scaled(reference, "wall"))
        what = "untraced pass"
    spans = Spans()
    spans.install(m)
    try:
        outcomes = wl.serial_pass(m, workload, batch, out, spans)
    finally:
        spans.uninstall()
    add_problems(problems, [o.problems for o in outcomes])
    add_problems(problems, digest_problems(batch.ids, digests, [o.digest for o in outcomes], what))
    metrics = layer_metrics(spans, outcomes, pool_speedup, untraced_s)
    write_outputs(batch, outcomes, out, metrics, spans=spans, raw=raw)
    return metrics


def layer_metrics(spans: Spans, outcomes: list[wl.Outcome], pool_speedup: float, untraced_s: float) -> dict:
    """Span times are host-speed corrected by the traced pass's mean factor."""
    traced_s = sum(scaled(outcomes, "wall"))
    factor = traced_s / sum(o.wall for o in outcomes)
    calls = spans.calls
    total = Counter({name: ns * factor for name, ns in spans.total.items()})
    self_ns = Counter({name: ns * factor for name, ns in spans.self_ns.items()})
    n = len(outcomes)
    steps = sum(o.steps for o in outcomes)
    cycles = sum(o.cycles for o in outcomes)

    def names(prefix, *which):
        return [f"{prefix}.{w}" for w in which]

    def tot_s(keys):  # seconds per scenario
        return sum(total[k] for k in keys) / n / 1e9

    def per_call_us(keys):
        count = sum(calls[k] for k in keys)
        return sum(total[k] for k in keys) / count / 1e3 if count else 0.0

    def calls_per(keys):
        return sum(calls[k] for k in keys) / n

    handlers = names("node", "on_msg", "on_msg_ack", "on_gossip", "urb_broadcast")
    detectors = names("detectors", "tick", "on_heartbeat", "reconcile")
    wire = names("wire", "encode", "message_id")
    config = names("config", "load", "apply_overrides")
    appends = calls["trace.append"]
    metrics = {
        "sim.self_us_per_step": (self_ns["sim.run_scenario"] / steps / 1e3, "us"),
        "sim.steps": (steps / n, "count"),
        "sim.cycles": (cycles / n, "cycles"),
        "sim.steps_per_cycle": (steps / cycles if cycles else 0.0, "count"),
        "sim.overflow_omits": (sum(o.facts.overflow_omits for o in outcomes) / n, "count"),
        "sim.recv_per_send": (
            sum(o.facts.recvs for o in outcomes) / sum(o.facts.sends for o in outcomes), "ratio"
        ),
        "node.iterate_us": (per_call_us(["node.iterate"]), "us"),
        "node.iterations": (calls_per(["node.iterate"]), "count"),
        "node.handler_us": (per_call_us(handlers), "us"),
        "node.handler_calls": (calls_per(handlers), "count"),
        "detectors.us_per_step": (sum(total[k] for k in detectors) / steps / 1e3, "us"),
        "detectors.calls": (calls_per(detectors), "count"),
        "wire.s": (tot_s(wire), "s"),
        "wire.calls": (calls_per(wire), "count"),
        "trace.append_us_per_event": (per_call_us(["trace.append"]), "us"),
        "trace.events_per_step": (appends / steps, "count"),
        "trace.encodes_per_event": (calls["trace.canonical"] / appends, "count"),
        "trace.write_s": (tot_s(["trace.write"]), "s"),
        "trace.bytes": (sum(o.trace_bytes for o in outcomes) / n, "bytes"),
        "trace.snapshots": (sum(o.facts.snapshots for o in outcomes) / n, "count"),
        "trace.snapshot_canonical_s": (tot_s(["trace.snapshot_canonical"]), "s"),
        "checker.check_s": (tot_s(["checker.check_all"]), "s"),
        "checker.index_s": (tot_s(["checker.index"]), "s"),
        "checker.stop_predicate_s": (tot_s(["checker.stop_predicate"]), "s"),
        "checker.stop_predicate_calls": (calls_per(["checker.stop_predicate"]), "count"),
        "corruption.inject_s": (tot_s(["corruption.inject"]), "s"),
        "corruption.calls": (calls_per(["corruption.inject"]), "count"),
        "config.load_s": (tot_s(config), "s"),
        "cli.write_s": (self_ns["cli.main"] / n / 1e9, "s"),
        "cli.pool_speedup": (pool_speedup, "ratio"),
        "stabilization_cycles": (statistics.mean(o.stabilization_cycles for o in outcomes), "cycles"),
        "tracing.overhead": (traced_s / untraced_s, "ratio"),
        "tracing.remainder_share": (
            self_ns["bench.scenario"] / total["bench.scenario"], "ratio"
        ),
    }
    for check in CHECKS:
        short = check.removesuffix("_check")
        metrics[f"checker.{short}_s"] = (tot_s([f"checker.{check}"]), "s")
    return metrics


def write_outputs(batch, outcomes, out: Path, metrics: dict, *, spans: Spans | None = None,
                  raw: dict) -> None:
    """The trace digest of every scenario (byte-identity evidence for a change
    that must keep behaviour), the raw timings with their host speed factors
    (and the raw pool sweep times), and for a traced run the span aggregates."""
    wl.write_json(out / "digests.json", [
        {"scenario": sid, "digest": o.digest} for sid, o in zip(batch.ids, outcomes)
    ])
    wl.write_json(out / "timings.json", {
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "raw": raw,
        "scenarios": [
            {"scenario": sid, "wall_s": o.wall, "inside_s": o.inside, "host_factor": o.factor}
            for sid, o in zip(batch.ids, outcomes)
        ],
    })
    if spans is not None:
        wl.write_json(out / "spans.json", {"layers_self_s": spans.layer_self_s(), "spans": spans.to_dict()})


def run_workload(args) -> int:
    out = OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    units = wl.units_for(args.workload, args.seconds)
    setup_s, m, batch = setup(args.workload, args.seed, units, out)
    problems: list[list[str]] = [[] for _ in batch.ids]
    if args.trace:
        metrics = per_layer(m, args.workload, batch, out, problems)
    else:
        metrics = end_to_end(m, args.workload, batch, out, problems, setup_s)
    harness = run_selftest(m, out / "selftest")
    failed = [(sid, found) for sid, found in zip(batch.ids, problems) if found]
    for sid, found in failed[:5]:
        print(f"FAILED {sid}: {found[:3]}", file=sys.stderr)
    for problem in harness:
        print(f"SELF-TEST: {problem}", file=sys.stderr)
    result = {
        "correct": not harness,
        "attempted": len(batch.ids),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: {json.dumps(result)}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
