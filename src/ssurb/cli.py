"""Batch front door: run one scenario, sweep a parameter grid, or re-check a trace.

Exit statuses are a stable contract for CI: 0 when every applicable check
passes, 1 on any property failure, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path

from . import checker, config, trace as trace_mod
from .sim import run_scenario, run_scenarios


def _value(raw: str):
    """An option's value: `raw` as JSON, else the raw string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_set(values: list[str]) -> dict:
    overrides = {}
    for item in values:
        if "=" not in item:
            raise config.ConfigError(item, "override must look like key=value")
        key, raw = item.split("=", 1)
        overrides[key] = _value(raw)
    return overrides


def _load_config(args) -> config.ScenarioConfig:
    cfg = config.load(args.scenario)
    overrides = _parse_set(args.set or [])
    if getattr(args, "seed", None) is not None:  # `sweep` takes its seeds from --seeds
        overrides["seed"] = args.seed
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.profile is not None:
        overrides["scheduler_profile"] = args.profile
    if overrides:
        cfg = config.apply_overrides(cfg, overrides)
    return cfg


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(cfg)
    if args.verify_replay:
        replay = run_scenario(cfg)
        if replay.trace.digest() != result.trace.digest():
            print("replay divergence: identical config+seed produced different traces",
                  file=sys.stderr)
            return 1
    reports = checker.check_all(result.trace.header, result.trace.events)
    result.trace.write(str(out / "trace.jsonl"))
    _write_json(out / "metrics.json", result.metrics)
    _write_json(out / "report.json", [r.to_dict() for r in reports])
    for report in reports:
        print(report.line())
    print(f"status: {result.metrics['status']}  steps: {result.metrics['steps']}  "
          f"cycles: {result.metrics['cycles']}  digest: {result.metrics['trace_digest'][:16]}")
    if result.unfired:
        print(f"warning: the run ended {result.metrics['status']} at step "
              f"{result.metrics['steps']} before scheduled faults fired: "
              f"{'; '.join(result.unfired)}", file=sys.stderr)
    return checker.gate(reports)


def cmd_check(args) -> int:
    tr = trace_mod.read(args.trace)
    try:
        reports = checker.check_all(tr.header, tr.events)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:  # a field `read` does not check
        raise ValueError(f"{args.trace}: a record the checks cannot read: {exc!r}") from None
    if args.out:  # first, as in `run`: a path that cannot be made prints no verdict
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", [r.to_dict() for r in reports])
    for report in reports:
        print(report.line())
    print(f"digest: {tr.digest()[:16]}")
    return checker.gate(reports)


def _parse_seeds(spec: str) -> list[int]:
    """`lo:hi` (hi excluded) or a comma list. A piece that is not an integer,
    a seed named twice or no seed at all is a ValueError naming `--seeds`."""

    def seed(piece: str) -> int:
        try:
            return int(piece)
        except ValueError:
            raise ValueError(f"--seeds {spec!r}: {piece!r} is not an integer") from None

    if ":" in spec:
        lo, _, hi = spec.partition(":")
        seeds = list(range(seed(lo), seed(hi)))
    else:
        seeds = [seed(s) for s in spec.split(",") if s]
    if not seeds:
        raise ValueError(f"--seeds {spec!r} names no seed")
    if len(set(seeds)) < len(seeds):
        again = next(s for k, s in enumerate(seeds) if s in seeds[:k])
        raise ValueError(f"--seeds {spec!r}: seed {again} is named twice")
    return seeds


def _split_values(raw: str) -> list[str]:
    """`raw` cut at each comma outside JSON brackets, braces and strings."""
    pieces, start, depth, quoted, escaped = [], 0, 0, False, False
    for i, ch in enumerate(raw):
        if quoted:
            escaped, quoted = not escaped and ch == "\\", escaped or ch != '"'
        elif ch == "," and depth == 0:
            pieces.append(raw[start:i])
            start = i + 1
        else:
            quoted = ch == '"'
            depth += (ch in "[{") - (ch in "]}")
    return pieces + [raw[start:]]


def _parse_grid(items: list[str]) -> dict[str, list]:
    grid = {}
    for item in items:
        if "=" not in item:
            raise config.ConfigError(item, "grid entry must look like key=v1,v2")
        key, raw = item.split("=", 1)
        grid[key] = [_value(piece) for piece in _split_values(raw)]
    return grid


def _sweep_cell(overrides: dict, runs: list[dict]) -> dict:
    stab_values = [r["stabilization_cycles"] for r in runs if r["stabilization_cycles"] is not None]
    msg_values = [r["max_broadcast_msgs"] for r in runs if r["max_broadcast_msgs"] is not None]
    return {
        "overrides": overrides,
        "runs": runs,
        "aggregates": {
            "median_stabilization_cycles": statistics.median(stab_values) if stab_values else None,
            "max_stabilization_cycles": max(stab_values) if stab_values else None,
            "max_broadcast_msgs": max(msg_values) if msg_values else None,
            "failures": sum(len(r["failed"]) for r in runs),
        },
    }


def sweep(base: config.ScenarioConfig, grid: dict[str, list], seeds: list[int], workers: int = 1) -> dict:
    """Run the full grid in the calling thread, through `sim.run_scenarios`:
    cells that differ only in their crashes and corruptions simulate their
    fault-free prefix once, and the summary is the one standalone runs give.

    `workers` has no effect; it is accepted so that existing callers keep
    working. The cells are CPU-bound pure Python, so threads gave no speedup,
    and a process pool's speedup came with one more interpreter's memory.
    An empty `seeds` is a ValueError: it would run nothing and pass. A
    `seed` dimension is a ConfigError: each run's seed comes from `seeds`.
    """
    if not seeds:
        raise ValueError("--seeds: an empty seed list runs nothing")
    if "seed" in grid:
        raise config.ConfigError("--vary seed", "a sweep takes its seeds from --seeds")
    cells: list[dict] = [{}]
    for key, values in grid.items():
        cells = [dict(cell, **{key: v}) for cell in cells for v in values]
    cfgs = [config.apply_overrides(base, dict(cell, seed=seed)) for cell in cells for seed in seeds]
    runs: list = [None] * len(cfgs)
    for index, result in run_scenarios(cfgs):
        reports = checker.check_all(result.trace.header, result.trace.events)
        by_name = {r.name: r for r in reports}
        stab, cost = by_name["stabilization-time"], by_name["message-cost"]
        runs[index] = {
            "seed": cfgs[index].seed,
            "verdicts": {r.name: r.verdict for r in reports},
            "failed": [r.name for r in reports if r.verdict == "FAIL"],
            "stabilization_cycles": (stab.measured or {}).get("cycles"),
            "max_broadcast_msgs": (cost.measured or {}).get("max_total"),
            "max_latency_cycles": (cost.measured or {}).get("max_latency_cycles"),
            "steps": result.metrics["steps"],
            "cycles": result.metrics["cycles"],
            "status": result.metrics["status"],
            "digest": result.metrics["trace_digest"],
        }
    k = len(seeds)  # the runs are in cell order, seeds in order within a cell
    results = [_sweep_cell(cell, runs[c * k:(c + 1) * k]) for c, cell in enumerate(cells)]
    return {
        "grid": grid,
        "seeds": seeds,
        "cells": results,
        "all_pass": all(cell["aggregates"]["failures"] == 0 for cell in results),
    }


def cmd_sweep(args) -> int:
    if "seed" in _parse_set(args.set or []):
        raise config.ConfigError("--set seed", "a sweep takes its seeds from --seeds")
    cfg = _load_config(args)
    grid = _parse_grid(args.vary or [])
    seeds = _parse_seeds(args.seeds)
    try:
        summary = sweep(cfg, grid, seeds)
    except config.ConfigError:
        raise
    except Exception:
        print("sweep cell crashed under base config:", file=sys.stderr)
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True), file=sys.stderr)
        raise
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", summary)
    for cell in summary["cells"]:
        agg = cell["aggregates"]
        print(
            f"cell {cell['overrides']}: median_stab={agg['median_stabilization_cycles']} "
            f"max_msgs={agg['max_broadcast_msgs']} failures={agg['failures']}"
        )
    return 0 if summary["all_pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `main` may be called many times in
    one process (tests, scripts, the benchmark), and parsing leaves the
    parser as it was, every call filling a fresh namespace."""
    parser = argparse.ArgumentParser(prog="ssurb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario, check it, write trace/metrics/report")
    run_p.add_argument("--scenario", required=True, help="scenario config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--max-steps", type=int, default=None)
    run_p.add_argument("--profile", default=None, help="scheduler profile override")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-path override")
    run_p.add_argument(
        "--verify-replay", action="store_true",
        help="run twice and fail hard if the traces diverge",
    )
    run_p.set_defaults(func=cmd_run)

    # no abbreviations: `--seed` must not read as `--seeds`
    sweep_p = sub.add_parser("sweep", help="run a seed sweep over a parameter grid", allow_abbrev=False)
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--seeds", default="0:10", help="range lo:hi or comma list")
    sweep_p.add_argument("--vary", action="append", metavar="KEY=V1,V2", help="grid dimension")
    sweep_p.add_argument("--max-steps", type=int, default=None)
    sweep_p.add_argument("--profile", default=None)
    sweep_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep_p.set_defaults(func=cmd_sweep)

    check_p = sub.add_parser("check", help="re-run the checkers on an existing trace")
    check_p.add_argument("--trace", required=True)
    check_p.add_argument("--out", default=None)
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a path that cannot be read or written, or bad data
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
