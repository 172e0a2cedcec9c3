"""The three workloads: scenario generation and one checked pass over a batch.

Every scenario seed is drawn from `random.Random(<workload seed>)`, so the
same workload seed gives the same batch. A batch is a whole number of
units; a unit is the smallest set of scenarios that keeps the workload's
mix (see UNIT_SECONDS).
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    TraceFacts,
    canonical,
    cost_problems,
    digest_of_file,
    digest_of_records,
    examine,
    parse_trace_file,
    verdict_problems,
)
from hostspeed import HostSpeed

CORRUPTION_KINDS = (
    "RANDOMIZE-ALL",
    "DUPLICATE-RECORD",
    "NULL-PAYLOAD",
    "SEQ-REGRESSION",
    "WINDOW-SKEW",
    "NEXT-SKEW",
    "CHANNEL-GARBAGE",
)
WINDOWS = (1, 2, 4, 8)

# Wall seconds one unit of each workload takes on a 2-core host, checks
# included: acceptance-mix 6 scenarios (n in {2,3,5} x two shapes),
# scale-n16 one scenario, corrupt-sweep one seed over the 28-cell grid
# (timed pool sweep plus the serial checking pass).
UNIT_SECONDS = {"acceptance-mix": 0.62, "scale-n16": 4.3, "corrupt-sweep": 3.75}


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def schedule(n: int, count: int = 5) -> list[dict]:
    """The acceptance suite's broadcasts: two as soon as possible, then one
    every 60 steps from step 120, round-robin over the nodes."""
    entries = []
    for k in range(count):
        entry = {"node": 1 + (k % n), "payload": f"m{k}"}
        if k >= 2:
            entry["step"] = 60 * k
        entries.append(entry)
    return entries


def acceptance_scenarios(seed: int, units: int) -> list[dict]:
    """Acceptance criteria 1 and 2: fault-free, and omission 0.2, duplication
    0.1, reorder-heavy; n in {2,3,5}; FIFO on odd seeds. Criterion 2's crash
    is left out: with it, a rare seed fails the quiescence check (see
    found_probe.py), and a workload must not fail on some seeds only."""
    rng = random.Random(seed)
    out = []
    for _ in range(units):
        s = rng.randrange(2**31)
        for n in (2, 3, 5):
            fault_free = {
                "n": n,
                "buffer_unit_size": 4,
                "seed": s,
                "max_steps": 10_000,
                "fifo_enabled": s % 2 == 1,
                "broadcasts": schedule(n),
            }
            benign = dict(
                fault_free,
                max_steps=20_000,
                scheduler_profile="reorder-heavy",
                fault_plan={"omission_prob": 0.2, "duplication_prob": 0.1},
            )
            out += [fault_free, benign]
    return out


def scale_scenarios(seed: int, units: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"n": 16, "seed": rng.randrange(2**31), "max_steps": 200_000, "broadcasts": schedule(16)}
        for _ in range(units)
    ]


CORRUPT_BASE = {
    "n": 4,
    "buffer_unit_size": 4,
    "max_steps": 15_000,
    "stop_mode": "stabilized",
    "quiescence_window_cycles": 3,
    "broadcasts": [{"node": 1 + (k % 4), "payload": f"m{k}"} for k in range(6)],
}


def corrupt_grids() -> list[dict]:
    """Two sweeps over one base scenario: NEXT-SKEW needs FIFO, the other
    kinds run without it, as in acceptance criterion 5."""

    def plans(kinds):
        return [[{"node": 2, "step": 250, "kind": kind}] for kind in kinds]

    return [
        {
            "fault_plan.corruptions": plans(k for k in CORRUPTION_KINDS if k != "NEXT-SKEW"),
            "buffer_unit_size": list(WINDOWS),
        },
        {
            "fifo_enabled": [True],
            "fault_plan.corruptions": plans(["NEXT-SKEW"]),
            "buffer_unit_size": list(WINDOWS),
        },
    ]


def grid_cells(grid: dict) -> list[dict]:
    cells: list[dict] = [{}]
    for key, values in grid.items():
        cells = [dict(cell, **{key: v}) for cell in cells for v in values]
    return cells


def corrupt_seeds(seed: int, units: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(units)]


def write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class Batch:
    """Generated, written and validated inputs of one run."""

    ids: list[str]
    paths: list[Path] = field(default_factory=list)  # serial workloads: one file each
    base: object = None  # corrupt-sweep: the loaded base config
    grids: list[dict] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    items: list[tuple[dict, int]] = field(default_factory=list)  # (cell, seed)


def prepare(m, workload: str, seed: int, units: int, out: Path) -> Batch:
    """Generate the scenarios, write them and validate them with ssurb.config."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "corrupt-sweep":
        path = out / "base.json"
        write_json(path, CORRUPT_BASE)
        grids = corrupt_grids()
        write_json(out / "grids.json", grids)
        base = m.config.load(str(path))
        seeds = corrupt_seeds(seed, units)
        items = [(cell, s) for grid in grids for cell in grid_cells(grid) for s in seeds]
        for cell, s in items:
            m.config.apply_overrides(base, dict(cell, seed=s))
        ids = [f"{canonical(cell)}/seed={s}" for cell, s in items]
        return Batch(ids=ids, base=base, grids=grids, seeds=seeds, items=items)
    scenarios = (acceptance_scenarios if workload == "acceptance-mix" else scale_scenarios)(
        seed, units
    )
    batch = Batch(ids=[])
    for i, raw in enumerate(scenarios):
        path = out / f"scenario-{i:04d}.json"
        write_json(path, raw)
        m.config.load(str(path))
        batch.paths.append(path)
        batch.ids.append(f"{path.name} n={raw['n']} seed={raw['seed']}")
    return batch


@dataclass
class Outcome:
    """One scenario: its timings, what the checks found, and counts."""

    wall: float  # the timed call for the scenario: config, run, check_all (and writes)
    inside: float  # time inside run_scenario
    steps: int
    cycles: int
    digest: str
    facts: TraceFacts
    trace_bytes: int = 0
    stabilization_cycles: float = 0.0
    problems: list[str] = field(default_factory=list)
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end of wall
    factor: float = 1.0  # host speed correction for wall and inside


class Timed:
    """Times a block on the host-speed clock, which leaves out sampling."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed

    def __enter__(self):
        self.raw_start = time.perf_counter()
        self.start = self.speed.clock()
        return self

    def __exit__(self, *exc):
        self.seconds = self.speed.clock() - self.start
        self.span = (self.raw_start, time.perf_counter())
        return False


class InsideTimer:
    """Times calls through one binding of run_scenario; serial passes only."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(cfg):
            start = self.speed.clock()
            try:
                return fn(cfg)
            finally:
                self.seconds += self.speed.clock() - start

        return timed

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


def _report_facts(reports: list[dict]) -> tuple[dict, float]:
    by_name = {r["name"]: r for r in reports}
    cost = by_name["message-cost"]["measured"]["per_broadcast"]
    stab = (by_name["stabilization-time"]["measured"] or {}).get("cycles", 0)
    return cost, stab


def _check_run(header, events, metrics, reports, *, scope: str) -> tuple[TraceFacts, list[str]]:
    facts = examine(header, events, delivery_scope=scope)
    problems = list(facts.problems)
    if metrics["status"] != header["stop_mode"]:
        problems.append(f"ended {metrics['status']}, not {header['stop_mode']}")
    if facts.end_reason != metrics["status"]:
        problems.append(f"END record says {facts.end_reason}, metrics say {metrics['status']}")
    problems += verdict_problems(reports)
    cost, _ = _report_facts(reports)
    problems += cost_problems(facts, cost)
    return facts, problems


def check_written_run(out: Path) -> tuple[dict, TraceFacts, list[str]]:
    """Check the trace.jsonl, metrics.json and report.json of one `ssurb run`."""
    data = (out / "trace.jsonl").read_bytes()
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    reports = json.loads((out / "report.json").read_text(encoding="utf-8"))
    header, events = parse_trace_file(data)
    facts, problems = _check_run(header, events, metrics, reports, scope="whole")
    if digest_of_file(data) != metrics["trace_digest"]:
        problems.append("SHA-256 of trace.jsonl differs from metrics.json trace_digest")
    metrics["trace_bytes"] = len(data)
    metrics["stabilization_cycles"] = _report_facts(reports)[1]
    return metrics, facts, problems


def acceptance_one(m, path: Path, out: Path, inside: InsideTimer, root) -> Outcome:
    """`ssurb run` in-process: config load, simulation, check_all and writes."""
    out.mkdir(parents=True, exist_ok=True)
    argv = ["run", "--scenario", str(path), "--out", str(out)]
    with root(), redirect_stdout(io.StringIO()), Timed(inside.speed) as timed:
        status = m.cli.main(argv)
    metrics, facts, problems = check_written_run(out)
    if status != 0:
        problems.append(f"ssurb run exited {status}")
    return Outcome(
        timed.seconds, inside.take(), metrics["steps"], metrics["cycles"],
        metrics["trace_digest"], facts, metrics["trace_bytes"],
        metrics["stabilization_cycles"], problems, timed.span,
    )


def _in_memory_outcome(result, reports, timed: Timed, inside: float, scope: str) -> Outcome:
    header, events = result.trace.header, result.trace.events
    reports = [r.to_dict() for r in reports]
    facts, problems = _check_run(header, events, result.metrics, reports, scope=scope)
    if digest_of_records(header, events) != result.metrics["trace_digest"]:
        problems.append("SHA-256 of the trace records differs from metrics trace_digest")
    return Outcome(
        timed.seconds, inside, result.metrics["steps"], result.metrics["cycles"],
        result.metrics["trace_digest"], facts, 0, _report_facts(reports)[1], problems, timed.span,
    )


def scale_one(m, path: Path, inside: InsideTimer, root) -> Outcome:
    """run_scenario plus check_all, no files written."""
    with root(), Timed(inside.speed) as timed:
        cfg = m.config.load(str(path))
        result = m.sim.run_scenario(cfg)
        reports = m.checker.check_all(result.trace.header, result.trace.events)
    return _in_memory_outcome(result, reports, timed, inside.take(), "whole")


def corrupt_one(m, base, cell: dict, seed: int, inside: InsideTimer, root) -> Outcome:
    """The work one sweep cell does for one seed, serially."""
    with root(), Timed(inside.speed) as timed:
        cfg = m.config.apply_overrides(base, dict(cell, seed=seed))
        result = m.sim.run_scenario(cfg)
        reports = m.checker.check_all(result.trace.header, result.trace.events)
    return _in_memory_outcome(result, reports, timed, inside.take(), "pre-corruption")


def serial_pass(m, workload: str, batch: Batch, out: Path, spans=None) -> list[Outcome]:
    """Run and check every scenario of the batch, one after another. The host
    speed is sampled throughout an untraced pass; in a traced pass only
    between scenarios, so that no sample lands inside a span."""
    speed = HostSpeed()
    inside = InsideTimer(speed)
    root = spans.root if spans is not None else nullcontext
    originals = (m.cli.run_scenario, m.sim.run_scenario)
    m.cli.run_scenario = inside.wrap(originals[0])
    m.sim.run_scenario = inside.wrap(originals[1])
    if workload == "acceptance-mix":
        calls = [
            lambda i=i, path=path: acceptance_one(m, path, out / "runs" / f"{i:04d}", inside, root)
            for i, path in enumerate(batch.paths)
        ]
    elif workload == "scale-n16":
        calls = [lambda path=path: scale_one(m, path, inside, root) for path in batch.paths]
    else:
        calls = [
            lambda cell=cell, s=s: corrupt_one(m, batch.base, cell, s, inside, root)
            for cell, s in batch.items
        ]
    outcomes = []
    if spans is None:
        speed.start_timer()
    try:
        for call in calls:
            outcomes.append(call())
            if spans is not None:
                speed.sample()
    finally:
        if spans is None:
            speed.stop_timer()
        m.cli.run_scenario, m.sim.run_scenario = originals
    for outcome in outcomes:
        outcome.factor = speed.factor(*outcome.span)
    return outcomes


@dataclass
class SweepResult:
    raw_s: float  # seconds of the sweep calls, sampling left out
    scaled_s: float  # the same, host-speed corrected
    digests: dict[str, str | None]  # by scenario id
    problems: list[list[str]]  # what the sweep's own summary shows, per scenario


def timed_sweep(m, batch: Batch, workers: int) -> SweepResult:
    """`ssurb.cli.sweep` over each grid and every seed, one call per grid,
    as a user would run it; the host speed is sampled throughout."""
    speed = HostSpeed()
    calls: list[Timed] = []
    runs = {}
    speed.start_timer()
    try:
        for grid in batch.grids:
            with Timed(speed) as timed:
                summary = m.cli.sweep(batch.base, grid, batch.seeds, workers=workers)
            calls.append(timed)
            for cell in summary["cells"]:
                for run in cell["runs"]:
                    runs[f"{canonical(cell['overrides'])}/seed={run['seed']}"] = run
    finally:
        speed.stop_timer()
    raw_s = sum(t.seconds for t in calls)
    scaled_s = sum(t.seconds * speed.factor(*t.span) for t in calls)
    result = SweepResult(raw_s, scaled_s, {}, [])
    for scenario_id in batch.ids:
        run = runs.get(scenario_id)
        if run is None:
            result.digests[scenario_id] = None
            result.problems.append(["missing from the sweep summary"])
            continue
        result.digests[scenario_id] = run["digest"]
        found = [f"sweep: checker {name} FAIL" for name in run["failed"]]
        if run["status"] != "stabilized":
            found.append(f"sweep: ended {run['status']}")
        result.problems.append(found)
    return result
