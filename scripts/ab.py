#!/usr/bin/env python3
"""In-process A/B of this checkout against another: simulation and checks.

Loads this checkout's `src` twice and OTHER_CHECKOUT's once, each under a
package name of its own (`load_tree`), so that the three share one process,
its offset and the host's drift. A shape is one unit of a benchmark
workload, built by the generators of `perfbench/workloads.py`: `acceptance`
is `acceptance_scenarios` (6 scenarios), `scale` is `scale_scenarios` (one
n=16 scenario) and `corrupt` is every cell of `corrupt_grids` over
`CORRUPT_BASE` for one of `corrupt_seeds` (28 scenarios). `sizes` is
`scripts/step_cost.py`'s fault-free scenario at n = 16, 32 and 64 (3
scenarios, about 0.2, 1 and 5 s each; `--seed` does not change it). Each
round runs every scenario on the three trees, the order rotating from
scenario to scenario, and times `run_scenario` and `check_all` apart, in
process time. The three runs of a scenario must give the same metrics and
reports; otherwise the script names the first difference and exits 1.

For each shape and timer it prints, for other/this and for this/this (the
A/A, which shows what noise alone reads), the ratio of the summed times,
the median of the per-scenario ratios with its quartiles and min-max, and
the wins: the pairs in which the first tree took less time. `sizes` prints
these lines for each n apart (`sizes/n16`, `sizes/n32`, `sizes/n64`), each
beside its own A/A, since a per-step cost that changes with n would hide in
one pooled ratio.

    python3 scripts/ab.py ../parent --shape scale --rounds 9
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, HERE)

import step_cost  # noqa: E402
import workloads  # noqa: E402  (perfbench/workloads.py)

SHAPES = ("acceptance", "scale", "corrupt", "sizes")
TREES = ("other", "this", "this2")
TIMERS = ("run_scenario", "check_all")


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
    for module in ("checker", "config", "sim"):
        setattr(package, module, importlib.import_module(f"{name}.{module}"))
    return package


def scenarios(config, shape: str, seed: int) -> list:
    """One unit of the workload behind `shape`, as configs of `config`."""
    if shape == "acceptance":
        return [config.from_dict(raw) for raw in workloads.acceptance_scenarios(seed, 1)]
    if shape == "scale":
        return [config.from_dict(raw) for raw in workloads.scale_scenarios(seed, 1)]
    if shape == "sizes":
        return [step_cost.scenario(config, n, "fault-free") for n in (16, 32, 64)]
    base = config.from_dict(workloads.CORRUPT_BASE)
    return [
        config.apply_overrides(base, dict(cell, seed=s))
        for grid in workloads.corrupt_grids()
        for cell in workloads.grid_cells(grid)
        for s in workloads.corrupt_seeds(seed, 1)
    ]


def timed_run(tree, cfg) -> tuple[float, float, dict, list]:
    """(run seconds, check seconds, metrics, reports) of one scenario."""
    start = time.process_time()
    result = tree.sim.run_scenario(cfg)
    ran = time.process_time()
    reports = tree.checker.check_all(result.trace.header, result.trace.events)
    checked = time.process_time()
    return ran - start, checked - ran, result.metrics, [r.to_dict() for r in reports]


def summary(over: list[float], under: list[float]) -> str:
    ratios = sorted(a / b for a, b in zip(over, under))
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(a < b for a, b in zip(over, under))
    return (
        f"sum {sum(over) / sum(under):.3f}  median {med:.3f} [{q1:.3f}, {q3:.3f}]"
        f"  min-max {ratios[0]:.3f}-{ratios[-1]:.3f}  wins {wins}/{len(ratios)}"
    )


def compare(shape: str, trees: dict, seed: int, rounds: int) -> bool:
    cfgs = {side: scenarios(tree.config, shape, seed) for side, tree in trees.items()}
    times = {(side, timer): [] for side in TREES for timer in TIMERS}
    turn = 0
    for _ in range(rounds):
        for index in range(len(cfgs["this"])):
            outputs = {}
            for k in range(len(TREES)):
                side = TREES[(turn + k) % len(TREES)]
                run_s, check_s, *outputs[side] = timed_run(trees[side], cfgs[side][index])
                times[side, "run_scenario"].append(run_s)
                times[side, "check_all"].append(check_s)
            turn += 1
            for side in ("other", "this2"):
                for what, mine, theirs in zip(("metrics", "reports"), outputs["this"], outputs[side]):
                    if mine != theirs:
                        print(f"{shape} scenario {index}: {side} {what} differ from this tree's")
                        return False
    print("\n".join(report(shape, cfgs["this"], times)))
    return True


def report(shape: str, cfgs: list, times: dict) -> list[str]:
    """One line per timer and pair, over every scenario of the shape; for
    `sizes` one per n, timer and pair, so that each n reads beside its own
    A/A. `times[side, timer]` holds one time per scenario per round, in
    scenario order within a round."""
    if shape == "sizes":
        groups = [(f"sizes/n{cfg.n}", slice(k, None, len(cfgs))) for k, cfg in enumerate(cfgs)]
    else:
        groups = [(shape, slice(None))]
    lines = []
    for name, part in groups:
        for timer in TIMERS:
            for side in ("other", "this2"):
                label = "other/this" if side == "other" else "this/this "
                ratio = summary(times[side, timer][part], times["this", timer][part])
                lines.append(f"{name:10} {timer:12} {label}  {ratio}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", metavar="OTHER_CHECKOUT")
    parser.add_argument("--shape", choices=SHAPES + ("all",), default="all")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    trees = {
        "other": load_tree(os.path.join(os.path.abspath(args.other), "src"), "ssurb_other"),
        "this": load_tree(os.path.join(ROOT, "src"), "ssurb_this"),
        "this2": load_tree(os.path.join(ROOT, "src"), "ssurb_this2"),
    }
    for shape in SHAPES if args.shape == "all" else (args.shape,):
        if not compare(shape, trees, args.seed, args.rounds):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
