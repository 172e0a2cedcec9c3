"""Acceptance suite.

Ten criteria, each a test that prints one pass/fail line. Shared run
batches are computed once per session:

 1. fault-free correctness       n in {2,3,5} x 50 seeds, zero exemptions
 2. benign-fault correctness     omission 0.2, duplication 0.1, reorder-heavy,
                                 one crash (plus a crash-after-partial-delivery
                                 scenario for the uniformity clause)
 3. quiescence                   zero MSG/MSGACK traffic in the final window,
                                 gossip and heartbeats still flowing
 4. buffer bound                 per-sender <= B and total <= B*n at every
                                 post-stabilization snapshot
 5. stabilization scaling        B in {1,2,4,8} x every corruption kind x 20
                                 seeds; medians bounded by a linear fit
 6. message-cost scaling         fault-free n in {2..8}; msgs per broadcast
                                 over n^2 stays bounded
 7. delivery latency             every delivery within 3 cycles of broadcast
 8. convergence closure          consistency never regresses absent corruption
 9. bounded mode                 MAXINT=64 run resets and recovers
10. determinism                  identical config+seed => identical digests
                                 across runs, identical summaries across sweeps
"""

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from ssurb import checker, cli
from ssurb.config import from_dict
from ssurb.sim import run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import complexity  # noqa: E402  (scripts/complexity.py)

SUITE_NS = (2, 3, 5)
SUITE_SEEDS = range(50)


def criterion(num, name, ok, detail=""):
    print(f"[acceptance {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num} {name}: {detail}"


def schedule(n, count=5):
    entries = []
    for k in range(count):
        node = 1 + (k % n)
        entry = {"node": node, "payload": f"m{k}"}
        if k >= 2:
            entry["step"] = 60 * k
        entries.append(entry)
    return entries


@pytest.fixture(scope="session")
def pool():
    """Up to two worker processes for the session's run batches; spawned, so
    that no worker inherits the test process's state."""
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as executor:
        yield executor


@pytest.fixture(scope="session")
def suite1(pool):
    return complexity.run_all(
        [
            {
                "n": n,
                "buffer_unit_size": 4,
                "seed": seed,
                "max_steps": 10_000,
                "fifo_enabled": seed % 2 == 1,
                "broadcasts": schedule(n),
            }
            for n in SUITE_NS
            for seed in SUITE_SEEDS
        ],
        pool.map,
    )


@pytest.fixture(scope="session")
def suite2(pool):
    return complexity.run_all(
        [
            {
                "n": n,
                "buffer_unit_size": 4,
                "seed": seed,
                "max_steps": 20_000,
                "fifo_enabled": seed % 2 == 1,
                "scheduler_profile": "reorder-heavy",
                "broadcasts": schedule(n),
                "fault_plan": {
                    "omission_prob": 0.2,
                    "duplication_prob": 0.1,
                    "crashes": [{"node": n, "step": 250}],
                    "detection_latency": 30,
                },
            }
            for n in SUITE_NS
            for seed in SUITE_SEEDS
        ],
        pool.map,
    )


@pytest.fixture(scope="session")
def corruption_sweep(pool):
    return complexity.run_all(complexity.stabilization_raws(), pool.map)


@pytest.fixture(scope="session")
def cost_sweep(pool):
    return complexity.run_all(complexity.cost_raws(), pool.map)


def all_verdicts(runs, names):
    bad = []
    for run in runs:
        for name in names:
            report = run["reports"][name]
            if report.verdict != "PASS":
                bad.append((run["config"]["n"], run["config"]["seed"], name,
                            report.verdict, report.witness))
    return bad


def test_criterion_1_fault_free_correctness(suite1):
    names = ["validity", "integrity", "termination"]
    bad = all_verdicts(suite1, names)
    for run in suite1:
        if run["config"]["fifo_enabled"]:
            fifo = run["reports"]["fifo-order"]
            if fifo.verdict != "PASS":
                bad.append((run["config"]["n"], run["config"]["seed"], "fifo-order",
                            fifo.verdict, fifo.witness))
        exemptions = run["reports"]["validity"].measured["exemptions"]
        if exemptions:
            bad.append((run["config"]["n"], run["config"]["seed"], "exemptions", exemptions, None))
    criterion(1, "fault-free correctness", not bad,
              f"{len(suite1)} runs; violations: {bad[:3]}")


def test_criterion_2_benign_fault_correctness(suite2):
    names = ["validity", "integrity", "termination"]
    bad = all_verdicts(suite2, names)
    for run in suite2:
        if run["config"]["fifo_enabled"]:
            fifo = run["reports"]["fifo-order"]
            if fifo.verdict != "PASS":
                bad.append((run["config"]["n"], run["config"]["seed"], "fifo-order",
                            fifo.verdict, fifo.witness))
    criterion(2, "benign-fault correctness", not bad,
              f"{len(suite2)} runs; violations: {bad[:3]}")


def test_criterion_2b_crash_after_partial_delivery():
    base = {
        "n": 3,
        "buffer_unit_size": 4,
        "seed": 17,
        "max_steps": 20_000,
        "broadcasts": [{"node": 1, "payload": "victim"}],
        "fault_plan": {"detection_latency": 20},
    }
    probe = run_scenario(from_dict(base))
    first_foreign_delivery = next(
        e["step"]
        for e in probe.trace.events
        if e["type"] == "DELIVER" and e["mid"] == [1, 1] and e["node"] != 1
    )
    crashed = dict(base)
    crashed["fault_plan"] = {
        "crashes": [{"node": 1, "step": first_foreign_delivery + 1}],
        "detection_latency": 20,
    }
    # a receiver delivered before the broadcaster crashed; both survivors must deliver
    result = run_scenario(from_dict(crashed))
    reports = {r.name: r for r in checker.check_all(result.trace.header, result.trace.events)}
    deliveries = {
        e["node"] for e in result.trace.events
        if e["type"] == "DELIVER" and e["mid"] == [1, 1]
    }
    term = reports["termination"]
    ok = {2, 3}.issubset(deliveries) and term.verdict == "PASS"
    criterion(2, "crash-after-partial-delivery uniformity", ok,
              f"deliverers={sorted(deliveries)} termination={term.verdict}")


def test_criterion_3_quiescence(suite1, suite2):
    bad = []
    for run in suite1 + suite2:
        q = run["reports"]["quiescence"]
        if q.verdict != "PASS":
            bad.append((run["config"]["n"], run["config"]["seed"], q.verdict, q.witness))
            continue
        if q.measured["msg_events_in_window"] != 0:
            bad.append((run["config"]["n"], run["config"]["seed"], "msg traffic", q.measured))
        if q.measured["gossip_events_in_window"] <= 0 or q.measured["heartbeat_events_in_window"] <= 0:
            bad.append((run["config"]["n"], run["config"]["seed"], "control silence", q.measured))
    criterion(3, "quiescence with perpetual gossip", not bad,
              f"{len(suite1) + len(suite2)} runs; violations: {bad[:3]}")


def test_criterion_4_buffer_bound(suite1, suite2, corruption_sweep):
    runs = suite1 + suite2 + corruption_sweep
    bad = [
        (run["config"]["n"], run["config"]["seed"], run["reports"]["buffer-bounds"].witness)
        for run in runs
        if run["reports"]["buffer-bounds"].verdict != "PASS"
    ]
    criterion(4, "buffer bound B per sender / B*n total", not bad,
              f"{len(runs)} runs; violations: {bad[:3]}")


def test_criterion_5_stabilization_scaling(corruption_sweep):
    table = complexity.stabilization_table(corruption_sweep)
    slope, intercept, checks = complexity.trend(table)
    unstabilized = [
        (run["config"]["buffer_unit_size"], run["config"]["seed"],
         run["reports"]["stabilization-time"].witness)
        for run in corruption_sweep
        if complexity.stabilization_cycles(run) is None
    ]
    ok = not unstabilized and all(fits for *_, fits in checks)
    medians = {b: row["median_cycles"] for b, row in table.items()}
    criterion(5, "stabilization O(B) trend", ok,
              f"medians={medians} fit=a*B+b with a={slope}, b={intercept}; "
              f"unstabilized={unstabilized[:3]}")


def test_criterion_6_message_cost_scaling(cost_sweep):
    table = complexity.cost_table(cost_sweep)
    worst = {n: row["max_msgs_per_broadcast"] for n, row in table.items()}
    ok = worst[8] / (8 * 8) <= 2 * (worst[4] / (4 * 4))
    criterion(6, "message cost O(n^2) trend", ok,
              "ratios=" + json.dumps({n: row["ratio_over_n2"] for n, row in sorted(table.items())}))


def test_criterion_7_delivery_latency(suite1, cost_sweep):
    latencies = [run["reports"]["message-cost"].measured["max_latency_cycles"] for run in suite1]
    latencies += [row["max_latency_cycles"] for row in complexity.cost_table(cost_sweep).values()]
    worst = max(latencies)
    criterion(7, "delivery within 3 cycles", worst <= 3, f"max observed latency={worst}")


def test_criterion_8_convergence_closure(suite1, suite2, corruption_sweep, cost_sweep):
    runs = suite1 + suite2 + corruption_sweep + cost_sweep
    bad = [
        (run["config"].get("n"), run["config"].get("seed"),
         run["reports"]["consistency-closure"].witness)
        for run in runs
        if run["reports"]["consistency-closure"].verdict != "PASS"
    ]
    criterion(8, "consistency closure", not bad, f"{len(runs)} runs; violations: {bad[:3]}")


def test_criterion_9_bounded_mode_reset():
    [run] = complexity.run_checked(
        [
            {
                "n": 3,
                "buffer_unit_size": 2,
                "bounded_mode": True,
                "maxint": 64,
                "seed": 23,
                "max_steps": 120_000,
                "broadcasts": [{"node": 1, "payload": f"p{k}"} for k in range(80)]
                + [{"node": 2, "payload": f"q{k}"} for k in range(6)],
            }
        ]
    )
    resets = run["metrics"]["resets"]
    post_reset_broadcasts = [
        key
        for key in run["reports"]["message-cost"].measured["per_broadcast"]
        if not key.startswith("0:")
    ]
    names = ["validity", "integrity", "termination", "quiescence"]
    verdicts = {name: run["reports"][name].verdict for name in names}
    ok = (
        resets >= 1
        and len(post_reset_broadcasts) > 0
        and all(v == "PASS" for v in verdicts.values())
    )
    criterion(9, "bounded counters with global reset", ok,
              f"resets={resets} post-reset broadcasts={len(post_reset_broadcasts)} "
              f"verdicts={verdicts}")


def test_criterion_10_determinism(tmp_path):
    raw = {
        "n": 4,
        "buffer_unit_size": 3,
        "seed": 31,
        "max_steps": 10_000,
        "broadcasts": schedule(4),
        "fault_plan": {"omission_prob": 0.15, "duplication_prob": 0.1, "reorder_prob": 0.3},
    }
    digests = {run_scenario(from_dict(raw)).metrics["trace_digest"] for _ in range(2)}
    base = from_dict(dict(raw, max_steps=6_000))
    grid = {"buffer_unit_size": [2, 4]}
    first = cli.sweep(base, grid, seeds=[0, 1, 2])
    second = cli.sweep(base, grid, seeds=[0, 1, 2])
    ok = len(digests) == 1 and first == second
    criterion(10, "determinism across runs and sweeps", ok,
              f"run digests unique={len(digests)} sweep match={first == second}")
