"""Branched runs: `Simulation.branch` and `run_scenarios` give the runs that
standalone `run_scenario` calls give, and a branch shares no mutable state
with the run it came from."""

from collections import deque
from dataclasses import replace

import pytest

from ssurb import checker
from ssurb.config import CORRUPTION_KINDS, from_dict
from ssurb.detectors import HeartbeatState, ThetaState
from ssurb.node import BufferRecord, NodeState
from ssurb.sim import Channel, SimNode, Simulation, WeightTree, run_scenario, run_scenarios
from ssurb.trace import Trace, TraceEvents


def raw(**kw):
    base = {
        "n": 3,
        "buffer_unit_size": 2,
        "seed": 3,
        "max_steps": 4000,
        "broadcasts": [{"node": 1 + k % 3, "payload": f"m{k}", "step": 40 * k} for k in range(4)],
    }
    base.update(kw)
    return base


def corrupt(kind, step=120, **kw):
    return from_dict(
        raw(
            stop_mode="stabilized",
            quiescence_window_cycles=3,
            fifo_enabled=kind == "NEXT-SKEW",
            fault_plan={"corruptions": [{"node": 2, "step": step, "kind": kind}]},
            **kw,
        )
    )


def fault_free(cfg):
    return replace(cfg, fault_plan=replace(cfg.fault_plan, crashes=[], corruptions=[]))


def branched(cfg, at):
    trunk = Simulation(fault_free(cfg))
    while trunk.step < at and trunk.stop_reason is None:
        trunk.step_once()
    return trunk.branch(cfg).run()


def outcome(result, path):
    result.trace.write(str(path))
    reports = [r.to_dict() for r in checker.check_all(result.trace.header, result.trace.events)]
    return result.metrics, result.unfired, path.read_bytes(), reports


def assert_same(result, cfg, tmp_path):
    assert outcome(result, tmp_path / "branched.jsonl") == outcome(
        run_scenario(cfg), tmp_path / "standalone.jsonl"
    )


def test_every_corruption_kind_branched_at_its_fault_equals_standalone(tmp_path):
    cfgs = [corrupt(kind) for kind in CORRUPTION_KINDS]
    seen = set()
    for index, result in run_scenarios(cfgs):
        seen.add(index)
        assert_same(result, cfgs[index], tmp_path)
        assert result.metrics["status"] == "stabilized"
    assert seen == set(range(len(cfgs)))


CASES = {
    # a crash detected 20 steps later, complete-delivery
    "crash": raw(fault_plan={"crashes": [{"node": 3, "step": 150}], "detection_latency": 20}),
    "benign": raw(
        scheduler_profile="reorder-heavy",
        fault_plan={
            "omission_prob": 0.2,
            "duplication_prob": 0.1,
            "corruptions": [{"node": 1, "step": 90, "kind": "WINDOW-SKEW"}],
        },
    ),
    "overflow": raw(
        n=4,
        channel_capacity=2,
        fault_plan={"corruptions": [{"node": 2, "step": 100, "kind": "CHANNEL-GARBAGE"}]},
    ),
    "interval-max-steps": raw(
        snapshot_interval=25,
        stop_mode="max-steps",
        max_steps=600,
        fault_plan={"corruptions": [{"node": 3, "step": 200, "kind": "SEQ-REGRESSION"}]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("where", ["zero", "mid", "fault"])
def test_branch_points_equal_standalone(name, where, tmp_path):
    cfg = from_dict(CASES[name])
    plan = cfg.fault_plan
    first = min([step for _, step in plan.crashes] + [step for _, step, _ in plan.corruptions])
    at = {"zero": 0, "mid": first // 2, "fault": first}[where]
    result = branched(cfg, at)
    assert_same(result, cfg, tmp_path)
    kinds = {(e["type"], e.get("cause")) for e in result.trace.events}
    assert ("CRASH", None) in kinds or ("CORRUPT", None) in kinds
    if name == "overflow":
        assert ("OMIT", "overflow") in kinds


def test_branch_after_a_bounded_mode_reset(tmp_path):
    base = raw(
        bounded_mode=True,
        maxint=12,
        seed=11,
        max_steps=8000,
        broadcasts=[{"node": 1, "payload": f"p{k}"} for k in range(16)],
    )
    trunk = Simulation(from_dict(base))
    while not trunk.counts["resets"]:
        trunk.step_once()
    fault = {"node": 2, "step": trunk.step + 5, "kind": "RANDOMIZE-ALL"}
    cfg = from_dict(dict(base, fault_plan={"corruptions": [fault]}))
    result = trunk.branch(cfg).run()  # branched mid-prefix, after the reset
    assert_same(result, cfg, tmp_path)
    types = [e["type"] for e in result.trace.events]
    assert types.index("RESET") < types.index("CORRUPT")


def test_trunk_that_stops_first_ends_the_member_without_its_fault(tmp_path):
    cfgs = [corrupt("RANDOMIZE-ALL", step=3500), corrupt("NULL-PAYLOAD", step=3900)]
    for index, result in run_scenarios(cfgs):
        assert_same(result, cfgs[index], tmp_path)
        assert result.metrics["status"] == "stabilized" and len(result.unfired) == 1
        assert all(e["type"] != "CORRUPT" for e in result.trace.events)


def test_branch_rejects_other_configs_and_past_faults():
    cfg = corrupt("WINDOW-SKEW")
    trunk = Simulation(fault_free(cfg))
    for _ in range(130):
        trunk.step_once()
    with pytest.raises(ValueError, match="^seed:"):
        trunk.branch(replace(cfg, seed=4))
    with pytest.raises(ValueError, match="^fault_plan.omission_prob:"):
        trunk.branch(replace(cfg, fault_plan=replace(cfg.fault_plan, omission_prob=0.1)))
    with pytest.raises(ValueError, match="^fault_plan.corruptions: a fault due at step 120"):
        trunk.branch(cfg)
    with pytest.raises(ValueError, match="^fault_plan.crashes:"):
        trunk.branch(replace(cfg, fault_plan=replace(cfg.fault_plan, crashes=[(3, 5)])))


# values never mutated after construction, which a branch shares, by name;
# `records[]` are the trace's events as appended
SHARED = {"cfg", "live", "schedule", "send_lines", "recv_lines", "dup_lines", "drop_lines",
          "overflow_lines", "paths", "descent", "observed", "peers", "records[]"}
WALKED = (Simulation, SimNode, NodeState, BufferRecord, HeartbeatState, ThetaState, Channel,
          WeightTree, Trace, TraceEvents)
IMMUTABLE = (int, float, str, bytes, bool, type(None), frozenset)


def assert_equal_unshared(a, b, name="sim"):
    """`b` holds what `a` holds, and no mutable object of `a` outside SHARED."""
    if isinstance(a, IMMUTABLE):
        assert a == b, name
        return
    if name in SHARED:
        return
    assert type(a) is type(b), name
    if not isinstance(a, tuple):  # a tuple may be shared; what it holds is walked
        assert a is not b, f"{name} is shared"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), name
        for key in a:
            assert_equal_unshared(a[key], b[key], f"{name}[]")
    elif isinstance(a, (list, tuple, deque)):
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            assert_equal_unshared(x, y, f"{name}[]")
    elif isinstance(a, set):
        assert a == b, name
    elif isinstance(a, WALKED):
        fields = list(vars(a)) if hasattr(a, "__dict__") else list(type(a).__slots__)
        for field in fields:
            assert_equal_unshared(getattr(a, field), getattr(b, field), field)


def test_a_branch_shares_no_mutable_state_with_its_trunk():
    trunk = Simulation(from_dict(raw()))
    for _ in range(80):  # with records buffered and packets in flight
        trunk.step_once()
    twin = trunk.branch(trunk.cfg)
    assert any(node.state.buffer for node in twin.nodes.values())
    assert any(channel.packets for channel in twin.channel_slots)
    assert twin.rng.getstate() == trunk.rng.getstate()
    assert twin.trace.digest() == trunk.trace.digest()
    assert_equal_unshared(trunk, twin)
