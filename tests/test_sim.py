"""Simulator behavior: determinism, channel bounds, crash semantics, fault
draws, cycle accounting, transient-fault repairs, and the reset barrier."""

import hashlib
import json
import random

import pytest

from ssurb import checker, corruption
from ssurb import trace as trace_mod
from ssurb.config import CORRUPTION_KINDS, from_dict
from ssurb.sim import Simulation, run_scenario, run_scenarios
from ssurb.wire import Heartbeat, encode


def scenario(**kw):
    raw = {
        "n": 3,
        "buffer_unit_size": 4,
        "seed": 7,
        "max_steps": 6000,
        "broadcasts": [
            {"node": 1, "payload": "a"},
            {"node": 2, "step": 30, "payload": "b"},
        ],
    }
    raw.update(kw)
    return from_dict(raw)


def test_same_seed_identical_traces():
    first = run_scenario(scenario())
    second = run_scenario(scenario())
    assert first.metrics["trace_digest"] == second.metrics["trace_digest"]
    assert list(first.trace.events) == list(second.trace.events)


def test_different_seeds_diverge():
    a = run_scenario(scenario(seed=1))
    b = run_scenario(scenario(seed=2))
    assert a.metrics["trace_digest"] != b.metrics["trace_digest"]


def test_channel_capacity_never_exceeded():
    sim = Simulation(scenario(channel_capacity=4, seed=3))
    for _ in range(800):
        if sim.stop_reason:
            break
        sim.step_once()
        assert all(len(ch.packets) <= 4 for ch in sim.channels.values())


def test_crashed_node_takes_no_steps():
    cfg = scenario(
        fault_plan={"crashes": [{"node": 2, "step": 100}], "detection_latency": 10},
        max_steps=8000,
    )
    result = run_scenario(cfg)
    crash_seen = False
    for event in result.trace.events:
        if event["type"] == "CRASH" and event["node"] == 2:
            crash_seen = True
        if not crash_seen:
            continue
        if event["type"] == "SEND":
            assert event["src"] != 2
        elif event["type"] in ("RECV",):
            assert event["dst"] != 2
        elif event["type"] in ("DELIVER", "BROADCAST"):
            assert event["node"] != 2
    assert crash_seen


def test_all_crashed_halts_run():
    cfg = scenario(
        fault_plan={"crashes": [{"node": i, "step": 50 + i} for i in (1, 2, 3)]},
    )
    result = run_scenario(cfg)
    assert result.metrics["status"] == "all-crashed"


def test_timed_events_fire_crash_corruption_broadcast_in_config_order():
    # all due at step 50: node 3 crashes first, so its corruption and broadcast never fire
    raw = {
        "n": 3,
        "buffer_unit_size": 4,
        "seed": 5,
        "broadcasts": [{"node": 3, "step": 50, "payload": "x"}, {"node": 1, "step": 50, "payload": "y"}],
        "fault_plan": {
            "crashes": [{"node": 3, "step": 50}],
            "corruptions": [{"node": 3, "step": 50, "kind": "DUPLICATE-RECORD"},
                            {"node": 2, "step": 50, "kind": "DUPLICATE-RECORD"}],
        },
    }
    result = run_scenario(from_dict(raw))
    fired = [(e["type"], e["node"]) for e in result.trace.events
             if e["step"] == 50 and e["type"] in ("CRASH", "CORRUPT", "BROADCAST")]
    assert fired == [("CRASH", 3), ("CORRUPT", 2), ("BROADCAST", 1)]
    assert result.metrics["trace_digest"][:12] == "07c1a85ee177"
    # after the stop, the faults still due by step, a crash before a corruption at the same step
    raw["fault_plan"] = {
        "crashes": [{"node": 3, "step": 5000}],
        "corruptions": [{"node": 2, "step": 5000, "kind": "SEQ-REGRESSION"},
                        {"node": 1, "step": 4000, "kind": "WINDOW-SKEW"}],
    }
    result = run_scenario(from_dict(raw))
    assert result.metrics["status"] == "complete-delivery" and result.metrics["steps"] < 4000
    assert result.unfired == ["WINDOW-SKEW of node 1 at step 4000", "crash of node 3 at step 5000",
                              "SEQ-REGRESSION of node 2 at step 5000"]


def test_omission_and_duplication_draws_show_in_trace():
    cfg = scenario(
        fault_plan={"omission_prob": 0.3, "duplication_prob": 0.2},
        max_steps=4000,
    )
    result = run_scenario(cfg)
    kinds = {"OMIT": 0, "DUP": 0}
    for event in result.trace.events:
        if event["type"] in kinds:
            kinds[event["type"]] += 1
    assert kinds["OMIT"] > 0 and kinds["DUP"] > 0


def test_no_drop_omissions_without_fault_plan():
    result = run_scenario(scenario())
    assert not [
        e for e in result.trace.events if e["type"] == "OMIT" and e["cause"] == "drop"
    ]


def test_cycles_advance_fault_free():
    result = run_scenario(scenario(max_steps=2000, stop_mode="max-steps"))
    assert result.metrics["cycles"] >= 3


def test_cycles_advance_with_crashed_member():
    cfg = scenario(
        n=2,
        broadcasts=[{"node": 1, "payload": "solo"}],
        fault_plan={"crashes": [{"node": 2, "step": 60}], "detection_latency": 5},
        max_steps=3000,
        stop_mode="max-steps",
    )
    result = run_scenario(cfg)
    crash_step = next(e["step"] for e in result.trace.events if e["type"] == "CRASH")
    later_cycles = [
        e for e in result.trace.events if e["type"] == "CYCLE" and e["step"] > crash_step
    ]
    assert later_cycles


def test_fairness_gossip_received_each_window():
    cfg = scenario(
        fault_plan={"omission_prob": 0.3},
        max_steps=6000,
        stop_mode="max-steps",
    )
    result = run_scenario(cfg)
    events = result.trace.events
    thirds = len(events) // 3
    for lo, hi in ((0, thirds), (thirds, 2 * thirds), (2 * thirds, len(events))):
        window = events[lo:hi]
        for src in (1, 2, 3):
            for dst in (1, 2, 3):
                if src == dst:
                    continue
                received = [
                    e
                    for e in window
                    if e["type"] == "RECV" and e["kind"] == "GOSSIP"
                    and e["src"] == src and e["dst"] == dst
                ]
                assert received, f"no gossip {src}->{dst} in window {lo}:{hi}"


def test_snapshot_taken_at_step_zero_and_cycles():
    result = run_scenario(scenario())
    snaps = [e for e in result.trace.events if e["type"] == "SNAPSHOT"]
    assert snaps[0]["step"] == 0
    cycles = [e for e in result.trace.events if e["type"] == "CYCLE"]
    assert len(snaps) >= len(cycles) + 1


def test_null_payload_corruption_purged_next_iteration():
    sim = Simulation(scenario())
    for _ in range(200):
        sim.step_once()
    state = sim.nodes[2].state
    corruption.inject("NULL-PAYLOAD", state, [], sim.rng, sim.step)
    assert any(r.payload is None for r in state.buffer)
    sim._iterate_action(2)
    assert state.buffer == []  # whole buffer voided by the purge
    assert all(r.payload is not None for r in state.buffer)


def test_seq_regression_repaired_by_gossip():
    cfg = scenario(
        broadcasts=[{"node": 1, "payload": f"m{k}"} for k in range(9)],
        buffer_unit_size=12,
        stop_mode="stabilized",
        quiescence_window_cycles=3,
        max_steps=10000,
        fault_plan={"corruptions": [{"node": 1, "step": 300, "kind": "SEQ-REGRESSION"}]},
    )
    sim = Simulation(cfg)
    result = sim.run()
    assert result.metrics["status"] == "stabilized"
    assert sim.nodes[1].state.seq >= 9
    reports = checker.check_all(result.trace.header, result.trace.events)
    assert not [r.name for r in reports if r.verdict == "FAIL"]


def test_next_skew_drives_sender_seq_forward():
    cfg = scenario(
        fifo_enabled=True,
        broadcasts=[{"node": 1, "payload": "x"}],
        stop_mode="max-steps",
        max_steps=1200,
    )
    sim = Simulation(cfg)
    for _ in range(100):
        sim.step_once()
    sim.nodes[2].state.next_deliver[1] = 50  # delivery cursor skewed past the sender
    for _ in range(1000):
        sim.step_once()
    assert sim.nodes[1].state.seq >= 49


def test_channel_garbage_respects_capacity_and_decodes():
    cfg = scenario(channel_capacity=3)
    sim = Simulation(cfg)
    for _ in range(50):
        sim.step_once()
    in_channels = [sim.channels[(src, 2)] for src in (1, 2, 3)]
    corruption.inject("CHANNEL-GARBAGE", sim.nodes[2].state, in_channels, sim.rng, sim.step)
    assert all(len(ch.packets) <= 3 for ch in in_channels)
    injected = [m for ch in in_channels for m, birth in ch.packets if birth == sim.step]
    assert injected
    assert all(encode(m)["kind"] == m.kind for m in injected)


def test_global_reset_barrier_full_cycle():
    cfg = scenario(
        n=3,
        buffer_unit_size=2,
        bounded_mode=True,
        maxint=12,
        max_steps=40000,
        broadcasts=[{"node": 1, "payload": f"p{k}"} for k in range(16)],
        seed=11,
    )
    result = run_scenario(cfg)
    assert result.metrics["resets"] >= 1
    events = result.trace.events
    disable = next(e for e in events if e["type"] == "DISABLE")
    reset = next(e for e in events if e["type"] == "RESET")
    assert disable["step"] <= reset["step"]
    # post-reset snapshot shows reinitialized counters
    post = next(
        e for e in events
        if e["type"] == "SNAPSHOT" and e["step"] > reset["step"]
    )
    for node in post["nodes"]:
        assert node["seq"] <= 12 and node["reset_phase"] == "normal"
    reports = checker.check_all(result.trace.header, result.trace.events)
    assert not [r.name for r in reports if r.verdict == "FAIL"]
    assert result.metrics["status"] == "complete-delivery"


def test_barrier_survives_crash_during_disable():
    base = {
        "n": 3, "buffer_unit_size": 2, "bounded_mode": True, "maxint": 12,
        "max_steps": 40000, "seed": 11,
        "broadcasts": [{"node": 1, "payload": f"p{k}"} for k in range(16)],
    }
    probe = run_scenario(from_dict(base))
    disable_step = next(
        e["step"] for e in probe.trace.events if e["type"] == "DISABLE"
    )
    cfg = from_dict(
        dict(base, fault_plan={"crashes": [{"node": 3, "step": disable_step + 2}],
                               "detection_latency": 5})
    )
    result = run_scenario(cfg)
    reset = next(e for e in result.trace.events if e["type"] == "RESET")
    assert 3 not in reset["nodes"]
    reports = checker.check_all(result.trace.header, result.trace.events)
    assert not [r.name for r in reports if r.verdict == "FAIL"]


def _stabilized(kind, fifo=False, step=250):
    return scenario(
        fifo_enabled=fifo, stop_mode="stabilized", quiescence_window_cycles=3,
        fault_plan={"corruptions": [{"node": 2, "step": step, "kind": kind}]},
    )


def test_run_then_check_same_reports(tmp_path):
    """A run's reports from its in-memory events, whose snapshots carry the
    verdicts its `stabilized` stop rule left on them, equal those of its
    trace read back from the file and those of its events decoded into a
    list, whose snapshots are dicts and carry none: a complete-delivery run,
    a stabilized run under every corruption kind, and a member that branched
    off a trunk."""
    results = [run_scenario(scenario())]
    results += [run_scenario(_stabilized(kind, kind == "NEXT-SKEW")) for kind in CORRUPTION_KINDS]
    branched = dict(run_scenarios([_stabilized("RANDOMIZE-ALL", step=120), _stabilized("SEQ-REGRESSION")]))
    results.append(branched[1])

    def judged(records):
        return [r for r in records if getattr(r, "verdict", None) is not None]

    assert any(judged(result.trace.records) for result in results)
    for k, result in enumerate(results):
        path = tmp_path / f"trace-{k}.jsonl"
        result.trace.write(str(path))
        loaded = trace_mod.read(str(path))
        decoded = list(result.trace.events)
        assert loaded.header == result.trace.header
        assert list(loaded.events) == decoded
        assert not judged(loaded.records) and not judged(decoded)
        original = [r.to_dict() for r in checker.check_all(result.trace.header, result.trace.events)]
        reloaded = [r.to_dict() for r in checker.check_all(loaded.header, loaded.events)]
        listed = [r.to_dict() for r in checker.check_all(result.trace.header, decoded)]
        assert original == reloaded == listed, result.trace.header


def test_interval_snapshots_emitted():
    cfg = scenario(snapshot_interval=50, max_steps=400, stop_mode="max-steps")
    result = run_scenario(cfg)
    interval_snaps = [
        e for e in result.trace.events
        if e["type"] == "SNAPSHOT" and not e["boundary"]
    ]
    assert len(interval_snaps) >= 5


def _actions_at(sim, node):
    """Step `sim` to its stop. For each step that touches `node`: (step,
    what, the node's buffer length after the step), what being GROW for its
    BROADCAST or CORRUPT record, ITERATE for its iteration, or the kind of a
    packet delivered to it."""
    seen, events = [], sim.trace.events
    while sim.stop_reason is None and sim.step < sim.cfg.max_steps:
        step, start = sim.step, len(sim.trace.records)
        sim.step_once()
        held = len(sim.nodes[node].state.buffer)
        for e in (events[k] for k in range(start, len(sim.trace.records))):
            if e["type"] in ("BROADCAST", "CORRUPT") and e["node"] == node:
                seen.append((step, "GROW", held))
            elif e["type"] == "RECV" and e["dst"] == node:
                seen.append((step, e["kind"], held))
            elif e["type"] == "SEND" and e["src"] == node and e["kind"] == "HEARTBEAT":
                seen.append((step, "ITERATE", held))
                break
    return seen


@pytest.mark.parametrize(
    "raw, node, growth, peak",
    [
        pytest.param(
            {"n": 2, "buffer_unit_size": 1, "seed": 14, "max_steps": 300,
             "broadcasts": [{"node": 1, "payload": "a"}, {"node": 1, "step": 40, "payload": "b"}]},
            1, 40, {"1": 2, "2": 1}, id="broadcast-request",
        ),
        pytest.param(
            {"n": 2, "buffer_unit_size": 2, "seed": 4, "max_steps": 400,
             "broadcasts": [{"node": 1, "payload": "a"}],
             "fault_plan": {"corruptions": [{"node": 2, "step": 60, "kind": "RANDOMIZE-ALL"}]}},
            2, 60, {"1": 1, "2": 3}, id="corruption",
        ),
    ],
)
def test_peak_buffer_sees_a_grown_buffer_at_the_next_delivery(raw, node, growth, peak):
    """A broadcast request or a corruption grows the node's buffer; its next
    event is a HEARTBEAT delivery, whose sample alone sees the grown length,
    and then an iteration trims it. `peak_buffer` is pinned at the value
    of a simulator that samples after every iteration and delivery."""
    sim = Simulation(from_dict(raw))
    seen = _actions_at(sim, node)
    at = next(k for k, (step, what, _) in enumerate(seen) if what == "GROW" and step == growth)
    (_, _, grown), (_, first, _), (_, second, trimmed) = seen[at:at + 3]
    assert (first, second) == ("HEARTBEAT", "ITERATE") and trimmed < grown
    assert all(held < grown for _, what, held in seen[:at] + seen[at + 2:] if what != "GROW")
    assert sim.run().metrics["peak_buffer"] == peak and peak[str(node)] == grown


def report_digest(result):
    """SHA-256 of the whole report battery: a moved verdict, witness or
    measured value of any check changes it."""
    reports = checker.check_all(result.trace.header, result.trace.events)
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_two_node_message_cost_frozen():
    # one broadcast, two nodes, seed 42: the seeded schedule yields exactly
    # these counts; any change to transition or scheduler logic shows up here
    cfg = scenario(
        n=2, seed=42, broadcasts=[{"node": 1, "payload": "solo"}]
    )
    result = run_scenario(cfg)
    reports = {r.name: r for r in checker.check_all(result.trace.header, result.trace.events)}
    measured = reports["message-cost"].measured["per_broadcast"]["0:1:1"]
    assert measured == {"msg_sends": 17, "ack_sends": 17, "latency_cycles": 1}
    assert (
        result.metrics["trace_digest"]
        == "a3cf5adba354196d664f80fb22b48d3cad426679ef65b48547cedc909295e72c"
    )
    assert report_digest(result) == (
        "7d0dca7fd832d9a37a6d06c0255335287566165e0808b64335ad2a35a8d6b5eb"
    )


def test_benign_fault_fifo_digest_frozen():
    # drop and duplicate draws, a detected crash and the FIFO cursor lifts:
    # paths the fault-free frozen run above never takes
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "fifo_enabled": True,
            "scheduler_profile": "reorder-heavy",
            "seed": 5,
            "broadcasts": [
                {"node": 1, "payload": "a"},
                {"node": 2, "payload": "b"},
                {"node": 3, "step": 60, "payload": "c"},
            ],
            "fault_plan": {
                "omission_prob": 0.2,
                "duplication_prob": 0.1,
                "crashes": [{"node": 3, "step": 400}],
                "detection_latency": 30,
            },
        }
    )
    result = run_scenario(cfg)
    faults = [e for e in result.trace.events if e["type"] in ("OMIT", "DUP")]
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 529
    assert len(faults) == 178
    assert (
        result.metrics["trace_digest"]
        == "66943d2a5f4969b2cd669d5beb2b49caa4dee7ad8eac92aafbf606ef228de203"
    )
    assert report_digest(result) == (
        "cfcddd751d4896f7bef9d1fa1f7ed68f18037f4f99c64dd7fe19f0101d75352d"
    )


def test_corruption_stabilized_digest_frozen():
    # the stabilized stop branch: stale-packet drain, then all-consistent
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "fifo_enabled": True,
            "stop_mode": "stabilized",
            "seed": 7,
            "broadcasts": [{"node": 1, "payload": "a"}],
            "fault_plan": {
                "corruptions": [
                    {"node": 2, "step": 100, "kind": "CHANNEL-GARBAGE"},
                    {"node": 1, "step": 150, "kind": "NEXT-SKEW"},
                ]
            },
        }
    )
    result = run_scenario(cfg)
    assert result.metrics["status"] == "stabilized"
    assert result.metrics["steps"] == 461
    assert (
        result.metrics["trace_digest"]
        == "f7db09900e680f2c524bd8f259f6486130420c1991ef8ad65f36bb9de7b6e6f7"
    )
    assert report_digest(result) == (
        "0aa9e0a63bccec37b39573299632163fa5a22063f35d86b6fec4ae7ea99b9058"
    )


def test_capacity_two_benign_fault_digest_frozen():
    # capacity 2 under omission, duplication and reorder-heavy pops: every
    # kind's overflow OMIT (MSGACK ones from the replies to MSG deliveries),
    # drop OMIT and DUP, frozen byte for byte
    cfg = from_dict(
        {
            "n": 4,
            "buffer_unit_size": 2,
            "channel_capacity": 2,
            "scheduler_profile": "reorder-heavy",
            "seed": 11,
            "max_steps": 6000,
            "broadcasts": [
                {"node": 1, "payload": "a"},
                {"node": 2, "payload": "b"},
                {"node": 4, "step": 50, "payload": "c"},
            ],
            "fault_plan": {"omission_prob": 0.2, "duplication_prob": 0.2},
        }
    )
    result = run_scenario(cfg)
    faults = {}
    for e in result.trace.events:
        if e["type"] in ("OMIT", "DUP"):
            key = (e["type"], e.get("cause"))
            faults.setdefault(key, set()).add(e["kind"])
    kinds = {"MSG", "MSGACK", "GOSSIP", "HEARTBEAT"}
    assert faults == {("OMIT", "overflow"): kinds, ("OMIT", "drop"): kinds, ("DUP", None): kinds}
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 3404
    assert (result.metrics["omissions"], result.metrics["duplications"]) == (3828, 426)
    assert (
        result.metrics["trace_digest"]
        == "5824bf9af4456948890c147b1170a15b68cec00c8a812c0cd5e64cee774bb77b"
    )
    assert report_digest(result) == (
        "3d46ae2729001984b59eec9da438423e3487d99847880d07b19af6f9927af06f"
    )


def test_reorder_pop_draws_as_randrange():
    # the step loop draws a reordered pop's index itself; it must take the
    # index random.Random.randrange(k) takes and leave the generator in the
    # state randrange leaves, or every reordering trace changes
    for seed in (0, 1, 2):
        sim = Simulation(scenario(
            n=1, seed=seed, channel_capacity=80, broadcasts=[], scheduler_profile="reorder-heavy"
        ))
        sim.weights.set(0, 0)  # node 1 never iterates: every step delivers on (1, 1)
        channel = sim.channels[(1, 1)]
        reference = random.Random()
        reordered = 0
        for k in range(2, 71):
            for _ in range(40):
                channel.packets[:] = [(Heartbeat(j, 0), 0) for j in range(k)]
                sim._retick_row(1)
                reference.setstate(sim.rng.getstate())
                reference.random()  # the slot
                expected = 0
                if reference.random() < sim.reorder_prob:
                    expected = reference.randrange(k)
                    reordered += 1
                reference.random(), reference.random()  # omission, duplication
                sim.step_once()
                left = {m.sender_count for m, _ in channel.packets}
                assert set(range(k)) - left == {expected}, (seed, k)
                assert sim.rng.getstate() == reference.getstate(), (seed, k)
        assert reordered > 2000


def test_crash_starve_one_node_digest_frozen():
    # the starved node's weight 1, a crash zeroing a node's iterate and
    # inbound-channel weights, and the live x live gossip recount it forces
    cfg = from_dict(
        {
            "n": 4,
            "buffer_unit_size": 3,
            "seed": 13,
            "scheduler_profile": "starve-one-node",
            "broadcasts": [
                {"node": 1, "payload": "a"},
                {"node": 2, "payload": "b"},
                {"node": 4, "step": 90, "payload": "c"},
                {"node": 1, "step": 200, "payload": "d"},
            ],
            "fault_plan": {"crashes": [{"node": 3, "step": 250}], "detection_latency": 25},
        }
    )
    result = run_scenario(cfg)
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 1486
    assert result.metrics["cycles"] == 10
    assert (
        result.metrics["trace_digest"]
        == "2eec7e11150d58683f2a1a06e2358fa75fd9cec20e21eb0e06432ba8f47a4d72"
    )
    assert report_digest(result) == (
        "dec0e981f3e66e9d91b32e5563e732399f2a6fc5d87298eff328b9751f851f18"
    )


def test_n32_fault_free_digest_frozen():
    # 32 nodes, 1 056 scheduler slots: the benchmark's broadcast schedule,
    # two as soon as possible, then one every 60 steps from step 120
    broadcasts = [{"node": 1, "payload": "m0"}, {"node": 2, "payload": "m1"}] + [
        {"node": 1 + k, "step": 60 * k, "payload": f"m{k}"} for k in (2, 3, 4)
    ]
    cfg = from_dict({"n": 32, "seed": 0, "max_steps": 400_000, "broadcasts": broadcasts})
    result = run_scenario(cfg)
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 102_481
    assert result.metrics["cycles"] == 8
    assert (
        result.metrics["trace_digest"]
        == "e95b8c1c7714196d79fcabc26fa450a02377c8405b58b16e37614f6e95b0afac"
    )
    assert report_digest(result) == (
        "de2168ded15d56dc0036a75085fc1d34ed43f185d3f3761f866f6cda061d52e0"
    )


def test_mid_cycle_drain_stabilized_digest_frozen():
    # interval snapshots between cycle boundaries: the first one without a
    # corruption-era packet in flight is a mid-cycle one, so the marker waits
    # two cycles past it, and consistent snapshots one cycle past it are skipped
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "seed": 1,
            "max_steps": 6000,
            "stop_mode": "stabilized",
            "snapshot_interval": 7,
            "quiescence_window_cycles": 3,
            "broadcasts": [{"node": 1, "payload": "a"}, {"node": 2, "payload": "b"}],
            "fault_plan": {"corruptions": [{"node": 2, "step": 120, "kind": "CHANNEL-GARBAGE"}]},
        }
    )
    result = run_scenario(cfg)
    events = result.trace.events
    corrupt = next(e for e in events if e["type"] == "CORRUPT")
    drained = next(
        e
        for e in events
        if e["type"] == "SNAPSHOT"
        and e["step"] > corrupt["step"]
        and not checker.stale_packets_in_flight(e, corrupt["step"])
    )
    assert not drained["boundary"]
    assert result.metrics["status"] == "stabilized"
    assert result.metrics["steps"] == 507
    assert (
        result.metrics["trace_digest"]
        == "4270e39abf3bc99806d2828df9f1f3e7d25617e9ee1160d61f04507ee927ec87"
    )
    assert report_digest(result) == (
        "df8ac4190895690c37bc42e490a097a278ac296e36326f8de585bce3ac15ec95"
    )


def test_corruption_before_reset_digest_frozen():
    # bounded mode: a corruption shortly before a global reset, so the
    # stabilization-time search runs from the corruption across the reset
    # and finds its marker in the next epoch
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "bounded_mode": True,
            "maxint": 12,
            "seed": 2,
            "max_steps": 40000,
            "broadcasts": [{"node": 1, "payload": f"p{k}"} for k in range(16)],
            "fault_plan": {"corruptions": [{"node": 2, "step": 900, "kind": "WINDOW-SKEW"}]},
        }
    )
    result = run_scenario(cfg)
    order = [e["type"] for e in result.trace.events if e["type"] in ("CORRUPT", "RESET")]
    assert order == ["CORRUPT", "RESET"]
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 2094
    assert (
        result.metrics["trace_digest"]
        == "c114e827a23aab3ae1dd0081dfb6982290d11b5f141246cf9db629aa3823c7f5"
    )
    assert report_digest(result) == (
        "6395f390943a9ad9652c429d4c9e7fc859bdc7da422cc65b997f430945271579"
    )


def test_suspicion_clause_digest_frozen():
    # node 5 crashes at step 40 with its MSG (5,1) acked by nodes 3 and 5
    # only; the live nodes' round-trips to it never complete, so the first
    # cycle closes through the suspicion clause once detection fires at 65
    cfg = from_dict(
        {
            "n": 5,
            "buffer_unit_size": 2,
            "seed": 0,
            "max_steps": 20000,
            "broadcasts": [
                {"node": 5, "payload": "e"},
                {"node": 1, "payload": "a"},
                {"node": 2, "step": 150, "payload": "b"},
            ],
            "fault_plan": {
                "omission_prob": 0.2,
                "crashes": [{"node": 5, "step": 40}],
                "detection_latency": 25,
            },
        }
    )
    result = run_scenario(cfg)
    assert result.metrics["status"] == "complete-delivery"
    assert result.metrics["steps"] == 1134
    assert result.metrics["cycles"] == 9
    assert (
        result.metrics["trace_digest"]
        == "7891e6c3d429d7ae41ba1deb8dbb972818c9528eb01d5e5569a892816e46eb08"
    )
    assert report_digest(result) == (
        "6d2b3ad25343351fde2353664b52883d04a2460d49aa329d1966202da898270e"
    )


def test_detector_contracts_over_crash_run():
    cfg = scenario(
        n=3,
        max_steps=4000,
        stop_mode="max-steps",
        fault_plan={"crashes": [{"node": 3, "step": 150}], "detection_latency": 20},
    )
    result = run_scenario(cfg)
    snaps = [e for e in result.trace.events if e["type"] == "SNAPSHOT"]
    live = {1, 2}
    settled = [s for s in snaps if s["step"] > 150 + 20 + 400]
    assert settled
    for snap in settled:
        for entry in snap["nodes"]:
            if entry["crashed"]:
                continue
            trusted = set(entry["trusted"])
            # accuracy: at least one live node is always trusted;
            # liveness: eventually only live nodes are trusted
            assert trusted & live
            assert trusted <= live
    # heartbeat completeness: the crashed node's entry freezes at every
    # live observer; liveness: live pairs keep growing
    last, prev = settled[-1], settled[len(settled) // 2]
    for pos in (0, 1):
        assert last["nodes"][pos]["hb"][2] == prev["nodes"][pos]["hb"][2]
        peer_idx = 1 - pos
        assert last["nodes"][pos]["hb"][peer_idx] > prev["nodes"][pos]["hb"][peer_idx]


def test_counters_monotone_across_fault_free_run():
    result = run_scenario(scenario(stop_mode="max-steps", max_steps=2500))
    snaps = [e for e in result.trace.events if e["type"] == "SNAPSHOT"]
    for earlier, later in zip(snaps, snaps[1:]):
        for before, after in zip(earlier["nodes"], later["nodes"]):
            assert after["live_seq"] >= before["live_seq"]
            assert all(a >= b for a, b in zip(after["live_rx_obs"], before["live_rx_obs"]))
            assert all(a >= b for a, b in zip(after["live_tx_obs"], before["live_tx_obs"]))
            assert all(a >= b for a, b in zip(after["live_next"], before["live_next"]))


def test_snapshot_lines_and_digests_are_canonical(tmp_path):
    # a crashed node, CHANNEL-GARBAGE packets in flight and interval
    # snapshots: each SNAPSHOT's line and digest are assembled from its two
    # halves encoded once, and must equal what canonical gives the record
    cfg = scenario(
        n=4,
        snapshot_interval=5,
        max_steps=600,
        stop_mode="max-steps",
        fault_plan={
            "corruptions": [{"node": 2, "step": 40, "kind": "CHANNEL-GARBAGE"}],
            "crashes": [{"node": 4, "step": 20}],
            "detection_latency": 10,
        },
    )
    result = run_scenario(cfg)
    path = tmp_path / "trace.jsonl"
    result.trace.write(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    snapshots = [
        (e, lines[pos]) for pos, e in enumerate(result.trace.events) if e["type"] == "SNAPSHOT"
    ]
    for record, line in snapshots:
        assert line == trace_mod.canonical(record)
        state = trace_mod.canonical({"nodes": record["nodes"], "channels": record["channels"]})
        assert record["digest"] == hashlib.sha256(state.encode()).hexdigest()
    assert any(not record["boundary"] for record, _ in snapshots)
    assert any(node["crashed"] for record, _ in snapshots for node in record["nodes"])
    assert any(
        packet["birth_step"] == 40
        for record, _ in snapshots
        if record["step"] > 40
        for channel in record["channels"]
        for packet in channel["packets"]
    )


def test_step_once_to_the_end_gives_the_run_that_run_gives(tmp_path):
    # DUPs, overflow OMITs at capacity 4, a crash detected 10 steps later, a
    # corruption, a bounded-mode global reset and interval snapshots
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "bounded_mode": True,
            "maxint": 8,
            "seed": 2,
            "channel_capacity": 4,
            "snapshot_interval": 100,
            "max_steps": 8000,
            "broadcasts": [{"node": 1 + k % 3, "payload": f"p{k}"} for k in range(12)],
            "fault_plan": {
                "duplication_prob": 0.1,
                "crashes": [{"node": 3, "step": 400}],
                "detection_latency": 10,
                "corruptions": [{"node": 2, "step": 150, "kind": "WINDOW-SKEW"}],
            },
        }
    )
    stepped = Simulation(cfg)
    while stepped.step < cfg.max_steps and stepped.stop_reason is None:
        stepped.step_once()
    by_steps, by_run = stepped.run(), run_scenario(cfg)
    assert by_steps.metrics == by_run.metrics
    by_steps.trace.write(str(tmp_path / "steps.jsonl"))
    by_run.trace.write(str(tmp_path / "run.jsonl"))
    assert (tmp_path / "steps.jsonl").read_bytes() == (tmp_path / "run.jsonl").read_bytes()
    kinds = {(e["type"], e.get("cause"), e.get("boundary")) for e in by_run.trace.events}
    assert {
        ("DUP", None, None),
        ("OMIT", "overflow", None),
        ("CRASH", None, None),
        ("CORRUPT", None, None),
        ("RESET", None, None),
        ("SNAPSHOT", None, False),
    } <= kinds
    assert by_run.metrics["status"] == "complete-delivery"
