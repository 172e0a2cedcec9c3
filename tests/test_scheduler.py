"""The incremental scheduler and cycle accounting: the Fenwick-tree draw
picks what `random.choices` over the explicit weighted action list picks,
and the weights, the missing-gossip count and the unsatisfied-node count
kept up to date step by step equal the rule recomputed from scratch."""

import random

from ssurb.config import from_dict
from ssurb.sim import Simulation, WeightTree


def _choices_pick(rng, weights):
    # the action list the scheduler replaced: non-zero slots in slot order
    actions = [slot for slot, w in enumerate(weights) if w]
    return rng.choices(actions, weights=[weights[s] for s in actions], k=1)[0]


def _random_weight(gen, slot, n):
    if gen.random() < 0.5:
        return 0
    if slot < n:
        return gen.choice((1, 8))
    return 4 + 4 * gen.randint(1, 16)


def test_pick_matches_random_choices_in_lockstep():
    gen = random.Random(99)
    for trial in range(60):
        n = gen.randint(1, 32)
        size = n + n * n
        tree = WeightTree(size)
        weights = [0] * size
        for slot in range(size):
            weights[slot] = _random_weight(gen, slot, n)
            tree.set(slot, weights[slot])
        if not any(weights):
            weights[gen.randrange(size)] = 8
            tree.set(weights.index(8), 8)
        old_rng, new_rng = random.Random(trial), random.Random(trial)
        for _ in range(150):
            assert tree.pick(new_rng) == _choices_pick(old_rng, weights)
            assert tree.total == sum(weights)
            for _ in range(gen.randint(0, 3)):
                slot = gen.randrange(size)
                weights[slot] = _random_weight(gen, slot, n)
                tree.set(slot, weights[slot])
            if not any(weights):
                weights[0] = 1
                tree.set(0, 1)


class _TopOfRange(random.Random):
    """random() at 1.0 puts the draw at the total: the clamp's case."""

    def random(self):
        return 1.0


def test_pick_clamps_a_draw_at_the_total_to_the_last_nonzero_slot():
    weights = [8, 0, 1, 12, 0, 0, 8, 0, 0]
    tree = WeightTree(len(weights))
    for slot, w in enumerate(weights):
        tree.set(slot, w)
    assert tree.pick(_TopOfRange()) == 6
    assert _choices_pick(_TopOfRange(), weights) == 6


def _expected_weights(sim):
    n, cfg = sim.cfg.n, sim.cfg
    weights = []
    for i in range(1, n + 1):
        if sim.nodes[i].crashed:
            weights.append(0)
        elif i == 1 and cfg.scheduler_profile == "starve-one-node":
            weights.append(1)
        else:
            weights.append(8)
    for key in sorted(sim.channels):
        channel = sim.channels[key]
        live_dst = not sim.nodes[key[1]].crashed
        weights.append(4 + 4 * len(channel) if channel.packets and live_dst else 0)
    return weights


def _fenwick_consistent(tree):
    inner = tree._tree
    return all(
        inner[i] == sum(tree.weights[i - (i & -i):i]) for i in range(1, tree.size + 1)
    )


def _step_checking_the_rule(sim):
    """Run to the end, checking after every step that the incrementally kept
    weights, Fenwick tree and cycle counters equal their from-scratch values."""
    while sim.step < sim.cfg.max_steps and sim.stop_reason is None:
        sim.step_once()
        assert sim.weights.weights == _expected_weights(sim)
        assert sim.weights.total == sum(sim.weights.weights)
        assert _fenwick_consistent(sim.weights)
        live = [i for i in sim.nodes if not sim.nodes[i].crashed]
        assert sim.live == live
        recount = sum(
            1 for i in live for k in live if i != k and k not in sim.ct_gossip_seen[i]
        )
        assert sim.missing_gossip == recount
        unsatisfied = [i for i in live if i not in sim.ct_satisfied]
        assert sim.unsatisfied == len(unsatisfied)
        # a round-trip set that emptied satisfied its node on the spot
        assert all(all(sim.ct_pending[i]) for i in unsatisfied)


def test_weights_and_missing_gossip_track_the_rule_every_step():
    cfg = from_dict(
        {
            "n": 4,
            "buffer_unit_size": 2,
            "bounded_mode": True,
            "maxint": 12,
            "seed": 3,
            "scheduler_profile": "starve-one-node",
            "max_steps": 20000,
            "broadcasts": [{"node": 2, "payload": f"p{k}"} for k in range(16)],
            "fault_plan": {
                "crashes": [{"node": 4, "step": 300}],
                "detection_latency": 10,
                "corruptions": [{"node": 3, "step": 150, "kind": "CHANNEL-GARBAGE"}],
            },
        }
    )
    sim = Simulation(cfg)
    _step_checking_the_rule(sim)
    assert _fenwick_consistent(sim.weights)
    seen = {e["type"] for e in sim.trace.events}
    assert {"CRASH", "CORRUPT", "RESET"} <= seen
    assert sim.stop_reason == "complete-delivery"


class _PopWatch:
    """Counts deliveries popped from behind the head of a queue."""

    def __init__(self, sim):
        self.middle_pops = 0
        deliver = sim._deliver_action

        def watched(channel):
            head = channel.packets[0]
            deliver(channel)
            if channel.packets and channel.packets[0] is head:
                self.middle_pops += 1

        sim._deliver_action = watched


def test_fused_send_and_deliver_paths_keep_the_rule_every_step():
    # DUP pushes, overflow OMITs at capacity 2, reorder-heavy pops from the
    # middle of a queue, drop OMITs, CHANNEL-GARBAGE and a crash
    cfg = from_dict(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "channel_capacity": 2,
            "seed": 4,
            "scheduler_profile": "reorder-heavy",
            "max_steps": 6000,
            "broadcasts": [{"node": 1 + k % 3, "payload": f"m{k}"} for k in range(5)],
            "fault_plan": {
                "omission_prob": 0.2,
                "duplication_prob": 0.2,
                "crashes": [{"node": 3, "step": 700}],
                "detection_latency": 15,
                "corruptions": [{"node": 2, "step": 120, "kind": "CHANNEL-GARBAGE"}],
            },
        }
    )
    sim = Simulation(cfg)
    watch = _PopWatch(sim)
    _step_checking_the_rule(sim)
    events = sim.trace.events
    assert any(e["type"] == "DUP" for e in events)
    assert {e["cause"] for e in events if e["type"] == "OMIT"} == {"drop", "overflow"}
    assert {"CRASH", "CORRUPT"} <= {e["type"] for e in events}
    assert watch.middle_pops > 0


def test_an_iteration_moves_each_channel_weight_once(monkeypatch):
    # an iteration's heartbeats, MSGs and gossip form one batch: each
    # destination channel's weight moves once, not once per packet
    cfg = from_dict({"n": 4, "seed": 0})
    sim = Simulation(cfg)
    sim._request_broadcast(1, "p")
    slots = []
    add = WeightTree.add

    def counted(tree, slot, delta):
        slots.append(slot)
        add(tree, slot, delta)

    monkeypatch.setattr(WeightTree, "add", counted)
    before = len(sim.trace.records)
    sim._iterate_action(1)
    sends = [e for e in sim.trace.events[before:] if e["type"] == "SEND"]
    channels = {(e["src"], e["dst"]) for e in sends}
    assert {e["kind"] for e in sends} == {"MSG", "GOSSIP", "HEARTBEAT"}
    assert len(sends) > len(channels)
    assert len(slots) <= len(channels)
    assert sim.weights.weights == _expected_weights(sim)
    assert _fenwick_consistent(sim.weights)


def test_overflow_omits_follow_their_send_at_capacity_one():
    cfg = from_dict(
        {
            "n": 3,
            "channel_capacity": 1,
            "seed": 5,
            "scheduler_profile": "reorder-heavy",
            "max_steps": 3000,
            "broadcasts": [{"node": 1 + k % 3, "payload": f"m{k}"} for k in range(4)],
        }
    )
    sim = Simulation(cfg)
    _step_checking_the_rule(sim)
    events = list(sim.trace.events)
    overflows = [pos for pos, e in enumerate(events) if e.get("cause") == "overflow"]
    assert len(overflows) > 100
    for pos in overflows:
        omit, send = dict(events[pos]), events[pos - 1]
        assert omit.pop("type") == "OMIT" and omit.pop("cause") == "overflow"
        assert send == {"type": "SEND", **omit}
