"""The incremental scheduler and cycle accounting: the step loop's
Fenwick-tree draw picks what `random.choices` over the explicit weighted
action list picks, and the weights, the missing-gossip count and the
unsatisfied-node count kept up to date step by step equal the rule
recomputed from scratch."""

import random
from collections import Counter

from ssurb.config import from_dict
from ssurb.sim import Simulation


def _choices_pick(rng, weights):
    # the action list the scheduler replaced: non-zero slots in slot order
    actions = [slot for slot, w in enumerate(weights) if w]
    return rng.choices(actions, weights=[weights[s] for s in actions], k=1)[0]


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
        weights.append(4 + 4 * len(channel.packets) if channel.packets and live_dst else 0)
    return weights


def _fenwick_consistent(tree):
    inner = tree.tree
    return all(
        inner[i] == sum(tree.weights[i - (i & -i):i]) for i in range(1, tree.size + 1)
    )


def _check_the_rule(sim):
    """The incrementally kept weights, Fenwick tree and cycle counters equal
    their from-scratch values; returns the weights."""
    weights = _expected_weights(sim)
    assert sim.weights.weights == weights
    assert sim.weights.total == sum(weights)
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
    return weights


def _drawn_slot(sim, first):
    """The slot a step drew, read off the step's first record: an iteration
    (n >= 2) starts with a HEARTBEAT SEND from its node, a delivery with the
    RECV, drop OMIT or DUP of its channel's packet."""
    n = sim.cfg.n
    if first["type"] == "SEND":
        return first["src"] - 1
    assert first["type"] in ("RECV", "OMIT", "DUP")
    return n + (first["src"] - 1) * n + (first["dst"] - 1)


def _step_checking_the_rule(sim):
    """Run to the end through `step_once`. Before every step the rule holds,
    and a step with no scheduled fault or broadcast due draws the slot
    `random.choices` draws over the weights from a copy of the rng. Returns
    the number of deliveries that popped a packet from behind the head of
    its queue."""
    assert sim.cfg.n >= 2
    middle_pops = draws = 0
    while sim.step < sim.cfg.max_steps and sim.stop_reason is None:
        weights = _check_the_rule(sim)
        expected = None
        if sim.step < sim.next_due:
            twin = random.Random()
            twin.setstate(sim.rng.getstate())
            expected = _choices_pick(twin, weights)
        heads = [channel.packets[:2] for channel in sim.channel_slots]
        before = len(sim.trace.records)
        sim.step_once()
        if expected is None:
            continue
        slot = _drawn_slot(sim, sim.trace.events[before])
        assert slot == expected
        draws += 1
        if slot >= sim.cfg.n:
            # the head stays the head only when a packet behind it was popped
            head = heads[slot - sim.cfg.n]
            packets = sim.channel_slots[slot - sim.cfg.n].packets
            if len(head) == 2 and packets and packets[0] is head[0]:
                middle_pops += 1
    _check_the_rule(sim)
    assert draws > sim.step // 2
    return middle_pops


def test_pick_matches_random_choices_in_lockstep():
    # tree sizes n + n^2 from 6 to 90; the starve-one-node profile weighs
    # node 1 at 1, reorder-heavy and omissions consume further draws
    profiles = ("uniform", "starve-one-node", "reorder-heavy")
    for n in range(2, 10):
        cfg = from_dict(
            {
                "n": n,
                "seed": 40 + n,
                "stop_mode": "max-steps",
                "max_steps": 400,
                "scheduler_profile": profiles[n % 3],
                "broadcasts": [{"node": 1 + k % n, "payload": f"m{k}"} for k in range(3)],
                "fault_plan": {"omission_prob": 0.1 * (n % 2)},
            }
        )
        _step_checking_the_rule(Simulation(cfg))


class _TopOfRange(random.Random):
    """random() at 1.0 puts the draw at the total: the clamp's case."""

    def random(self):
        return 1.0


def test_pick_clamps_a_draw_at_the_total_to_the_last_nonzero_slot():
    weights = [8, 0, 1, 12, 0, 0, 8, 0, 0]
    assert _choices_pick(_TopOfRange(), weights) == 6
    sim = Simulation(from_dict({"n": 3, "seed": 2}))
    for _ in range(12):
        sim.step_once()
    weights = _expected_weights(sim)
    last = max(slot for slot, w in enumerate(weights) if w)
    assert last >= sim.cfg.n  # a channel, whose delivery the clamp must reach
    assert _choices_pick(_TopOfRange(), weights) == last
    sim.rng = _TopOfRange()
    before = len(sim.trace.records)
    sim.step_once()
    assert _drawn_slot(sim, sim.trace.events[before]) == last


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
    seen = {e["type"] for e in sim.trace.events}
    assert {"CRASH", "CORRUPT", "RESET"} <= seen
    assert sim.stop_reason == "complete-delivery"


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
    middle_pops = _step_checking_the_rule(sim)
    events = sim.trace.events
    assert any(e["type"] == "DUP" for e in events)
    assert {e["cause"] for e in events if e["type"] == "OMIT"} == {"drop", "overflow"}
    assert {"CRASH", "CORRUPT"} <= {e["type"] for e in events}
    assert middle_pops > 0


class _CountedWrites(list):
    """A Fenwick tree's node list that counts the writes to each node."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.writes = Counter()

    def __setitem__(self, i, value):
        self.writes[i] += 1
        super().__setitem__(i, value)


def test_an_iteration_moves_each_channel_weight_once():
    # an iteration's heartbeats, MSGs and gossip form one batch: each
    # destination channel's Fenwick path is written once, not once per packet
    cfg = from_dict({"n": 4, "seed": 0})
    sim = Simulation(cfg)
    sim._request_broadcast(1, "p")
    tree = sim.weights.tree = _CountedWrites(sim.weights.tree)
    before = len(sim.trace.records)
    sim._iterate_action(1)
    sends = [e for e in sim.trace.events[before:] if e["type"] == "SEND"]
    channels = {(e["src"], e["dst"]) for e in sends}
    assert {e["kind"] for e in sends} == {"MSG", "GOSSIP", "HEARTBEAT"}
    assert len(sends) > len(channels)
    paths = sim.weights.paths
    assert tree.writes == Counter(i for key in channels for i in paths[sim.channels[key].slot])
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
