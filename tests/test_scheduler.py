"""The incremental scheduler and cycle accounting: the step loop's
ticket-list draw picks what `random.choices` over the explicit weighted
action list picks, and the weights, their ticket lists, the missing-gossip
count and the unsatisfied-node count kept up to date step by step equal the
rule recomputed from scratch."""

import random
from collections import Counter

import pytest
from reference import sim_1e25b3a

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


def _tickets_consistent(wt, row):
    """Each group of whole rows of `row` slots has a sorted ticket list that
    holds each of its slots s weights[s] // unit times, and the tree over the
    group totals holds their Fenwick range sums, its last node their sum."""
    weights, unit, per = wt.weights, wt.unit, wt.per
    assert per % row == 0 and len(wt.tickets) == -(-len(weights) // per)
    totals = []
    for group, tickets in enumerate(wt.tickets):
        slots = range(group * per, min(group * per + per, len(weights)))
        assert all(weights[s] % unit == 0 for s in slots)
        assert tickets == [s for s in slots for _ in range(weights[s] // unit)]
        totals.append(sum(weights[s] for s in slots))
    span = len(wt.tree) - 1
    totals += [0] * (span - len(totals))
    assert all(wt.tree[i] == sum(totals[i - (i & -i):i]) for i in range(1, span + 1))
    assert wt.tree[span] == sum(weights)


def _check_the_rule(sim):
    """The incrementally kept weights, ticket lists, group tree and cycle
    counters equal their from-scratch values; returns the weights."""
    weights = _expected_weights(sim)
    assert sim.weights.weights == weights
    _tickets_consistent(sim.weights, sim.cfg.n)
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
    its queue, and the set of slots drawn."""
    assert sim.cfg.n >= 2
    middle_pops = draws = 0
    drawn = set()
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
        drawn.add(slot)
        if slot >= sim.cfg.n:
            # the head stays the head only when a packet behind it was popped
            head = heads[slot - sim.cfg.n]
            packets = sim.channel_slots[slot - sim.cfg.n].packets
            if len(head) == 2 and packets and packets[0] is head[0]:
                middle_pops += 1
    _check_the_rule(sim)
    assert draws > sim.step // 2
    return middle_pops, drawn


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
    middle_pops, _ = _step_checking_the_rule(sim)
    events = sim.trace.events
    assert any(e["type"] == "DUP" for e in events)
    assert {e["cause"] for e in events if e["type"] == "OMIT"} == {"drop", "overflow"}
    assert {"CRASH", "CORRUPT"} <= {e["type"] for e in events}
    assert middle_pops > 0


class _CountedWrites(list):
    """A list that counts its item writes by index and its slice writes, the
    ticket inserts, by the slot they insert."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = Counter()

    def __setitem__(self, i, value):
        self.writes[value[0] if isinstance(i, slice) else i] += 1
        super().__setitem__(i, value)


def test_an_iteration_moves_each_channel_weight_once():
    # an iteration's heartbeats, MSGs and gossip form one batch: each
    # destination channel inserts its tickets once, not once per packet, and
    # its row's group path is written once; at n = 20 row 20 is in the second group
    for n, i, group in ((4, 1, 0), (20, 20, 1)):
        sim = Simulation(from_dict({"n": n, "seed": 0}))
        sim._request_broadcast(i, "p")
        wt = sim.weights
        assert sim.channels[(i, i)].slot // wt.per == group
        tickets = wt.tickets[group] = _CountedWrites(wt.tickets[group])
        tree = wt.tree = _CountedWrites(wt.tree)
        before = len(sim.trace.records)
        sim._iterate_action(i)
        sends = [e for e in sim.trace.events[before:] if e["type"] == "SEND"]
        channels = {(e["src"], e["dst"]) for e in sends}
        assert {e["kind"] for e in sends} == {"MSG", "GOSSIP", "HEARTBEAT"}
        assert len(sends) > len(channels)
        assert tickets.writes == Counter(sim.channels[key].slot for key in channels)
        assert tree.writes == Counter(wt.paths[group])
        assert wt.weights == _expected_weights(sim)
        _tickets_consistent(wt, n)


@pytest.mark.parametrize("n, profile", [(17, "starve-one-node"), (20, "uniform"), (33, "reorder-heavy")])
def test_pick_matches_random_choices_over_several_groups(n, profile):
    # n + n^2 slots past one group's 272: 2, 2 and 5 ticket lists; the
    # starved node's weight 1 makes the ticket unit 1, and a crash zeroes
    # the node's slot and its channels' in every group
    cfg = from_dict(
        {
            "n": n,
            "seed": n,
            "stop_mode": "max-steps",
            "max_steps": 150,
            "scheduler_profile": profile,
            "broadcasts": [{"node": 1 + 7 * k % n, "payload": f"m{k}"} for k in range(3)],
            "fault_plan": {"omission_prob": 0.1, "crashes": [{"node": n - 1, "step": 60}], "detection_latency": 5},
        }
    )
    sim = Simulation(cfg)
    assert (len(sim.weights.tickets), sim.weights.unit) == (
        {17: 2, 20: 2, 33: 5}[n], 1 if profile == "starve-one-node" else 4)
    _, drawn = _step_checking_the_rule(sim)
    assert len({slot // sim.weights.per for slot in drawn}) > 1
    assert any(e["type"] == "CRASH" for e in sim.trace.events)


def test_a_run_over_two_groups_equals_the_reference():
    # the vendored simulator draws with random.choices over an explicit list
    cfg = from_dict(
        {
            "n": 20,
            "seed": 5,
            "max_steps": 3000,
            "scheduler_profile": "reorder-heavy",
            "broadcasts": [{"node": 1 + 3 * k, "payload": f"m{k}"} for k in range(4)],
            "fault_plan": {
                "omission_prob": 0.05,
                "duplication_prob": 0.05,
                "crashes": [{"node": 19, "step": 200}],
                "detection_latency": 10,
            },
        }
    )
    sim = Simulation(cfg)
    assert len(sim.weights.tickets) == 2
    metrics = sim.run().metrics
    assert metrics == sim_1e25b3a.run_scenario(cfg).metrics
    assert metrics["steps"] > 1000


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
