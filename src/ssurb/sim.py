"""Deterministic discrete-event network simulator.

One scheduler action per step: a node runs a full iteration of its
protocol loop, or one in-transit packet is delivered (subject to seeded
omission/duplication/reorder draws), or a scheduled crash/corruption
fires. Channels are bounded; overflow drops the newest packet, which the
fault model already covers as an omission. The simulator also accounts
asynchronous cycles (every live node completed an iteration, its
request-reply messages round-tripped or their targets became suspected,
and a gossip from it reached every live peer), drives the bounded-mode
global reset barrier, and appends everything to the trace. Crashes, corruptions
and broadcast requests fire from one sorted plan: within a step crashes, then
corruptions, then broadcasts, each in config order, none for a crashed node.

One step loop, `_steps`, drives both `run` and `step_once` and binds what
every step reads once per call. Every action has a fixed slot, the n node
iterations and then the n^2 channels in (src, dst) order, with a ticket per
unit of its weight in a sorted list (`WeightTree`): one list up to n = 16,
so a step draws one index, the schedule an explicit weighted list would
give. A channel's tickets, its only weight, follow its length: 4 + 4*len
while non-empty towards a live node, else none. A delivery, inline in the
loop, pops one packet and deletes its drawn ticket unless a DUP puts it
back, and, for a MSG, pushes the MSGACK that answers it and inserts that
channel's tickets. An iteration's three typed send runs end in one rewrite
of its row's tickets (`_retick_row`), as crashes, corruptions and resets
do for theirs. Pending trace lines are hashed only after iterations, and
`peak_buffer` is sampled only where a buffer can grow (see `__init__`).

Cycle accounting is O(1) per step: two running counts, the live gossip
pairs not yet seen and the live nodes whose round-trip clause is not yet
satisfied, are kept by the GOSSIP and MSGACK deliveries and the iteration,
and the step loop reads both inline. Only while crashes are known does it
call `_cycle_complete`, which rescans the unsatisfied nodes' pending
round-trips, because the suspicion clause changes with the step.

Packet records are appended in the trace's compact form (see `trace`),
each line rendered from the `trace.PACKET_TEMPLATES` entries of its type
and cause, with every dst rendered in once per simulation, or for a GOSSIP
or HEARTBEAT RECV from its channel's prefix. A SNAPSHOT is a
`trace.Snapshot`: its `channels` hold a list copy of each non-empty
channel's (message, birth step) pairs, which are immutable and shared, so
no packet dict is built. It encodes its `nodes` once with `canonical`,
has `trace.snapshot_channels` render its channels, and assembles its
digest input and line from the two strings.

The `stabilized` stop rule judges the snapshot it has just emitted with
`snapshot_all_consistent`, which leaves the verdict on that record with
the last corruption step it judged under; `check_all` reads it there
instead of evaluating the snapshot again.

`run_scenarios` runs configs that differ only in their crashes and
corruptions off one fault-free trunk: `Simulation.branch` copies the
trunk's mutable state at a member's first fault step and shares the rest,
since before its first fault a run's trace does not depend on its plan.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

from . import corruption
from .checker import drained_cycle, snapshot_all_consistent
from .config import ASAP, ScenarioConfig
from .detectors import DetectorView, HeartbeatState, ThetaState
from .node import DISABLED, NORMAL, RESETTING, NodeState
from .trace import (
    CHUNK_LINES,
    PACKET_CODE,
    PACKET_TEMPLATES,
    Snapshot,
    Trace,
    canonical,
    deliver_line,
    make_header,
    snapshot_channels,
    snapshot_line,
    snapshot_state,
)
# `encode` is imported for perfbench's traced run, which wraps sim.encode
from .wire import Gossip, Heartbeat, Msg, MsgAck, WireMessage, encode, message_id


_NOBODY: frozenset[int] = frozenset()
GROUP_SLOTS = 272  # n + n^2 at n = 16: one ticket list up to there (see `WeightTree`)


def _line_table(etype: str, n: int, cause: str | None = None) -> dict[type, tuple[int, list[str], str]]:
    """(compact code, heads, tail) of the (`etype`, kind, `cause`) record, by
    message class: `heads[dst]` is the line up to its mid or src, dst in it."""
    table = {}
    for cls in (Msg, MsgAck, Gossip, Heartbeat):
        code = PACKET_CODE[(etype, cls.kind, cause)]
        head, middle, tail = PACKET_TEMPLATES[code]
        table[cls] = (code, [f"{head}{dst}{middle}" for dst in range(n + 1)], tail)
    return table


CRASH, CORRUPT, BROADCAST = range(3)  # the firing order of timed events within one step


def _plan(cfg: ScenarioConfig) -> list[tuple]:
    """`cfg`'s timed events as (step, kind, config position, node, the handler's further
    arguments), in firing order."""
    faults = cfg.fault_plan
    return sorted([(at, CRASH, k, i, ()) for k, (i, at) in enumerate(faults.crashes)]
                  + [(at, CORRUPT, k, i, (kind,)) for k, (i, at, kind) in enumerate(faults.corruptions)]
                  + [(0 if e.step == ASAP else e.step, BROADCAST, k, e.node, (e.payload,))
                     for k, e in enumerate(cfg.broadcasts)])


def _fault_free(cfg: ScenarioConfig) -> ScenarioConfig:
    """`cfg` without its crashes and corruptions: the config a branch's trunk runs."""
    return replace(cfg, fault_plan=replace(cfg.fault_plan, crashes=[], corruptions=[]))


def payload_hash(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class WeightTree:
    """Integer weights over `rows` rows of `row` slots, multiples of `unit`, kept
    only as sorted ticket lists (lottery scheduling, Waldspurger & Weihl
    1994): slot s weighs `unit` per appearance in the list of its group, the
    `per` slots of whole rows (GROUP_SLOTS at most, or one row). `tree` is a
    Fenwick tree (Fenwick 1994) over the group totals, its last node the
    total; `paths[g]` lists the nodes whose ranges hold group g.

    The step loop draws from it inline, exactly as `random.choices(slots,
    weights)` would over the slots of non-zero weight, in slot order: one
    `random()` scaled by the total and truncated to an integer x, clamped
    to total - 1 when rounding puts the draw at the total; a descent along
    `descent`, empty with one group, to the first group whose prefix sum
    exceeds x, less the groups before it; and ticket x // unit of its list.
    `random.choices` bisects for the first prefix sum above the unrounded
    draw; prefix sums are integers, so one exceeds the draw exactly when it
    exceeds x, and multiples of `unit`, so slot s holds x exactly when its
    tickets hold index x // unit. The clamp takes the last ticket, of the
    last slot of non-zero weight, where `choices` lands such a draw. The
    tree spans a power of two of groups, those past the last weighing 0, so
    a descent needs no bounds check: x < total, so it ends at a group.
    """

    def __init__(self, rows: int, row: int, unit: int):
        self.unit, self.per = unit, row * max(1, GROUP_SLOTS // row)
        groups = -(-rows * row // self.per)
        self.tickets = [[] for _ in range(groups)]
        span = 1 << (groups - 1).bit_length()
        self.tree = [0] * (span + 1)
        self.descent = tuple(span >> k for k in range(1, span.bit_length()))  # span/2, ..., 1
        # paths[g - 1]: the nodes i whose ranges (i - lowbit(i), i] hold the g-th group
        self.paths = [tuple(i for i in range(g, span + 1) if i - (i & -i) < g) for g in range(1, groups + 1)]

    def set(self, slot: int, weight: int) -> None:
        self.rewrite(slot, slot, [slot] * (weight // self.unit))

    def rewrite(self, first: int, last: int, block: list[int]) -> None:
        """Replace the tickets of slots `first` to `last`, all of one group,
        with `block`, sorted, and move the group's path once by the change."""
        group = first // self.per
        tickets = self.tickets[group]
        at = bisect_left(tickets, first)
        end = bisect_right(tickets, last, at)
        moved = (len(block) - (end - at)) * self.unit
        tickets[at:end] = block
        for i in self.paths[group]:
            self.tree[i] += moved

    def copy(self) -> WeightTree:
        twin = object.__new__(WeightTree)  # reading vars(self) would slow self's attribute reads
        twin.unit, twin.per, twin.descent, twin.paths = self.unit, self.per, self.descent, self.paths
        twin.tree, twin.tickets = self.tree[:], [t[:] for t in self.tickets]
        return twin


class Channel:
    """Ordered bounded multiset of in-transit packets for one (src, dst) pair.

    A full iteration floods up to ~2(n-1) packets while one delivery drains
    a single packet, so a channel's scheduler weight grows with its
    occupancy: 4 + 4*len, and 0 while the channel is empty or its
    destination has crashed. The channel holds only the packets, and the
    RECV line of a GOSSIP and of a HEARTBEAT delivered here up to
    `"step":`; its tickets at `slot` follow them (`_retick_row`).
    """

    __slots__ = ("src", "dst", "capacity", "packets", "dst_live", "slot", "recv_gossip", "recv_heartbeat")

    def __init__(self, src: int, dst: int, capacity: int, slot: int, recv_lines: dict):
        self.src, self.dst, self.capacity, self.slot = src, dst, capacity, slot
        self.packets: list[tuple[WireMessage, int]] = []  # (message, birth step)
        self.dst_live = True
        self.recv_gossip, self.recv_heartbeat = (
            f'{recv_lines[cls][1][dst]}"src":{src},"step":' for cls in (Gossip, Heartbeat))

    def copy(self) -> Channel:
        twin = object.__new__(Channel)  # sharing the line prefixes
        twin.src, twin.dst, twin.capacity, twin.slot = self.src, self.dst, self.capacity, self.slot
        twin.recv_gossip, twin.recv_heartbeat = self.recv_gossip, self.recv_heartbeat
        twin.packets, twin.dst_live = self.packets[:], self.dst_live
        return twin


class SimNode:
    def __init__(self, node_id: int, cfg: ScenarioConfig):
        self.id = node_id
        self.state = NodeState(
            node_id,
            cfg.n,
            cfg.buffer_unit_size,
            fifo=cfg.fifo_enabled,
            maxint=cfg.maxint if cfg.bounded_mode else None,
        )
        self.hb = HeartbeatState(node_id, cfg.n)
        self.theta = ThetaState(node_id, cfg.n)
        self.crashed = False

    def copy(self) -> SimNode:
        twin = object.__new__(SimNode)
        twin.id, twin.crashed = self.id, self.crashed
        twin.state, twin.hb, twin.theta = self.state.copy(), self.hb.copy(), self.theta.copy()
        return twin


@dataclass
class RunResult:
    trace: Trace
    metrics: dict
    unfired: list[str] = field(default_factory=list)  # the crashes and corruptions still due


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        plan = cfg.fault_plan
        self.reorder_prob = plan.reorder_prob
        if cfg.scheduler_profile == "reorder-heavy":
            self.reorder_prob = max(self.reorder_prob, 0.9)
        self.omission_prob = plan.omission_prob
        self.duplication_prob = plan.duplication_prob
        self.snapshot_interval = cfg.snapshot_interval
        self.bounded_mode = cfg.bounded_mode
        self.trace = Trace(make_header(cfg))
        n = cfg.n
        self.nodes = {i: SimNode(i, cfg) for i in range(1, n + 1)}
        self.live = list(self.nodes)  # rebound, never mutated: events hold it
        # scheduler slots, a row of n each: iterate node i at i-1 (row 0),
        # channel (a, b) at n + (a-1)*n + (b-1) (row a); every weight is a
        # multiple of 4 but the starved node's 1
        starving = cfg.scheduler_profile == "starve-one-node"
        self.weights = WeightTree(n + 1, n, 1 if starving else 4)
        for i in self.nodes:
            self.weights.set(i - 1, 1 if starving and i == 1 else 8)
        self.send_lines, self.recv_lines, self.dup_lines = (
            _line_table(etype, n) for etype in ("SEND", "RECV", "DUP"))
        self.drop_lines, self.overflow_lines = (_line_table("OMIT", n, c) for c in ("drop", "overflow"))
        self._link_channels({
            (a, b): Channel(a, b, cfg.channel_capacity, n + (a - 1) * n + (b - 1), self.recv_lines)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
        })
        self.step = 0
        self.cycle_count = 0
        self.crashed_at: dict[int, int] = {}
        self.last_corrupt_step: int | None = None
        self.epoch = 0

        self.plan, self.fired = _plan(cfg), 0  # the timed events, and how many have fired
        self.next_due = self.plan[0][0] if self.plan else math.inf
        # a stop rule runs after its step's prologue, so a broadcast is still due while step < this
        self.last_broadcast = max((at for at, kind, *_ in self.plan if kind == BROADCAST), default=0)

        # current-epoch broadcast bookkeeping for the stop predicate
        self.epoch_mids: list[tuple[int, int]] = []
        self.delivered_sets: dict[int, set[tuple[int, int]]] = {
            i: set() for i in self.nodes
        }

        # asynchronous-cycle tracking
        self._reset_cycle_tracker()

        self.barrier_active = False
        self.stop_counter: int | None = None
        self.stop_reason: str | None = None
        self.marker_cycle: int | None = None  # see checker.drained_cycle

        # each node's largest buffer after its iterations and deliveries; only
        # iterations, MSG deliveries, broadcast requests and corruptions change
        # a buffer's length, so it is sampled after the first two, and the last
        # two put the node in `grown`, sampled at its next delivery and not at
        # once (digest battery run corrupt/RANDOMIZE-ALL/b1/n3 would differ)
        self.peak_buffer = {i: 0 for i in self.nodes}
        self.grown: set[int] = set()
        self.counts = {
            "sends": {"MSG": 0, "MSGACK": 0, "GOSSIP": 0, "HEARTBEAT": 0},
            "omissions": 0,
            "duplications": 0,
            "resets": 0,
        }

        self._emit_snapshot()  # step-0 snapshot anchors the stabilization marker

    def branch(self, cfg: ScenarioConfig) -> Simulation:
        """This run continued under `cfg` as a standalone run of `cfg` goes on (see
        `run_scenarios`). The configs may differ only in their crashes and corruptions,
        none due before the current step, or a ValueError names the field. The plan is made
        again from `cfg`: its fired prefix and its broadcasts are this run's, its faults
        are `cfg`'s. The mutable state is copied; paths, line tables, messages and lines
        are shared."""
        trunk, member = _fault_free(self.cfg), _fault_free(cfg)
        if member != trunk:  # the dicts are walked only to name the field
            mine, theirs = trunk.to_dict(), member.to_dict()
            key = next(key for key in mine if mine[key] != theirs[key])
            if key == "fault_plan":
                key += "." + next(k for k in mine[key] if mine[key][k] != theirs[key][k])
            raise ValueError(f"{key}: a branch may differ only in its crashes and corruptions")
        for name in ("crashes", "corruptions"):  # each entry's step is its second field
            early = [f[1] for c in (self.cfg, cfg) for f in getattr(c.fault_plan, name) if f[1] < self.step]
            if early:
                raise ValueError(f"fault_plan.{name}: a fault due at step {early[0]}, before step {self.step}")
        twin = object.__new__(Simulation)
        vars(twin).update(vars(self), cfg=cfg, rng=random.Random.__new__(random.Random))  # no OS seeding
        twin.rng.setstate(self.rng.getstate())
        twin.trace = self.trace.branch(make_header(cfg))
        twin.nodes, twin.weights = {i: node.copy() for i, node in self.nodes.items()}, self.weights.copy()
        twin._link_channels({key: channel.copy() for key, channel in self.channels.items()})
        twin.crashed_at, twin.epoch_mids = dict(self.crashed_at), self.epoch_mids[:]
        twin.delivered_sets = {i: set(mids) for i, mids in self.delivered_sets.items()}
        twin.ct_satisfied, twin.peak_buffer = set(self.ct_satisfied), dict(self.peak_buffer)
        twin.grown = set(self.grown)
        twin.ct_pending = {i: [set(w) for w in waits] for i, waits in self.ct_pending.items()}
        twin.ct_gossip_seen = {i: set(seen) for i, seen in self.ct_gossip_seen.items()}
        twin.counts = dict(self.counts, sends=dict(self.counts["sends"]))
        twin.plan = _plan(cfg)
        twin.next_due = twin.plan[twin.fired][0] if twin.fired < len(twin.plan) else math.inf
        return twin

    def _link_channels(self, channels: dict[tuple[int, int], Channel]) -> None:
        n = self.cfg.n
        self.channels = channels
        self.channel_slots = list(channels.values())  # slot n + k holds the k-th
        # rows[a][b] is channel (a, b); index 0 of both is unused
        self.rows = [None] + [[None] + self.channel_slots[k * n:(k + 1) * n] for k in range(n)]

    # ---- helpers -------------------------------------------------------

    def _delayed_crashed(self) -> frozenset[int] | set[int]:
        if not self.crashed_at:
            return _NOBODY
        latency = self.cfg.fault_plan.detection_latency
        return {i for i, at in self.crashed_at.items() if at + latency <= self.step}

    def _reset_cycle_tracker(self) -> None:
        # a node satisfies the round-trip clause once any iteration it started
        # in the window has all of its MSG sends acked (or targets suspected);
        # `unsatisfied` counts the live nodes that have not yet
        self.ct_satisfied: set[int] = set()
        self.ct_pending: dict[int, list[set[tuple[int, int, int]]]] = {
            i: [] for i in self.nodes
        }
        self.unsatisfied = len(self.live)
        self.ct_gossip_seen: dict[int, set[int]] = {i: set() for i in self.nodes}
        self.missing_gossip = self._count_missing_gossip()

    def _retick_row(self, i: int) -> None:
        """Rewrite the tickets of the channels from node i, one block of one list,
        from their lengths: 4 + 4*len while non-empty towards a live node."""
        row, share = self.rows[i], 4 // self.weights.unit  # tickets per 4 of weight
        block = []
        for channel in row[1:]:
            if channel.packets and channel.dst_live:
                block += [channel.slot] * (share + share * len(channel.packets))
        self.weights.rewrite(row[1].slot, row[-1].slot, block)

    def _satisfy(self, i: int) -> None:
        self.ct_satisfied.add(i)
        self.ct_pending[i] = []
        self.unsatisfied -= 1

    def _count_missing_gossip(self) -> int:
        """Pairs (i, k) of distinct live nodes with no gossip from i at k yet;
        the self-channels carry GOSSIP too, but (i, i) is no clause."""
        live = self.live
        return sum(
            1
            for i in live
            for k in live
            if k != i and k not in self.ct_gossip_seen[i]
        )

    # ---- event emission --------------------------------------------------

    def _event(self, etype: str, **fields) -> None:
        record = {"type": etype, "step": self.step}
        record.update(fields)
        self.trace.append(record)

    def _emit_snapshot(self, boundary: bool = True) -> Snapshot:
        nodes_ser = []
        for i in sorted(self.nodes):
            node = self.nodes[i]
            # nodes are observed at their last completed repair pass; between-
            # iteration handler effects surface one pass later. The monotone
            # counters are additionally snapshotted live: the cross-node
            # dominance checks compare against them without that lag.
            state = node.state
            nodes_ser.append(dict(
                state.observed, crashed=node.crashed, hb=node.hb.hb[1:],
                suspected=sorted(node.theta.suspected), live_seq=state.seq,
                live_rx_obs=state.rx_obs[1:], live_tx_obs=state.tx_obs[1:],
                live_next=state.next_deliver[1:],
                live_own_seqs=sorted(r.seq for r in state.buffer if r.sender == i),
            ))
        # the in-flight packets, nearly all of a snapshot, are kept as the
        # channels' own immutable pairs, in sorted (src, dst) order
        channels_ser = [(c.src, c.dst, c.packets[:]) for c in self.channel_slots if c.packets]
        # each half is encoded once; the digest input and the trace line are
        # both assembled from the two strings
        nodes_json, channels_json = canonical(nodes_ser), snapshot_channels(channels_ser)
        digest = hashlib.sha256(snapshot_state(nodes_json, channels_json).encode()).hexdigest()
        step, cycle = self.step, self.cycle_count
        record = Snapshot(
            type="SNAPSHOT",
            step=step,
            cycle=cycle,
            boundary=boundary,
            nodes=nodes_ser,
            channels=channels_ser,
            digest=digest,
        )
        self.trace.append(
            record, snapshot_line(step, cycle, boundary, nodes_json, channels_json, digest)
        )
        return record

    # ---- packet plumbing ---------------------------------------------------

    def _overflow(self, msg: WireMessage, src: int, dst: int) -> None:
        """The OMIT that follows the SEND of `msg` when its channel is full."""
        code, heads, tail = self.overflow_lines[type(msg)]
        self.counts["omissions"] += 1
        mid = f'"mid":[{msg.sender},{msg.seq}],' if type(msg) in (Msg, MsgAck) else ""
        self.trace.records.append((code, msg.sender, msg.seq, self.step) if mid else code)
        self.trace.pending.append(f'{heads[dst]}{mid}"src":{src},"step":{self.step}{tail}')

    def _iterate_action(self, i: int) -> None:
        """Node i's iteration and its three send runs: heartbeats and gossips to
        `hb.peers` in order, MSGs between. No draw falls in between, so row i's
        channel tickets are rewritten once, after the runs, however many
        packets each channel received, and its group path moves once."""
        node = self.nodes[i]
        theta, hb = node.theta, node.hb
        if self.crashed_at or theta.suspected:  # otherwise nothing is suspected, nor to be
            theta.reconcile(self._delayed_crashed())
        beats = hb.tick()
        view = tuple.__new__(DetectorView, (theta.trusted_view(), hb.hb))  # the live list, only read
        sent, delivered, accepted, gossips = node.state.do_forever_iteration(view)
        step, row, peers, capacity = self.step, self.rows[i], hb.peers, self.cfg.channel_capacity
        append_record, append_line = self.trace.records.append, self.trace.pending.append
        sends = self.counts["sends"]
        at = f'"src":{i},"step":{step}'
        code, heads, tail = self.send_lines[Heartbeat]
        sends["HEARTBEAT"] += len(beats)
        end = at + tail
        for dst, beat in zip(peers, beats):
            append_record(code)
            append_line(heads[dst] + end)
            packets = row[dst].packets
            if len(packets) < capacity:
                packets.append((beat, step))
            else:
                self._overflow(beat, i, dst)
        if sent:
            code, heads, tail = self.send_lines[Msg]
            sends["MSG"] += len(sent)
            for dst, msg in sent:
                append_record((code, msg.sender, msg.seq, step))
                append_line(f'{heads[dst]}"mid":[{msg.sender},{msg.seq}],{at}{tail}')
                packets = row[dst].packets
                if len(packets) < capacity:
                    packets.append((msg, step))
                else:
                    self._overflow(msg, i, dst)
            if i not in self.ct_satisfied:
                self.ct_pending[i].append({(dst, msg.sender, msg.seq) for dst, msg in sent})
        elif i not in self.ct_satisfied:
            self._satisfy(i)
        code, heads, tail = self.send_lines[Gossip]
        sends["GOSSIP"] += len(gossips)
        end = at + tail
        for dst, gossip in zip(peers, gossips):
            append_record(code)
            append_line(heads[dst] + end)
            packets = row[dst].packets
            if len(packets) < capacity:
                packets.append((gossip, step))
            else:
                self._overflow(gossip, i, dst)
        self._retick_row(i)
        if delivered:
            mine = self.delivered_sets[i]
            for sender, seq in delivered:
                append_record({"type": "DELIVER", "step": step, "node": i, "mid": [sender, seq]})
                append_line(deliver_line(step, i, sender, seq))
                mine.add((sender, seq))
        for mid, payload in accepted:
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)
        if self.bounded_mode and node.state.check_overflow():
            self._start_barrier()
        held = len(node.state.buffer)
        if held > self.peak_buffer[i]:
            self.peak_buffer[i] = held

    # ---- scheduled faults and broadcasts --------------------------------------

    def _crash(self, i: int) -> None:
        self.nodes[i].crashed = True
        self.live = [k for k in self.live if k != i]
        self.weights.set(i - 1, 0)
        for src in self.nodes:
            self.channels[(src, i)].dst_live = False  # nothing here is ever delivered
            self._retick_row(src)
        if i not in self.ct_satisfied:
            self.unsatisfied -= 1
        self.missing_gossip = self._count_missing_gossip()
        self.crashed_at[i] = self.step
        self._event("CRASH", node=i)

    def _corrupt(self, i: int, kind: str) -> None:
        in_channels = [self.channels[(src, i)] for src in sorted(self.nodes)]
        state = self.nodes[i].state
        corruption.inject(kind, state, in_channels, self.rng, self.step)
        for src in self.nodes:
            self._retick_row(src)
        # make the damage visible to the next snapshot, not one iteration later
        state.observed = state._observe(sorted(self.nodes[i].theta.trusted_view()))
        self.last_corrupt_step = self.step
        self.marker_cycle = None
        self.grown.add(i)
        self._event("CORRUPT", node=i, kind=kind)
        if self.bounded_mode and self.nodes[i].state.check_overflow():
            self._start_barrier()

    def _request_broadcast(self, i: int, payload: str) -> None:
        node = self.nodes[i]
        view = tuple.__new__(DetectorView, (node.theta.trusted_view(), node.hb.hb))
        mid = node.state.urb_broadcast(view, payload)
        if mid is not None:
            self.grown.add(i)
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)

    def _prologue(self) -> None:
        """Fire the timed events due by this step in plan order, none for a crashed node."""
        plan, fire = self.plan, (self._crash, self._corrupt, self._request_broadcast)  # by kind
        while self.fired < len(plan) and plan[self.fired][0] <= self.step:
            _, kind, _, i, args = plan[self.fired]
            self.fired += 1
            if not self.nodes[i].crashed:
                fire[kind](i, *args)
        self.next_due = plan[self.fired][0] if self.fired < len(plan) else math.inf

    # ---- bounded-counter reset barrier -------------------------------------------

    def _start_barrier(self) -> None:
        if self.barrier_active:
            return
        self.barrier_active = True
        live = self.live
        for i in live:
            if self.nodes[i].state.reset_phase == NORMAL:
                self.nodes[i].state.reset_phase = DISABLED
        self._event("DISABLE", nodes=live)

    def _barrier_ready(self) -> bool:
        for i in self.live:
            state = self.nodes[i].state
            if state.reset_phase != DISABLED:
                return False
            if any(not r.delivered for r in state.buffer):
                return False
        return True

    def _apply_global_reset(self) -> None:
        live = self.live
        for i in live:
            self.nodes[i].state.reset_phase = RESETTING
        for i in live:
            self.nodes[i].state.perform_global_reset()
            self.nodes[i].hb.reset()
        for channel in self.channel_slots:
            channel.packets.clear()
        for i in self.nodes:
            self._retick_row(i)
        self._event("RESET", nodes=live)
        self.counts["resets"] += 1
        self.epoch += 1
        self.epoch_mids = []
        for i in self.nodes:
            self.delivered_sets[i] = set()
        self.barrier_active = False
        self.stop_counter = None
        self._reset_cycle_tracker()

    # ---- asynchronous-cycle accounting -------------------------------------------

    def _cycle_complete(self) -> bool:
        """Whether every live node has met the round-trip clause, asked once
        every gossip pair is seen while some node has not and crashes are
        known: the unsatisfied nodes' pending round-trips are rescanned,
        because the clause that counts suspected targets changes with the step."""
        suspected = self._delayed_crashed()
        if suspected:
            for i in self.live:
                if i not in self.ct_satisfied and any(
                    all(dst in suspected for dst, _, _ in pending)
                    for pending in self.ct_pending[i]
                ):
                    self._satisfy(i)
        return not self.unsatisfied

    # ---- stop predicate ---------------------------------------------------------

    def _settled_complete_delivery(self) -> bool:
        if self.step < self.last_broadcast:
            return False
        live = self.live
        live_set = set(live)
        for i in live:
            if self.nodes[i].state.pending:
                return False
        if not self.epoch_mids:
            return True
        buffered: dict[tuple[int, int], bool] = {}  # mid -> all records delivered+fully acked
        for i in live:
            for r in self.nodes[i].state.buffer:
                mid = (r.sender, r.seq)
                ok = r.delivered and live_set.issubset(r.rec_by)
                buffered[mid] = buffered.get(mid, True) and ok
        for mid in self.epoch_mids:
            if mid in buffered and not buffered[mid]:
                return False
            if all(mid in self.delivered_sets[i] for i in live):
                continue
            vanished = (
                self.nodes[mid[0]].crashed
                and mid not in buffered
                and not any(mid in self.delivered_sets[i] for i in live)
            )
            if not vanished:
                return False
        # last, the costliest clause: no id in flight towards a live node
        in_flight = {message_id(m) for c in self.channel_slots if c.dst_live for m, _ in c.packets}
        return in_flight.isdisjoint(self.epoch_mids)

    def _on_cycle_boundary(self) -> None:
        self.cycle_count += 1
        self._event("CYCLE", k=self.cycle_count)
        snapshot = self._emit_snapshot()
        self._reset_cycle_tracker()

        mode = self.cfg.stop_mode
        settled = False
        if mode == "complete-delivery":
            settled = self._settled_complete_delivery()
        elif mode == "stabilized":
            # the checker's marker rule: from the cycle drained_cycle admits
            # on, the first all-consistent snapshot; each verdict stays on
            # its snapshot, so check_all does not evaluate it again
            if self.marker_cycle is None:
                self.marker_cycle = drained_cycle(snapshot, self.last_corrupt_step)
            settled = (
                self.marker_cycle is not None
                and self.cycle_count >= self.marker_cycle
                and self.step >= self.last_broadcast
                and snapshot_all_consistent(snapshot, self.trace.header, self.last_corrupt_step)
            )
        if not settled:
            self.stop_counter = None
            return
        if self.stop_counter is None:
            self.stop_counter = self.cfg.quiescence_window_cycles
        else:
            self.stop_counter -= 1
        if self.stop_counter <= 0:
            self.stop_reason = mode

    # ---- the main loop ----------------------------------------------------------

    def _steps(self, count: int) -> None:
        """Take `count` steps, fewer if one sets a stop reason. A step runs
        the scheduled faults and broadcasts when due, draws an integer below
        the total weight and takes its ticket's slot (inline, as `WeightTree`
        describes), runs that node's iteration or delivers one packet of that
        channel, deleting the tickets of the weight it loses from the drawn
        one's block, and then drives the reset barrier, cycle accounting and
        interval snapshots. What a delivery reads is bound here once per call."""
        n, channel_slots = self.cfg.n, self.channel_slots
        nodes = [None] + [self.nodes[i] for i in range(1, n + 1)]  # nodes[i] is node i
        wt = self.weights
        tree, paths, descent, lists = wt.tree, wt.paths, wt.descent, wt.tickets
        root, unit, per, shrink, empty = len(tree) - 1, wt.unit, wt.per, 4 // wt.unit, 8 // wt.unit
        rand, getrandbits = self.rng.random, self.rng.getrandbits
        reorder, omission, duplication = self.reorder_prob, self.omission_prob, self.duplication_prob
        trace = self.trace
        append_record, pending, flush = trace.records.append, trace.pending, trace.flush
        append_line = pending.append
        peak, bounded, interval = self.peak_buffer, self.bounded_mode, self.snapshot_interval
        lines, drops, dups, rows = self.recv_lines, self.drop_lines, self.dup_lines, self.rows
        gossip_code, hb_code, recv_tail = lines[Gossip][0], lines[Heartbeat][0], lines[Heartbeat][2]
        ack_code, ack_heads, ack_tail = self.send_lines[MsgAck]
        counts, sends = self.counts, self.counts["sends"]
        step, next_due, grown = self.step, self.next_due, self.grown
        if not self.live:
            self.stop_reason = "all-crashed"
            return
        for _ in range(count):
            if step >= next_due:
                self._prologue()
                next_due = self.next_due
                if not self.live:  # a crash, due only here, emptied it
                    self.stop_reason = "all-crashed"
                    return
            total = tree[root]
            x = int(rand() * total)
            if x >= total:  # the draw rounded to the total
                x = total - 1
            group = 0
            for d in descent:  # empty while one group holds every slot
                weight = tree[group + d]
                if weight <= x:
                    group += d
                    x -= weight
            tickets, at = lists[group], x // unit
            slot = tickets[at]
            if slot < n:
                self._iterate_action(slot + 1)
                if len(pending) >= CHUNK_LINES:  # a delivery adds at most four lines
                    flush()
            else:
                # a delivery; only non-empty channels towards live nodes weigh
                channel = channel_slots[slot - n]
                src, dst, packets = channel.src, channel.dst, channel.packets
                held = len(packets)
                pick = 0
                if held > 1 and rand() < reorder:  # randrange(held), drawn as CPython draws it
                    pick = getrandbits(held.bit_length())
                    while pick >= held:  # _randbelow_with_getrandbits: k bits until below held
                        pick = getrandbits(held.bit_length())
                packet = packets.pop(pick)
                msg, cls = packet[0], type(packet[0])
                dropped = rand() < omission
                if not dropped and rand() < duplication and held <= channel.capacity:
                    packets.append(packet)  # the channel is back at its weight
                    counts["duplications"] += 1
                    table = dups
                else:
                    cut = shrink if held > 1 else empty  # the tickets of weight 4, or of 8 for the last
                    if cut == 1:
                        del tickets[at]
                    else:  # the first `cut` of its block, which may start before the drawn ticket
                        at = bisect_left(tickets, slot, at + 1 - cut if at >= cut else 0, at)
                        del tickets[at:at + cut]
                    for i in paths[group]:
                        tree[i] -= cut * unit
                    table = drops if dropped else None
                if table is not None:  # the OMIT or DUP line
                    code, heads, tail = table[cls]
                    if cls is Msg or cls is MsgAck:
                        sender, seq = msg.sender, msg.seq
                        append_record((code, sender, seq, step))
                        append_line(f'{heads[dst]}"mid":[{sender},{seq}],"src":{src},"step":{step}{tail}')
                    else:
                        append_record(code)
                        append_line(f'{heads[dst]}"src":{src},"step":{step}{tail}')
                if dropped:
                    counts["omissions"] += 1
                else:
                    node = nodes[dst]
                    state = node.state
                    if cls is Heartbeat:
                        append_record(hb_code)
                        append_line(f"{channel.recv_heartbeat}{step}{recv_tail}")
                        node.hb.on_heartbeat(msg.sender_count, msg.dst_count, src)
                    elif cls is Gossip:
                        append_record(gossip_code)
                        append_line(f"{channel.recv_gossip}{step}{recv_tail}")
                        state.on_gossip(msg.max_seq, msg.rx_obs, msg.tx_obs, src)
                        seen = self.ct_gossip_seen[src]
                        if dst not in seen:
                            seen.add(dst)
                            if src != dst and not nodes[src].crashed:
                                self.missing_gossip -= 1
                    else:
                        code, heads, tail = lines[cls]
                        sender, seq = msg.sender, msg.seq
                        append_record((code, sender, seq, step))
                        append_line(f'{heads[dst]}"mid":[{sender},{seq}],"src":{src},"step":{step}{tail}')
                        if cls is Msg:  # its MSGACK goes back alone, as an iteration's MSG is sent
                            ack = state.on_msg(msg.payload, sender, seq, src)
                            sends["MSGACK"] += 1
                            back = rows[dst][src]
                            append_record((ack_code, sender, seq, step))
                            append_line(
                                f'{ack_heads[src]}"mid":[{sender},{seq}],"src":{dst},"step":{step}{ack_tail}')
                            if len(back.packets) >= back.capacity:
                                self._overflow(ack, dst, src)
                            else:
                                back.packets.append((ack, step))
                                if back.dst_live:  # it weighs 4 more, or 8 if it was empty
                                    cut, slot = shrink if len(back.packets) > 1 else empty, back.slot
                                    back_tickets = lists[slot // per]
                                    at = bisect_right(back_tickets, slot)
                                    back_tickets[at:at] = [slot] * cut
                                    for i in paths[slot // per]:
                                        tree[i] += cut * unit
                        else:
                            state.on_msg_ack(sender, seq, src)
                            if dst not in self.ct_satisfied:
                                key = (src, sender, seq)
                                for waiting in self.ct_pending[dst]:
                                    waiting.discard(key)
                                    if not waiting:
                                        self._satisfy(dst)
                                        break
                    if bounded and state.check_overflow():
                        self._start_barrier()
                    if cls is Msg or grown and dst in grown:  # no other handler grows a buffer
                        grown.discard(dst)
                        held = len(state.buffer)
                        if held > peak[dst]:
                            peak[dst] = held
            if bounded and self.barrier_active and self._barrier_ready():
                self._apply_global_reset()
            stopping = not self.missing_gossip and (
                not self.unsatisfied or self.crashed_at and self._cycle_complete())
            if stopping:
                self._on_cycle_boundary()  # the only setter of a stop reason
                stopping = self.stop_reason is not None
            if interval and step > 0 and step % interval == 0:
                self._emit_snapshot(boundary=False)
            step += 1
            self.step = step
            if stopping:
                return

    def step_once(self) -> None:
        self._steps(1)

    def run(self) -> RunResult:
        if self.stop_reason is None:
            self._steps(self.cfg.max_steps - self.step)
        reason = self.stop_reason or "max-steps"
        self._event("END", reason=reason)
        unfired = [f"{'crash' if kind == CRASH else args[0]} of node {i} at step {at}"
                   for at, kind, _, i, args in self.plan[self.fired:] if kind != BROADCAST]
        return RunResult(self.trace, self._metrics(reason), unfired)

    # ---- metrics -----------------------------------------------------------------

    def _metrics(self, reason: str) -> dict:
        return {
            "status": reason,
            "steps": self.step,
            "cycles": self.cycle_count,
            "epochs": self.epoch + 1,
            "trace_digest": self.trace.digest(),
            "sends": self.counts["sends"],
            "omissions": self.counts["omissions"],
            "duplications": self.counts["duplications"],
            "resets": self.counts["resets"],
            "peak_buffer": {str(i): self.peak_buffer[i] for i in sorted(self.peak_buffer)},
        }


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run one scenario to completion; same config and seed give identical traces."""
    return Simulation(cfg).run()


def run_scenarios(cfgs: list[ScenarioConfig]):
    """Run each config as `run_scenario` would, yielding (index, RunResult)
    as each run ends. Configs equal but for their crashes and corruptions
    form a group. One fault-free trunk runs for it, and each member branches
    off it (`Simulation.branch`) at its first fault step, in ascending
    order, or where the trunk stopped if that came first.

    This rests on one invariant: before a run's first crash or corruption,
    its trace does not depend on its fault plan. It holds because the stop
    rules ask the plan only whether a broadcast is still due. Should they read a fault,
    the trunk must act as if a fault were due until its last member branched."""
    first, groups = [], {}  # each config's first fault step; the groups
    for index, cfg in enumerate(cfgs):
        plan = cfg.fault_plan
        due = [at for _, at in plan.crashes] + [at for _, at, _ in plan.corruptions]
        first.append(min(due, default=math.inf))
        trunk_cfg = _fault_free(cfg)
        groups.setdefault(trunk_cfg.config_hash(), (trunk_cfg, []))[1].append(index)
    for trunk_cfg, members in groups.values():
        trunk = Simulation(trunk_cfg)
        for index in sorted(members, key=first.__getitem__):
            due = min(first[index], trunk_cfg.max_steps)
            if trunk.stop_reason is None and trunk.step < due:
                trunk._steps(due - trunk.step)
            yield index, trunk.branch(cfgs[index]).run()
