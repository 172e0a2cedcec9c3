"""Deterministic discrete-event network simulator.

One scheduler action per step: a node runs a full iteration of its
protocol loop, or one in-transit packet is delivered (subject to seeded
omission/duplication/reorder draws), or a scheduled crash/corruption
fires. Channels are bounded; overflow drops the newest packet, which the
fault model already covers as an omission. The simulator also accounts
asynchronous cycles (every live node completed an iteration, its
request-reply messages round-tripped or their targets became suspected,
and a gossip from it reached every live peer), drives the bounded-mode
global reset barrier, and appends everything to the trace.

One step loop, `_steps`, drives both `run` and `step_once` and binds what
every step reads once per call. Every action has a fixed slot, the n node
iterations and then the n^2 channels in (src, dst) order, weighted in a
Fenwick tree (`WeightTree`) that a step descends in O(log n^2), drawing the
schedule an explicit weighted list would give. A channel weighs 4 + 4*len
while non-empty towards a live node and 0 otherwise. A delivery, inline in
the loop, pops one packet, moves its channel's tree path unless a DUP puts
it back, and pushes a MSG's MSGACK alone; `_send_all` pushes a node's whole
batch and then moves each grown channel's path once.

Cycle accounting is O(1) per step: two running counts, the live gossip
pairs not yet seen and the live nodes whose round-trip clause is not yet
satisfied, are kept by the GOSSIP and MSGACK deliveries and the iteration.
Only while crashes are known are the unsatisfied nodes' pending
round-trips rescanned, because the suspicion clause changes with the step.

Packet records are appended in the trace's compact form (see `trace`),
each line rendered from the `trace.PACKET_TEMPLATES` entries of its type
and cause, with every dst rendered in once per simulation, or for a GOSSIP
or HEARTBEAT RECV from its channel's prefix. A SNAPSHOT encodes its
`nodes` once, takes each in-flight packet's record and JSON together from
`in_flight` and assembles its digest input and line from the two strings.

`run_scenarios` runs configs that differ only in their crashes and
corruptions off one fault-free trunk: `Simulation.branch` copies the
trunk's mutable state at a member's first fault step and shares the rest,
since before its first fault a run's trace does not depend on its plan.
"""

from __future__ import annotations

import hashlib
import math
import random
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
    Trace,
    canonical,
    deliver_line,
    make_header,
    snapshot_line,
    snapshot_state,
)
# `encode` is imported for perfbench's traced run, which wraps sim.encode
from .wire import Gossip, Heartbeat, Msg, MsgAck, WireMessage, encode, message_id


_NOBODY: frozenset[int] = frozenset()


def _line_table(etype: str, n: int, cause: str | None = None) -> dict[type, tuple[int, list[str], str]]:
    """(compact code, heads, tail) of the (`etype`, kind, `cause`) record, by
    message class: `heads[dst]` is the line up to its mid or src, dst in it."""
    table = {}
    for cls in (Msg, MsgAck, Gossip, Heartbeat):
        code = PACKET_CODE[(etype, cls.kind, cause)]
        head, middle, tail = PACKET_TEMPLATES[code]
        table[cls] = (code, [f"{head}{dst}{middle}" for dst in range(n + 1)], tail)
    return table


def payload_hash(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class WeightTree:
    """Integer weights over fixed slots, kept in a Fenwick tree (Fenwick 1994).

    The step loop draws from it inline, exactly as `random.choices(slots,
    weights)` would over the slots of non-zero weight, in slot order: one
    `random()` scaled by the total, a descent along `descent` to the first
    slot whose prefix sum exceeds it, and `count_at_most(total - 1)`, the
    last such slot, when rounding puts the draw at or past the total.
    Zero-weight slots can never be drawn.

    The tree spans the smallest power of two above `size`, the slots past
    `size` weighing 0, so a descent needs no bounds check and ends at or
    past `size` only when the draw is at or past the total. `paths[slot]`
    lists the tree nodes whose ranges hold the slot: moving its weight by d
    adds d to `weights[slot]`, to `total` and to each of those nodes.
    """

    def __init__(self, size: int):
        self.size = size
        self.weights = [0] * size
        self.total = 0
        span = 1 << size.bit_length()
        self.tree = [0] * (span + 1)
        self.descent = tuple(span >> k for k in range(1, span.bit_length()))  # span/2, ..., 1
        index = list(range(span + 1))  # one int object per node, shared by the paths
        self.paths: list[tuple[int, ...]] = []
        for slot in range(size):
            path, i = [], slot + 1
            while i <= span:
                path.append(index[i])
                i += i & -i
            self.paths.append(tuple(path))

    def set(self, slot: int, weight: int) -> None:
        delta = weight - self.weights[slot]
        if delta:
            self.weights[slot] = weight
            self.total += delta
            for i in self.paths[slot]:
                self.tree[i] += delta

    def copy(self) -> WeightTree:
        twin = object.__new__(WeightTree)  # reading vars(self) would slow self's attribute reads
        twin.size, twin.total, twin.descent, twin.paths = self.size, self.total, self.descent, self.paths
        twin.weights, twin.tree = self.weights[:], self.tree[:]
        return twin

    def count_at_most(self, x: float) -> int:
        """Number of leading slots whose prefix sum is <= x."""
        tree = self.tree
        pos = acc = 0
        for step in self.descent:
            grown = acc + tree[pos + step]  # int vs float compares exactly
            if grown <= x:
                pos += step
                acc = grown
        return pos


class Channel:
    """Ordered bounded multiset of in-transit packets for one (src, dst) pair.

    A full iteration floods up to ~2(n-1) packets while one delivery drains
    a single packet, so a channel's scheduler weight grows with its
    occupancy: 4 + 4*len, and 0 while the channel is empty or its
    destination has crashed. The channel only holds the packets; the
    simulation pushes, pops and re-weighs it at `slot`. It holds the RECV
    lines of a GOSSIP and a HEARTBEAT delivered here, up to their step.
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

    def __len__(self) -> int:
        return len(self.packets)


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
        # scheduler slots: iterate node i at i-1, channel (a, b) at
        # n + (a-1)*n + (b-1), i.e. nodes ascending, then channels sorted
        self.weights = WeightTree(n + n * n)
        for i in self.nodes:
            starved = i == 1 and cfg.scheduler_profile == "starve-one-node"
            self.weights.set(i - 1, 1 if starved else 8)
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

        # pending schedule pointers, ordered by (due step, config position)
        self.schedule = sorted(
            (
                (0 if e.step == ASAP else e.step, idx, e.node, e.payload)
                for idx, e in enumerate(cfg.broadcasts)
            ),
        )
        self.sched_ptr = 0
        self._plan_faults()

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

        self.peak_buffer = {i: 0 for i in self.nodes}
        self.counts = {
            "sends": {"MSG": 0, "MSGACK": 0, "GOSSIP": 0, "HEARTBEAT": 0},
            "omissions": 0,
            "duplications": 0,
            "resets": 0,
        }

        self._emit_snapshot()  # step-0 snapshot anchors the stabilization marker

    def _plan_faults(self) -> None:
        plan = self.cfg.fault_plan
        self.crash_plan = sorted((step, idx, node) for idx, (node, step) in enumerate(plan.crashes))
        self.corrupt_plan = sorted(
            (step, idx, node, kind) for idx, (node, step, kind) in enumerate(plan.corruptions))
        self.crash_ptr = self.corrupt_ptr = 0
        self.next_due = self._next_due()

    def branch(self, cfg: ScenarioConfig) -> Simulation:
        """This run continued under `cfg` as a standalone run of `cfg` goes on (see
        `run_scenarios`). The configs may differ only in their crashes and corruptions,
        none due before the current step, or a ValueError names the field. The mutable
        state is copied; paths, line tables, schedule, messages and lines are shared."""
        mine, theirs = self.cfg.to_dict(), cfg.to_dict()
        for flat in (mine, theirs):  # the fault plan's fields as fault_plan.<name>
            flat.update({f"fault_plan.{k}": v for k, v in flat.pop("fault_plan").items()})
        for key, value in mine.items():
            if key in ("fault_plan.crashes", "fault_plan.corruptions"):
                early = [f["step"] for f in value + theirs[key] if f["step"] < self.step]
                if early:
                    raise ValueError(f"{key}: a fault due at step {early[0]}, before step {self.step}")
            elif theirs[key] != value:
                raise ValueError(f"{key}: a branch may differ only in its crashes and corruptions")
        twin = object.__new__(Simulation)
        vars(twin).update(vars(self), cfg=cfg, rng=random.Random())
        twin.rng.setstate(self.rng.getstate())
        twin.trace = self.trace.branch(make_header(cfg))
        twin.nodes, twin.weights = {i: node.copy() for i, node in self.nodes.items()}, self.weights.copy()
        twin._link_channels({key: channel.copy() for key, channel in self.channels.items()})
        twin.crashed_at, twin.epoch_mids = dict(self.crashed_at), self.epoch_mids[:]
        twin.delivered_sets = {i: set(mids) for i, mids in self.delivered_sets.items()}
        twin.ct_satisfied, twin.peak_buffer = set(self.ct_satisfied), dict(self.peak_buffer)
        twin.ct_pending = {i: [set(w) for w in waits] for i, waits in self.ct_pending.items()}
        twin.ct_gossip_seen = {i: set(seen) for i, seen in self.ct_gossip_seen.items()}
        twin.counts = dict(self.counts, sends=dict(self.counts["sends"]))
        twin._plan_faults()
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

    def _view(self, node: SimNode) -> DetectorView:
        return DetectorView(node.theta.trusted_view(), tuple(node.hb.hb))

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

    def _reweigh(self, channel: Channel) -> None:
        held = len(channel.packets)
        self.weights.set(channel.slot, 4 + 4 * held if held and channel.dst_live else 0)

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

    def _emit_snapshot(self, boundary: bool = True) -> dict:
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
        # the in-flight packets, nearly all of a snapshot, are rendered from
        # their fields, each record with its JSON, rather than encoded as dicts
        channels_ser, channel_lines = [], []
        for channel in self.channel_slots:  # in sorted (src, dst) order
            if not channel.packets:
                continue
            packets, texts = [], []
            for m, birth in channel.packets:
                packet, text = m.in_flight(birth)
                packets.append(packet)
                texts.append(text)
            src, dst = channel.src, channel.dst
            channels_ser.append({"src": src, "dst": dst, "packets": packets})
            channel_lines.append(f'{{"dst":{dst},"packets":[{",".join(texts)}],"src":{src}}}')
        # each half is encoded once; the digest input and the trace line are
        # both assembled from the two strings
        nodes_json, channels_json = canonical(nodes_ser), f'[{",".join(channel_lines)}]'
        digest = hashlib.sha256(snapshot_state(nodes_json, channels_json).encode()).hexdigest()
        step, cycle = self.step, self.cycle_count
        record = {
            "type": "SNAPSHOT",
            "step": step,
            "cycle": cycle,
            "boundary": boundary,
            "nodes": nodes_ser,
            "channels": channels_ser,
            "digest": digest,
        }
        self.trace.append(
            record, snapshot_line(step, cycle, boundary, nodes_json, channels_json, digest)
        )
        return record

    # ---- packet plumbing ---------------------------------------------------

    def _send_all(self, src: int, outgoing: list[tuple[int, WireMessage]]) -> None:
        """Send each (dst, message) of `outgoing` from `src`, in order: a SEND
        record, then the push, or an overflow OMIT right after the SEND. No
        draw happens in between, so each channel that grew moves its Fenwick
        path once, after the last push, to its final weight."""
        step, row, trace, lines = self.step, self.rows[src], self.trace, self.send_lines
        append_record, append_line = trace.records.append, trace.pending.append
        sends, overflows = self.counts["sends"], self.overflow_lines
        at = f'"src":{src},"step":{step}'
        pushed: dict[Channel, None] = {}  # the channels that grew, in order
        for dst, msg in outgoing:
            cls = type(msg)
            code, heads, tail = lines[cls]
            sends[cls.kind] += 1
            if cls is Msg or cls is MsgAck:
                sender, seq = msg.sender, msg.seq
                append_record((code, sender, seq, step))
                append_line(f'{heads[dst]}"mid":[{sender},{seq}],{at}{tail}')
            else:
                append_record(code)
                append_line(f"{heads[dst]}{at}{tail}")
            channel = row[dst]
            packets = channel.packets
            if len(packets) >= channel.capacity:  # an overflow OMIT right after the SEND
                self.counts["omissions"] += 1
                code, heads, tail = overflows[cls]
                if cls is Msg or cls is MsgAck:
                    append_record((code, sender, seq, step))
                    append_line(f'{heads[dst]}"mid":[{sender},{seq}],{at}{tail}')
                else:
                    append_record(code)
                    append_line(f"{heads[dst]}{at}{tail}")
                continue
            packets.append((msg, step))
            pushed[channel] = None
        wt = self.weights
        tree, weights, paths = wt.tree, wt.weights, wt.paths
        moved = 0
        for channel in pushed:
            if channel.dst_live:  # a grown channel weighs 4 + 4*len, more than before
                slot = channel.slot
                delta = 4 + 4 * len(channel.packets) - weights[slot]
                weights[slot] += delta
                moved += delta
                for i in paths[slot]:
                    tree[i] += delta
        wt.total += moved

    def _iterate_action(self, i: int) -> None:
        node = self.nodes[i]
        node.theta.reconcile(self._delayed_crashed())
        # the heartbeats and the iteration's packets go out as one batch
        outgoing = node.hb.tick()
        result = node.state.do_forever_iteration(self._view(node))
        outgoing += result.outgoing
        self._send_all(i, outgoing)
        if i not in self.ct_satisfied:
            msg_sends = {
                (dst, msg.sender, msg.seq) for dst, msg in result.outgoing if type(msg) is Msg
            }
            if msg_sends:
                self.ct_pending[i].append(msg_sends)
            else:
                self._satisfy(i)
        step = self.step
        for sender, seq in result.delivered:
            self.trace.append(
                {"type": "DELIVER", "step": step, "node": i, "mid": [sender, seq]},
                deliver_line(step, i, sender, seq),
            )
            self.delivered_sets[i].add((sender, seq))
        for mid, payload in result.accepted:
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)
        if self.bounded_mode and node.state.check_overflow():
            self._start_barrier()
        held = len(node.state.buffer)
        if held > self.peak_buffer[i]:
            self.peak_buffer[i] = held

    # ---- scheduled faults and broadcasts --------------------------------------

    def _crash(self, i: int) -> None:
        if self.nodes[i].crashed:
            return
        self.nodes[i].crashed = True
        self.live = [k for k in self.live if k != i]
        self.weights.set(i - 1, 0)
        for src in self.nodes:
            channel = self.channels[(src, i)]
            channel.dst_live = False  # nothing here is ever delivered
            self._reweigh(channel)
        if i not in self.ct_satisfied:
            self.unsatisfied -= 1
        self.missing_gossip = self._count_missing_gossip()
        self.crashed_at[i] = self.step
        self._event("CRASH", node=i)

    def _corrupt(self, i: int, kind: str) -> None:
        if self.nodes[i].crashed:
            return
        in_channels = [self.channels[(src, i)] for src in sorted(self.nodes)]
        state = self.nodes[i].state
        corruption.inject(kind, state, in_channels, self.rng, self.step)
        for channel in in_channels:
            self._reweigh(channel)
        # make the damage visible to the next snapshot, not one iteration later
        state.observed = state._observe(sorted(self.nodes[i].theta.trusted_view()))
        self.last_corrupt_step = self.step
        self.marker_cycle = None
        self._event("CORRUPT", node=i, kind=kind)
        if self.bounded_mode and self.nodes[i].state.check_overflow():
            self._start_barrier()

    def _request_broadcast(self, i: int, payload: str) -> None:
        node = self.nodes[i]
        if node.crashed:
            return
        mid = node.state.urb_broadcast(self._view(node), payload)
        if mid is not None:
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)

    def _next_due(self) -> float:
        """The step of the earliest crash, corruption or broadcast still to come."""
        return min(
            plan[ptr][0] if ptr < len(plan) else math.inf
            for plan, ptr in (
                (self.crash_plan, self.crash_ptr),
                (self.corrupt_plan, self.corrupt_ptr),
                (self.schedule, self.sched_ptr),
            )
        )

    def _prologue(self) -> None:
        while self.crash_ptr < len(self.crash_plan) and self.crash_plan[self.crash_ptr][0] <= self.step:
            _, _, node = self.crash_plan[self.crash_ptr]
            self.crash_ptr += 1
            self._crash(node)
        while (
            self.corrupt_ptr < len(self.corrupt_plan)
            and self.corrupt_plan[self.corrupt_ptr][0] <= self.step
        ):
            _, _, node, kind = self.corrupt_plan[self.corrupt_ptr]
            self.corrupt_ptr += 1
            self._corrupt(node, kind)
        while self.sched_ptr < len(self.schedule) and self.schedule[self.sched_ptr][0] <= self.step:
            _, _, node, payload = self.schedule[self.sched_ptr]
            self.sched_ptr += 1
            self._request_broadcast(node, payload)
        self.next_due = self._next_due()

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
            self._reweigh(channel)
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
        """Called once every gossip pair is seen: whether every live node has
        met the round-trip clause too. O(1) unless crashes are known; then
        the unsatisfied nodes' pending round-trips are rescanned, because
        the clause that counts suspected targets changes with the step."""
        if self.unsatisfied and self.crashed_at:
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
        if self.sched_ptr < len(self.schedule):
            return False
        live = self.live
        live_set = set(live)
        for i in live:
            if self.nodes[i].state.pending:
                return False
        if not self.epoch_mids:
            return True
        # the ids in flight towards live nodes (and None for the control kinds)
        in_flight = {message_id(m) for c in self.channel_slots if c.dst_live for m, _ in c.packets}
        buffered: dict[tuple[int, int], bool] = {}  # mid -> all records delivered+fully acked
        for i in live:
            for r in self.nodes[i].state.buffer:
                mid = (r.sender, r.seq)
                ok = r.delivered and live_set.issubset(r.rec_by)
                buffered[mid] = buffered.get(mid, True) and ok
        for mid in self.epoch_mids:
            if mid in in_flight:
                return False
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
        return True

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
            # on, the first all-consistent snapshot
            if self.marker_cycle is None:
                self.marker_cycle = drained_cycle(snapshot, self.last_corrupt_step)
            settled = (
                self.marker_cycle is not None
                and self.cycle_count >= self.marker_cycle
                and self.sched_ptr >= len(self.schedule)
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
        the scheduled faults and broadcasts when due, draws a slot from the
        weight tree (inline, as `WeightTree` describes), runs that node's
        iteration or delivers one packet of that channel, and then drives
        the reset barrier, cycle accounting and interval snapshots. What a
        delivery reads is bound here once per call."""
        n, channel_slots = self.cfg.n, self.channel_slots
        nodes = [None] + [self.nodes[i] for i in range(1, n + 1)]  # nodes[i] is node i
        wt = self.weights
        tree, weights, paths, descent, size = wt.tree, wt.weights, wt.paths, wt.descent, wt.size
        rand, getrandbits = self.rng.random, self.rng.getrandbits
        reorder, omission, duplication = self.reorder_prob, self.omission_prob, self.duplication_prob
        trace = self.trace
        append_record, pending, flush = trace.records.append, trace.pending, trace.flush
        append_line = pending.append
        peak, bounded, interval = self.peak_buffer, self.bounded_mode, self.snapshot_interval
        lines, drops, dups, rows = self.recv_lines, self.drop_lines, self.dup_lines, self.rows
        gossip_code, hb_code, recv_tail = lines[Gossip][0], lines[Heartbeat][0], lines[Heartbeat][2]
        send_ack, overflow_ack = self.send_lines[MsgAck], self.overflow_lines[MsgAck]
        counts, sends = self.counts, self.counts["sends"]
        step, next_due = self.step, self.next_due
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
            total = wt.total
            x = rand() * total
            # x drops by each prefix the descent passes, exactly: x < 2**53,
            # so its ulp is at most 1 and divides every integer weight
            slot = 0
            for d in descent:
                weight = tree[slot + d]
                if weight <= x:
                    slot += d
                    x -= weight
            if slot >= size:  # the draw rounded to the total
                slot = wt.count_at_most(total - 1)
            if slot < n:
                self._iterate_action(slot + 1)
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
                    delta = -4 if held > 1 else -8
                    weights[slot] += delta
                    wt.total = total + delta
                    for i in paths[slot]:
                        tree[i] += delta
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
                        if cls is Msg:  # its MSGACK goes back alone, as `_send_all` would send it
                            ack = state.on_msg(msg.payload, sender, seq, src)
                            sends["MSGACK"] += 1
                            back = rows[dst][src]
                            full = len(back.packets) >= back.capacity  # then an overflow OMIT follows
                            at = f'"mid":[{ack.sender},{ack.seq}],"src":{dst},"step":{step}'
                            for code, heads, tail in (send_ack, overflow_ack) if full else (send_ack,):
                                append_record((code, ack.sender, ack.seq, step))
                                append_line(f"{heads[src]}{at}{tail}")
                            counts["omissions"] += full
                            if not full:
                                back.packets.append((ack, step))
                                if back.dst_live:  # it weighs 4 more, or 8 if it was empty
                                    delta = 4 if len(back.packets) > 1 else 8
                                    weights[back.slot] += delta
                                    wt.total += delta
                                    for i in paths[back.slot]:
                                        tree[i] += delta
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
                    held = len(state.buffer)
                    if held > peak[dst]:
                        peak[dst] = held
            if bounded and self.barrier_active and self._barrier_ready():
                self._apply_global_reset()
            stopping = not self.missing_gossip and self._cycle_complete()
            if stopping:
                self._on_cycle_boundary()  # the only setter of a stop reason
                stopping = self.stop_reason is not None
            if interval and step > 0 and step % interval == 0:
                self._emit_snapshot(boundary=False)
            if len(pending) >= CHUNK_LINES:
                flush()
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
        unfired = [(at, f"crash of node {i}") for at, _, i in self.crash_plan[self.crash_ptr:]]
        unfired += [(at, f"{kind} of node {i}") for at, _, i, kind in self.corrupt_plan[self.corrupt_ptr:]]
        unfired.sort(key=lambda fault: fault[0])
        return RunResult(
            self.trace, self._metrics(reason), [f"{what} at step {at}" for at, what in unfired]
        )

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
    rule ignores the faults still due. Should the stop rule ever read them,
    the trunk must act as if a fault were due until its last member branched."""
    first, groups = [], {}  # each config's first fault step; the groups
    for index, cfg in enumerate(cfgs):
        plan = cfg.fault_plan
        due = [at for _, at in plan.crashes] + [at for _, at, _ in plan.corruptions]
        first.append(min(due, default=math.inf))
        trunk_cfg = replace(cfg, fault_plan=replace(plan, crashes=[], corruptions=[]))
        groups.setdefault(trunk_cfg.config_hash(), (trunk_cfg, []))[1].append(index)
    for trunk_cfg, members in groups.values():
        trunk = Simulation(trunk_cfg)
        for index in sorted(members, key=first.__getitem__):
            due = min(first[index], trunk_cfg.max_steps)
            if trunk.stop_reason is None and trunk.step < due:
                trunk._steps(due - trunk.step)
            yield index, trunk.branch(cfgs[index]).run()
