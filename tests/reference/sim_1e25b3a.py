"""The simulator as it was at commit 1e25b3a, a differential oracle.

A test-only second implementation of `ssurb.sim` (`tests/test_sim_reference.py`,
`scripts/digest_battery.py --reference`): `src/ssurb/sim.py` at 1e25b3a,
the last tree before the hot path was rewritten, with a plain weighted
action list drawn by `random.choices`, `randrange` for the reorder pick,
one `_send` and one `_deliver_action` per packet and a dict per trace
record. It runs HEAD's `ssurb.node`, `detectors`, `wire`, `config`,
`corruption` and `checker`, so it checks the simulator and the trace layer
rather than the pure node. Nothing under `src/` imports it.

Adapted to HEAD, and otherwise copied verbatim:

* the package-relative imports name `ssurb.*`, and `Trace`, `canonical`
  and `make_header` come from `reference.trace_1e25b3a`;
* `_view` reads `tuple(node.hb.hb)` where it called `node.hb.snapshot()`,
  which is gone;
* `_iterate_action` sends the heartbeats, which `tick` now returns without
  their destinations, to `node.hb.peers` in order, and the iteration's
  `result.gossips`, which no longer sit in `result.outgoing`, after
  `result.outgoing`, each to the peer at its position in `node.hb.peers`.

Original docstring:

Deterministic discrete-event network simulator.

One scheduler action per step: a node runs a full iteration of its
protocol loop, or one in-transit packet is delivered (subject to seeded
omission/duplication/reorder draws), or a scheduled crash/corruption
fires. Channels are bounded; overflow drops the newest packet, which the
fault model already covers as an omission. The simulator also accounts
asynchronous cycles (every live node completed an iteration, its
request-reply messages round-tripped or their targets became suspected,
and a gossip from it reached every live peer), drives the bounded-mode
global reset barrier, and appends everything to the trace.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from reference.trace_1e25b3a import Trace, canonical, make_header

from ssurb import corruption
from ssurb.checker import snapshot_all_consistent, stale_packets_in_flight
from ssurb.config import ASAP, ScenarioConfig
from ssurb.detectors import DetectorView, HeartbeatState, ThetaState
from ssurb.node import DISABLED, NORMAL, RESETTING, NodeState
from ssurb.wire import Gossip, Heartbeat, Msg, MsgAck, WireMessage, encode, message_id


def payload_hash(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class Channel:
    """Ordered bounded multiset of in-transit packets for one (src, dst) pair."""

    def __init__(self, src: int, dst: int, capacity: int):
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self.packets: list[tuple[WireMessage, int]] = []  # (message, birth step)

    def push(self, msg: WireMessage, step: int) -> bool:
        if len(self.packets) >= self.capacity:
            return False
        self.packets.append((msg, step))
        return True

    def pop(self, idx: int) -> tuple[WireMessage, int]:
        return self.packets.pop(idx)

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


@dataclass
class RunResult:
    trace: Trace
    metrics: dict


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.trace = Trace(make_header(cfg))
        self.nodes = {i: SimNode(i, cfg) for i in range(1, cfg.n + 1)}
        self.channels = {
            (a, b): Channel(a, b, cfg.channel_capacity)
            for a in range(1, cfg.n + 1)
            for b in range(1, cfg.n + 1)
        }
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
        self.crash_plan = sorted(
            ((step, idx, node) for idx, (node, step) in enumerate(cfg.fault_plan.crashes))
        )
        self.crash_ptr = 0
        self.corrupt_plan = sorted(
            (
                (step, idx, node, kind)
                for idx, (node, step, kind) in enumerate(cfg.fault_plan.corruptions)
            )
        )
        self.corrupt_ptr = 0

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
        self.stale_free_cycle: int | None = None

        self.peak_buffer = {i: 0 for i in self.nodes}
        self.counts = {
            "sends": {"MSG": 0, "MSGACK": 0, "GOSSIP": 0, "HEARTBEAT": 0},
            "omissions": 0,
            "duplications": 0,
            "resets": 0,
        }

        self._emit_snapshot()  # step-0 snapshot anchors the stabilization marker

    # ---- helpers -------------------------------------------------------

    def live_nodes(self) -> list[int]:
        return [i for i in self.nodes if not self.nodes[i].crashed]

    def _delayed_crashed(self) -> set[int]:
        latency = self.cfg.fault_plan.detection_latency
        return {i for i, at in self.crashed_at.items() if at + latency <= self.step}

    def _view(self, node: SimNode) -> DetectorView:
        return DetectorView(node.theta.trusted_view(), tuple(node.hb.hb))

    def _reset_cycle_tracker(self) -> None:
        # a node satisfies the round-trip clause once any iteration it started
        # in the window has all of its MSG sends acked (or targets suspected)
        self.ct_satisfied: set[int] = set()
        self.ct_pending: dict[int, list[set[tuple[int, int, int]]]] = {
            i: [] for i in self.nodes
        }
        self.ct_gossip_seen: dict[int, set[int]] = {i: set() for i in self.nodes}

    # ---- event emission --------------------------------------------------

    def _event(self, etype: str, **fields) -> None:
        record = {"type": etype, "step": self.step}
        record.update(fields)
        self.trace.append(record)

    def _packet_event(
        self, etype: str, src: int, dst: int, msg: WireMessage, cause: str | None = None
    ) -> None:
        # SEND/RECV are nearly all events, so the record is built here
        # rather than through _event's keyword dict
        record = {"type": etype, "step": self.step, "src": src, "dst": dst, "kind": msg.kind}
        mid = message_id(msg)
        if mid is not None:
            record["mid"] = list(mid)
        if cause is not None:
            record["cause"] = cause
        self.trace.append(record)

    def _emit_snapshot(self, boundary: bool = True) -> None:
        nodes_ser = []
        for i in sorted(self.nodes):
            node = self.nodes[i]
            # nodes are observed at their last completed repair pass; between-
            # iteration handler effects surface one pass later. The monotone
            # counters are additionally snapshotted live: the cross-node
            # dominance checks compare against them without that lag.
            entry = dict(node.state.observed)
            entry["crashed"] = node.crashed
            entry["hb"] = list(node.hb.hb[1:])
            entry["suspected"] = sorted(node.theta.suspected)
            entry["live_seq"] = node.state.seq
            entry["live_rx_obs"] = list(node.state.rx_obs[1:])
            entry["live_tx_obs"] = list(node.state.tx_obs[1:])
            entry["live_next"] = list(node.state.next_deliver[1:])
            entry["live_own_seqs"] = sorted(
                r.seq for r in node.state.buffer if r.sender == i
            )
            nodes_ser.append(entry)
        channels_ser = []
        for key in sorted(self.channels):
            channel = self.channels[key]
            if not channel.packets:
                continue
            channels_ser.append(
                {
                    "src": channel.src,
                    "dst": channel.dst,
                    "packets": [
                        dict(encode(m), birth_step=birth) for m, birth in channel.packets
                    ],
                }
            )
        digest = hashlib.sha256(
            canonical({"nodes": nodes_ser, "channels": channels_ser}).encode()
        ).hexdigest()
        self._event(
            "SNAPSHOT",
            cycle=self.cycle_count,
            boundary=boundary,
            nodes=nodes_ser,
            channels=channels_ser,
            digest=digest,
        )

    # ---- packet plumbing ---------------------------------------------------

    def _send(self, src: int, dst: int, msg: WireMessage) -> None:
        self.counts["sends"][msg.kind] += 1
        self._packet_event("SEND", src, dst, msg)
        if not self.channels[(src, dst)].push(msg, self.step):
            self.counts["omissions"] += 1
            self._packet_event("OMIT", src, dst, msg, cause="overflow")

    def _deliver_action(self, src: int, dst: int) -> None:
        plan = self.cfg.fault_plan
        channel = self.channels[(src, dst)]
        reorder = plan.reorder_prob
        if self.cfg.scheduler_profile == "reorder-heavy":
            reorder = max(reorder, 0.9)
        idx = 0
        if len(channel) > 1 and self.rng.random() < reorder:
            idx = self.rng.randrange(len(channel))
        msg, birth = channel.pop(idx)
        if self.rng.random() < plan.omission_prob:
            self.counts["omissions"] += 1
            self._packet_event("OMIT", src, dst, msg, cause="drop")
            return
        if self.rng.random() < plan.duplication_prob:
            if channel.push(msg, birth):
                self.counts["duplications"] += 1
                self._packet_event("DUP", src, dst, msg)
        self._packet_event("RECV", src, dst, msg)

        node = self.nodes[dst]
        if isinstance(msg, Msg):
            ack = node.state.on_msg(msg.payload, msg.sender, msg.seq, src)
            self._send(dst, src, ack)
        elif isinstance(msg, MsgAck):
            node.state.on_msg_ack(msg.sender, msg.seq, src)
            if dst not in self.ct_satisfied:
                key = (src, msg.sender, msg.seq)
                for pending in self.ct_pending[dst]:
                    pending.discard(key)
        elif isinstance(msg, Gossip):
            node.state.on_gossip(msg.max_seq, msg.rx_obs, msg.tx_obs, src)
            self.ct_gossip_seen[src].add(dst)
        elif isinstance(msg, Heartbeat):
            node.hb.on_heartbeat(msg.sender_count, msg.dst_count, src)
        if self.cfg.bounded_mode and node.state.check_overflow():
            self._start_barrier()
        self.peak_buffer[dst] = max(self.peak_buffer[dst], len(node.state.buffer))

    def _iterate_action(self, i: int) -> None:
        node = self.nodes[i]
        node.theta.reconcile(self._delayed_crashed())
        for dst, beat in zip(node.hb.peers, node.hb.tick()):
            self._send(i, dst, beat)
        view = self._view(node)
        result = node.state.do_forever_iteration(view)
        msg_sends: set[tuple[int, int, int]] = set()
        for dst, msg in result.outgoing + list(zip(node.hb.peers, result.gossips)):
            if isinstance(msg, Msg):
                msg_sends.add((dst, msg.sender, msg.seq))
            self._send(i, dst, msg)
        for sender, seq in result.delivered:
            self._event("DELIVER", node=i, mid=[sender, seq])
            self.delivered_sets[i].add((sender, seq))
        for mid, payload in result.accepted:
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)
        if self.cfg.bounded_mode and node.state.check_overflow():
            self._start_barrier()
        if i not in self.ct_satisfied:
            if msg_sends:
                self.ct_pending[i].append(msg_sends)
            else:
                self.ct_satisfied.add(i)
                self.ct_pending[i] = []
        self.peak_buffer[i] = max(self.peak_buffer[i], len(node.state.buffer))

    # ---- scheduled faults and broadcasts --------------------------------------

    def _crash(self, i: int) -> None:
        if self.nodes[i].crashed:
            return
        self.nodes[i].crashed = True
        self.crashed_at[i] = self.step
        self._event("CRASH", node=i)

    def _corrupt(self, i: int, kind: str) -> None:
        if self.nodes[i].crashed:
            return
        in_channels = [self.channels[(src, i)] for src in sorted(self.nodes)]
        state = self.nodes[i].state
        corruption.inject(kind, state, in_channels, self.rng, self.step)
        # make the damage visible to the next snapshot, not one iteration later
        state.observed = state._observe(sorted(self.nodes[i].theta.trusted_view()))
        self.last_corrupt_step = self.step
        self.stale_free_cycle = None
        self._event("CORRUPT", node=i, kind=kind)
        if self.cfg.bounded_mode and self.nodes[i].state.check_overflow():
            self._start_barrier()

    def _request_broadcast(self, i: int, payload: str) -> None:
        node = self.nodes[i]
        if node.crashed:
            return
        mid = node.state.urb_broadcast(self._view(node), payload)
        if mid is not None:
            self._event("BROADCAST", node=i, mid=list(mid), payload_hash=payload_hash(payload))
            self.epoch_mids.append(mid)

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

    # ---- bounded-counter reset barrier -------------------------------------------

    def _start_barrier(self) -> None:
        if self.barrier_active:
            return
        self.barrier_active = True
        live = self.live_nodes()
        for i in live:
            if self.nodes[i].state.reset_phase == NORMAL:
                self.nodes[i].state.reset_phase = DISABLED
        self._event("DISABLE", nodes=live)

    def _barrier_ready(self) -> bool:
        for i in self.live_nodes():
            state = self.nodes[i].state
            if state.reset_phase != DISABLED:
                return False
            if any(not r.delivered for r in state.buffer):
                return False
        return True

    def _apply_global_reset(self) -> None:
        live = self.live_nodes()
        for i in live:
            self.nodes[i].state.reset_phase = RESETTING
        for i in live:
            self.nodes[i].state.perform_global_reset()
            self.nodes[i].hb.reset()
        for channel in self.channels.values():
            channel.packets.clear()
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
        live = self.live_nodes()
        if not live:
            return False
        suspected: set[int] | None = None
        for i in live:
            if i not in self.ct_satisfied:
                done = False
                for pending in self.ct_pending[i]:
                    if not pending:
                        done = True
                    else:
                        if suspected is None:
                            suspected = self._delayed_crashed()
                        if all(dst in suspected for dst, _, _ in pending):
                            done = True
                    if done:
                        break
                if not done:
                    return False
                self.ct_satisfied.add(i)
                self.ct_pending[i] = []
            seen = self.ct_gossip_seen[i]
            for k in live:
                if k != i and k not in seen:
                    return False
        return True

    # ---- stop predicate ---------------------------------------------------------

    def _settled_complete_delivery(self) -> bool:
        if self.sched_ptr < len(self.schedule):
            return False
        live = self.live_nodes()
        live_set = set(live)
        for i in live:
            if self.nodes[i].state.pending:
                return False
        if not self.epoch_mids:
            return True
        in_flight: set[tuple[int, int]] = set()
        for (src, dst), channel in self.channels.items():
            if self.nodes[dst].crashed:
                continue
            for msg, _ in channel.packets:
                mid = message_id(msg)
                if mid is not None:
                    in_flight.add(mid)
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
        self._emit_snapshot()
        self._reset_cycle_tracker()

        mode = self.cfg.stop_mode
        settled = False
        if mode == "complete-delivery":
            settled = self._settled_complete_delivery()
        elif mode == "stabilized":
            # mirror the checker's marker eligibility: corruption-era packets
            # drained, plus one full cycle for their effects to be observed
            snapshot = self.trace.events[-1]
            if not stale_packets_in_flight(snapshot, self.last_corrupt_step):
                if self.stale_free_cycle is None:
                    self.stale_free_cycle = self.cycle_count
                eligible = (
                    self.last_corrupt_step is None
                    or self.cycle_count > self.stale_free_cycle
                )
                settled = (
                    eligible
                    and self.sched_ptr >= len(self.schedule)
                    and snapshot_all_consistent(
                        snapshot, self.trace.header, self.last_corrupt_step
                    )
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

    def step_once(self) -> None:
        self._prologue()
        live = self.live_nodes()
        if not live:
            self.stop_reason = "all-crashed"
            return

        # a full iteration floods up to ~2(n-1) packets while one delivery
        # drains a single packet, so drains are weighted by channel occupancy
        # to keep the network from sitting at capacity
        actions: list[tuple] = [("iterate", i) for i in live]
        weights = [8] * len(actions)
        if self.cfg.scheduler_profile == "starve-one-node":
            for pos, action in enumerate(actions):
                if action[1] == 1:
                    weights[pos] = 1
        for key in sorted(self.channels):
            channel = self.channels[key]
            if channel.packets and not self.nodes[key[1]].crashed:
                actions.append(("deliver", key[0], key[1]))
                weights.append(4 + 4 * len(channel.packets))

        choice = self.rng.choices(actions, weights=weights, k=1)[0]
        if choice[0] == "iterate":
            self._iterate_action(choice[1])
        else:
            self._deliver_action(choice[1], choice[2])

        if self.cfg.bounded_mode and self.barrier_active and self._barrier_ready():
            self._apply_global_reset()

        if self._cycle_complete():
            self._on_cycle_boundary()
        if (
            self.cfg.snapshot_interval
            and self.step > 0
            and self.step % self.cfg.snapshot_interval == 0
        ):
            self._emit_snapshot(boundary=False)
        self.step += 1

    def run(self) -> RunResult:
        while self.step < self.cfg.max_steps and self.stop_reason is None:
            self.step_once()
        reason = self.stop_reason or "max-steps"
        self._event("END", reason=reason)
        return RunResult(self.trace, self._metrics(reason))

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
