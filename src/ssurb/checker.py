"""Trace- and snapshot-level correctness oracles.

Every property the protocol promises is re-derived here directly from
the recorded events and state snapshots, independently of the node
implementation: broadcast validity/integrity/termination, per-broadcast
quiescence, the consistency predicate over full system snapshots,
consistency closure, buffer bounds, FIFO order, stabilization time and
message cost. Checks are pure over an immutable trace and re-running
one always yields the identical report.

Conventions shared by all checks:

* Message identity is the (broadcaster, seq) pair; payload uniqueness is
  the application's obligation.
* Traces are segmented into epochs at global-reset events; identities do
  not carry across epochs.
* The "stabilization marker" of an epoch is its first snapshot at which
  every live node's state is consistent. Events before the marker are
  the recovery window and are exempt from the safety checks; FAIL always
  refers to the post-marker suffix.
* Liveness-flavoured checks report INCONCLUSIVE rather than FAIL when
  the run was cut off by the step budget: a finite prefix cannot refute
  them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    witness: dict | None = None
    measured: dict | None = None

    def line(self) -> str:
        parts = [f"{self.name}: {self.verdict}"]
        if self.witness:
            parts.append(f"witness={self.witness}")
        if self.measured:
            parts.append(f"measured={self.measured}")
        return "  ".join(parts)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witness": self.witness,
            "measured": self.measured,
        }


# ---------------------------------------------------------------------------
# snapshot-level predicates
# ---------------------------------------------------------------------------


def _node_map(snapshot: dict) -> dict[int, dict]:
    return {entry["id"]: entry for entry in snapshot["nodes"]}


def _max_seq(node: dict, k: int, fifo: bool) -> int:
    best = node["next"][k - 1] - 1 if fifo else 0
    for r in node["buffer"]:
        if r["sender"] == k and r["seq"] > best:
            best = r["seq"]
    return best


def consistency_check(
    snapshot: dict, node_id: int, header: dict, last_corrupt_step: int | None
) -> tuple[bool, str | None]:
    """Evaluate the consistency predicate for one live node against a full
    system snapshot. Returns (ok, failing-clause-name)."""
    n = header["n"]
    b = header["buffer_unit_size"]
    fifo = header["fifo_enabled"]
    nodes = _node_map(snapshot)
    me = nodes[node_id]
    trusted = set(me["trusted"])
    seq = me["seq"]
    rx = me["rx_obs"]
    tx = me["tx_obs"]
    buffer = me["buffer"]

    # (i) local buffer/window clauses
    if any(r["payload"] is None for r in buffer):
        return False, "null-payload"
    identities = [(r["sender"], r["seq"]) for r in buffer]
    if len(identities) != len(set(identities)):
        return False, "duplicate-identity"
    ms = min(tx[k - 1] for k in trusted) if trusted else seq
    if not (ms <= seq <= ms + b):
        return False, "send-window"
    own_seqs = {r["seq"] for r in buffer if r["sender"] == node_id}
    for s in range(ms + 1, seq + 1):
        if s not in own_seqs:
            return False, "own-window-coverage"
    for k in range(1, n + 1):
        if _max_seq(me, k, fifo) - rx[k - 1] > b:
            return False, "receive-window"
    for r in buffer:
        if (
            rx[r["sender"] - 1] + 1 == r["seq"]
            and trusted.issubset(r["rec_by"])
            and r["delivered"]
        ):
            return False, "obsolete-record"
    for r in buffer:
        if r["sender"] == node_id:
            if r["seq"] <= ms:
                return False, "own-record-below-window"
        else:
            if r["seq"] <= rx[r["sender"] - 1]:
                return False, "foreign-record-obsolete"
            if _max_seq(me, r["sender"], fifo) > r["seq"] + b:
                return False, "foreign-record-window"

    # (ii) dominance of own seq over every value in the system related to it:
    # peer-buffered records, delivery cursors, in-flight packets, and every
    # obsolete watermark kept about this node's messages. Watermarks and seq
    # are monotone, so these clauses compare the live counters; the records a
    # peer holds are its observed ones.
    live = [k for k in sorted(nodes) if not nodes[k]["crashed"]]

    def live_seq(k):
        return nodes[k].get("live_seq", nodes[k]["seq"])

    def live_rx(k, about):
        return nodes[k].get("live_rx_obs", nodes[k]["rx_obs"])[about - 1]

    def live_tx(k, about):
        return nodes[k].get("live_tx_obs", nodes[k]["tx_obs"])[about - 1]

    my_seq = live_seq(node_id)
    for k in live:
        for r in nodes[k]["buffer"]:
            if r["sender"] == node_id and r["seq"] > my_seq:
                return False, "seq-dominance-buffer"
        if fifo:
            cursor = nodes[k].get("live_next", nodes[k]["next"])[node_id - 1]
            if cursor - 1 > my_seq:
                return False, "seq-dominance-next"
        if live_rx(k, node_id) > my_seq:
            return False, "peer-watermark-dominance"
        if live_tx(node_id, k) > my_seq:
            return False, "own-watermark-floor"
        if live_tx(node_id, k) > live_rx(k, node_id):
            return False, "watermark-dominance"
    for entry in snapshot["channels"]:
        dst = entry["dst"]
        if nodes[dst]["crashed"]:
            continue
        for packet in entry["packets"]:
            if last_corrupt_step is not None and packet["birth_step"] <= last_corrupt_step:
                continue
            kind = packet["kind"]
            if kind in ("MSG", "MSGACK"):
                if packet["sender"] == node_id and packet["seq"] > my_seq:
                    return False, "seq-dominance-packet"
            elif kind == "GOSSIP":
                src = entry["src"]
                if dst == node_id and packet["max_seq"] > my_seq:
                    return False, "seq-dominance-gossip"
                if dst == node_id and src in live:
                    if packet["rx_obs"] > live_rx(src, node_id):
                        return False, "stale-gossip-watermark"
                if src == node_id and dst in live:
                    if packet["tx_obs"] > live_rx(dst, node_id):
                        return False, "stale-gossip-echo"
    # the full send-window predicate over the live counters: when it does not
    # hold, a watermark repair (and its dominance dip) is still pending
    trusted_live = [k for k in sorted(trusted) if k in nodes and not nodes[k]["crashed"]]
    live_ms = (
        min(live_tx(node_id, k) for k in trusted_live) if trusted_live else my_seq
    )
    window_ok = live_ms <= my_seq <= live_ms + b
    if window_ok and my_seq > live_ms:
        live_own = set(me.get("live_own_seqs", sorted(own_seqs)))
        window_ok = all(s in live_own for s in range(live_ms + 1, my_seq + 1))
    if not window_ok:
        return False, "live-send-window"

    # (iii) per-sender bound at trusted peers, and the flow-control window
    for k in sorted(trusted):
        if k in nodes and not nodes[k]["crashed"]:
            count = sum(1 for r in nodes[k]["buffer"] if r["sender"] == node_id)
            if count > b:
                return False, "peer-buffer-bound"
    if seq > ms + b:
        return False, "flow-window"
    return True, None


def stale_packets_in_flight(snapshot: dict, last_corrupt_step: int | None) -> bool:
    """True while corruption-era protocol packets are still in transit toward
    live nodes; their consumption can re-poison node state."""
    if last_corrupt_step is None:
        return False
    crashed = {e["id"] for e in snapshot["nodes"] if e["crashed"]}
    for entry in snapshot["channels"]:
        if entry["dst"] in crashed:
            continue
        for packet in entry["packets"]:
            if packet["kind"] != "HEARTBEAT" and packet["birth_step"] <= last_corrupt_step:
                return True
    return False


def snapshot_all_consistent(
    snapshot: dict, header: dict, last_corrupt_step: int | None
) -> bool:
    """Every live node consistent, and no corruption-era protocol packet still
    in flight toward a live node."""
    if stale_packets_in_flight(snapshot, last_corrupt_step):
        return False
    for entry in snapshot["nodes"]:
        if entry["crashed"]:
            continue
        ok, _ = consistency_check(snapshot, entry["id"], header, last_corrupt_step)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# trace indexing
# ---------------------------------------------------------------------------


@dataclass
class _Epoch:
    events: list[dict] = field(default_factory=list)
    # positions (into self.events) of SNAPSHOT events, with effective
    # last-corrupt step at that point
    snapshots: list[tuple[int, int | None]] = field(default_factory=list)
    marker_pos: int | None = None


def _find_marker(
    events: list[dict], snapshots: list[tuple[int, int | None]], header: dict
) -> int | None:
    """Position of the first snapshot at which the checked suffix starts.

    Without corruption this is simply the first all-consistent snapshot.
    After a corruption, effects of consumed corruption-era packets surface in
    a node's observed state only at its next repair pass, so the marker must
    additionally sit at least one full cycle after the in-flight backlog
    drained: by then every live node has iterated past its last stale intake.
    """
    corrupt_positions = [pos for pos, e in enumerate(events) if e["type"] == "CORRUPT"]
    if not corrupt_positions:
        for pos, ctx in snapshots:
            if snapshot_all_consistent(events[pos], header, ctx):
                return pos
        return None
    frontier = corrupt_positions[-1]
    need_cycle = None
    for pos, ctx in snapshots:
        if pos < frontier:
            continue
        snapshot = events[pos]
        if not stale_packets_in_flight(snapshot, ctx):
            lag = 1 if snapshot.get("boundary", True) else 2
            need_cycle = snapshot["cycle"] + lag
            break
    if need_cycle is None:
        return None
    for pos, ctx in snapshots:
        if pos < frontier:
            continue
        snapshot = events[pos]
        if snapshot["cycle"] < need_cycle:
            continue
        if snapshot_all_consistent(snapshot, header, ctx):
            return pos
    return None


class TraceIndex:
    """Pre-digested view of a trace: epochs, markers, crash sets, end status."""

    def __init__(self, header: dict, events: list[dict]):
        self.header = header
        self.events = events
        self.crashed: set[int] = {
            e["node"] for e in events if e["type"] == "CRASH"
        }
        self.never_crashed: list[int] = [
            i for i in range(1, header["n"] + 1) if i not in self.crashed
        ]
        end = [e for e in events if e["type"] == "END"]
        self.end_reason: str | None = end[-1]["reason"] if end else None
        self.had_corruption = any(e["type"] == "CORRUPT" for e in events)

        self.epochs: list[_Epoch] = [_Epoch()]
        last_corrupt: int | None = None
        for event in events:
            etype = event["type"]
            if etype == "CORRUPT":
                last_corrupt = event["step"]
            epoch = self.epochs[-1]
            epoch.events.append(event)
            if etype == "SNAPSHOT":
                epoch.snapshots.append((len(epoch.events) - 1, last_corrupt))
            if etype == "RESET":
                self.epochs.append(_Epoch())
        for epoch in self.epochs:
            epoch.marker_pos = _find_marker(epoch.events, epoch.snapshots, header)

    def window(self, epoch: _Epoch) -> list[tuple[int, dict]]:
        """Post-marker events of an epoch (the whole epoch when it never
        stabilized is exempt, so the window is empty)."""
        if epoch.marker_pos is None:
            return []
        return list(enumerate(epoch.events))[epoch.marker_pos:]


def index_trace(header: dict, events: list[dict]) -> TraceIndex:
    return TraceIndex(header, events)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def validity_check(ti: TraceIndex) -> CheckReport:
    """Every checked delivery traces back to an earlier broadcast of the same
    identity; deliveries in the recovery window, or of identities already
    present in the system state at the marker, are exempt."""
    exemptions = 0
    for epoch in ti.epochs:
        if epoch.marker_pos is None:
            exemptions += sum(1 for e in epoch.events if e["type"] == "DELIVER")
            continue
        marker_snapshot = epoch.events[epoch.marker_pos]
        preexisting: set[tuple[int, int]] = set()
        for entry in marker_snapshot["nodes"]:
            for r in entry["buffer"]:
                preexisting.add((r["sender"], r["seq"]))
        for entry in marker_snapshot["channels"]:
            for packet in entry["packets"]:
                if packet["kind"] in ("MSG", "MSGACK"):
                    preexisting.add((packet["sender"], packet["seq"]))
        # identities that moved through the recovery window may be buffered
        # live without showing in the marker's observed states yet
        for event in epoch.events[: epoch.marker_pos]:
            if event["type"] in ("SEND", "RECV", "OMIT", "DUP") and "mid" in event:
                preexisting.add((event["mid"][0], event["mid"][1]))
        broadcast_at: dict[tuple[int, int], int] = {}
        for pos, event in enumerate(epoch.events):
            if event["type"] == "BROADCAST":
                mid = (event["mid"][0], event["mid"][1])
                if mid not in broadcast_at:
                    broadcast_at[mid] = pos
            elif event["type"] == "DELIVER":
                mid = (event["mid"][0], event["mid"][1])
                if mid in broadcast_at and broadcast_at[mid] < pos:
                    continue
                if pos < epoch.marker_pos or mid in preexisting:
                    exemptions += 1
                    continue
                return CheckReport(
                    "validity",
                    "FAIL",
                    witness={"step": event["step"], "node": event["node"], "mid": list(mid)},
                )
    return CheckReport("validity", "PASS", measured={"exemptions": exemptions})


def integrity_check(ti: TraceIndex) -> CheckReport:
    """No (node, identity) pair is delivered twice in the checked window."""
    for epoch in ti.epochs:
        seen: set[tuple[int, int, int]] = set()
        for _, event in ti.window(epoch):
            if event["type"] != "DELIVER":
                continue
            key = (event["node"], event["mid"][0], event["mid"][1])
            if key in seen:
                return CheckReport(
                    "integrity",
                    "FAIL",
                    witness={"step": event["step"], "node": event["node"], "mid": event["mid"]},
                )
            seen.add(key)
    return CheckReport("integrity", "PASS")


def termination_check(ti: TraceIndex) -> CheckReport:
    """Whatever a never-crashed node broadcast or delivered in the checked
    window, every never-crashed node delivered within the epoch."""
    survivors = set(ti.never_crashed)
    incomplete = ti.end_reason != "complete-delivery"
    for epoch in ti.epochs:
        antecedent: set[tuple[int, int]] = set()
        for _, event in ti.window(epoch):
            if event["type"] == "BROADCAST" and event["node"] in survivors:
                antecedent.add((event["mid"][0], event["mid"][1]))
            elif event["type"] == "DELIVER" and event["node"] in survivors:
                antecedent.add((event["mid"][0], event["mid"][1]))
        delivered: set[tuple[int, tuple[int, int]]] = set()
        for event in epoch.events:
            if event["type"] == "DELIVER":
                delivered.add((event["node"], (event["mid"][0], event["mid"][1])))
        for mid in sorted(antecedent):
            for node in sorted(survivors):
                if (node, mid) not in delivered:
                    if incomplete:
                        return CheckReport(
                            "termination",
                            "INCONCLUSIVE",
                            witness={"node": node, "mid": list(mid), "reason": ti.end_reason},
                        )
                    return CheckReport(
                        "termination", "FAIL", witness={"node": node, "mid": list(mid)}
                    )
    return CheckReport("termination", "PASS")


def quiescence_check(ti: TraceIndex, mid: tuple[int, int] | None = None) -> CheckReport:
    """Zero MSG/MSGACK traffic for delivered broadcasts inside the final
    quiescence window; control gossip and heartbeats keep flowing."""
    if ti.end_reason != "complete-delivery":
        return CheckReport(
            "quiescence",
            "INCONCLUSIVE",
            witness={"reason": f"run ended by {ti.end_reason}, no quiescence window"},
        )
    w = ti.header["quiescence_window_cycles"]
    epoch = ti.epochs[-1]
    cycles = [pos for pos, e in enumerate(epoch.events) if e["type"] == "CYCLE"]
    if len(cycles) < w:
        return CheckReport(
            "quiescence", "INCONCLUSIVE", witness={"reason": "fewer cycles than the window"}
        )
    start = cycles[-w]
    tracked = (
        {mid}
        if mid is not None
        else {
            (e["mid"][0], e["mid"][1])
            for e in epoch.events
            if e["type"] == "BROADCAST"
        }
    )
    msg_events = 0
    gossip_events = 0
    heartbeat_events = 0
    witness = None
    for event in epoch.events[start:]:
        if event["type"] not in ("SEND", "RECV"):
            continue
        kind = event["kind"]
        if kind in ("MSG", "MSGACK"):
            emid = (event["mid"][0], event["mid"][1])
            if emid in tracked:
                msg_events += 1
                if witness is None:
                    witness = {"step": event["step"], "kind": kind, "mid": event["mid"]}
        elif kind == "GOSSIP":
            gossip_events += 1
        elif kind == "HEARTBEAT":
            heartbeat_events += 1
    measured = {
        "msg_events_in_window": msg_events,
        "gossip_events_in_window": gossip_events,
        "heartbeat_events_in_window": heartbeat_events,
        "window_cycles": w,
    }
    if msg_events:
        return CheckReport("quiescence", "FAIL", witness=witness, measured=measured)
    return CheckReport("quiescence", "PASS", measured=measured)


def consistency_closure_check(ti: TraceIndex) -> CheckReport:
    """Once the marker is reached, consistency holds at every later snapshot
    of the epoch (the marker already sits after the epoch's last corruption)."""
    for epoch in ti.epochs:
        if epoch.marker_pos is None:
            continue
        for pos, corrupt_step in epoch.snapshots:
            if pos <= epoch.marker_pos:
                continue
            snapshot = epoch.events[pos]
            if not snapshot_all_consistent(snapshot, ti.header, corrupt_step):
                return CheckReport(
                    "consistency-closure",
                    "FAIL",
                    witness={"step": snapshot["step"], "cycle": snapshot["cycle"]},
                )
    return CheckReport("consistency-closure", "PASS")


def buffer_bound_check(ti: TraceIndex) -> CheckReport:
    """Post-stabilization, each node buffers at most bufferUnitSize records per
    sender, hence at most bufferUnitSize * n in total."""
    b = ti.header["buffer_unit_size"]
    n = ti.header["n"]
    peak_total = 0
    for epoch in ti.epochs:
        if epoch.marker_pos is None:
            continue
        for pos, _ in epoch.snapshots:
            if pos < epoch.marker_pos:
                continue
            snapshot = epoch.events[pos]
            for entry in snapshot["nodes"]:
                if entry["crashed"]:
                    continue
                per_sender: dict[int, int] = {}
                for r in entry["buffer"]:
                    per_sender[r["sender"]] = per_sender.get(r["sender"], 0) + 1
                total = len(entry["buffer"])
                peak_total = max(peak_total, total)
                if total > b * n or any(c > b for c in per_sender.values()):
                    return CheckReport(
                        "buffer-bounds",
                        "FAIL",
                        witness={
                            "step": snapshot["step"],
                            "node": entry["id"],
                            "total": total,
                            "per_sender": per_sender,
                        },
                    )
    return CheckReport("buffer-bounds", "PASS", measured={"peak_total": peak_total})


def stabilization_time(ti: TraceIndex) -> CheckReport:
    """Cycles between the last corruption and the first marker-eligible
    snapshot from which every live node stays consistent for the rest of the
    trace."""
    if not ti.had_corruption:
        return CheckReport("stabilization-time", "PASS", measured={"cycles": 0})
    last_corrupt_pos = max(
        pos for pos, e in enumerate(ti.events) if e["type"] == "CORRUPT"
    )
    snaps: list[tuple[int, int | None]] = []  # (global pos, corrupt step context)
    last_corrupt: int | None = None
    for pos, event in enumerate(ti.events):
        if event["type"] == "CORRUPT":
            last_corrupt = event["step"]
        if event["type"] == "SNAPSHOT":
            snaps.append((pos, last_corrupt))
    marker = _find_marker(ti.events, snaps, ti.header)
    flags = {
        pos: snapshot_all_consistent(ti.events[pos], ti.header, corrupt)
        for pos, corrupt in snaps
        if pos > last_corrupt_pos
    }
    stable_pos: int | None = None
    if marker is not None:
        later = [pos for pos in flags if pos >= marker]
        for candidate in sorted(later):
            if all(flags[pos] for pos in later if pos >= candidate):
                stable_pos = candidate
                break
    if stable_pos is None:
        failing = [pos for pos, ok in sorted(flags.items()) if not ok]
        witness: dict = {"reason": "never stabilized"}
        if failing:
            snapshot = ti.events[failing[-1]]
            ctx = dict(snaps)[failing[-1]]
            for entry in snapshot["nodes"]:
                if entry["crashed"]:
                    continue
                ok, clause = consistency_check(snapshot, entry["id"], ti.header, ctx)
                if not ok:
                    witness = {"node": entry["id"], "clause": clause, "step": snapshot["step"]}
                    break
            else:
                witness = {"reason": "stale packets never drained", "step": snapshot["step"]}
        return CheckReport("stabilization-time", "FAIL", witness=witness)
    cycles = sum(
        1
        for event in ti.events[last_corrupt_pos:stable_pos]
        if event["type"] == "CYCLE"
    )
    return CheckReport("stabilization-time", "PASS", measured={"cycles": cycles})


def fifo_check(ti: TraceIndex) -> CheckReport:
    """Post-marker deliveries from one sender arrive in ascending sequence
    order at every node."""
    if not ti.header["fifo_enabled"]:
        return CheckReport(
            "fifo-order", "INCONCLUSIVE", witness={"reason": "fifo disabled in this run"}
        )
    for epoch in ti.epochs:
        last_seq: dict[tuple[int, int], int] = {}
        for _, event in ti.window(epoch):
            if event["type"] != "DELIVER":
                continue
            node = event["node"]
            sender, seq = event["mid"]
            key = (node, sender)
            if key in last_seq and seq <= last_seq[key]:
                return CheckReport(
                    "fifo-order",
                    "FAIL",
                    witness={"step": event["step"], "node": node, "mid": event["mid"]},
                )
            last_seq[key] = seq
    return CheckReport("fifo-order", "PASS")


def message_cost(ti: TraceIndex, mid: tuple[int, int] | None = None) -> CheckReport:
    """Per-broadcast MSG+MSGACK send counts and broadcast-to-last-delivery
    latency in cycles. A measurement, aggregated by the scaling experiments."""
    per_mid: dict[str, dict] = {}
    for eidx, epoch in enumerate(ti.epochs):
        cycles = 0
        bcast_cycle: dict[tuple[int, int], int] = {}
        for event in epoch.events:
            etype = event["type"]
            if etype == "CYCLE":
                cycles += 1
            elif etype == "BROADCAST":
                emid = (event["mid"][0], event["mid"][1])
                if mid is not None and emid != mid:
                    continue
                bcast_cycle[emid] = cycles
                per_mid[f"{eidx}:{emid[0]}:{emid[1]}"] = {
                    "msg_sends": 0,
                    "ack_sends": 0,
                    "latency_cycles": None,
                }
            elif etype == "SEND" and "mid" in event:
                emid = (event["mid"][0], event["mid"][1])
                key = f"{eidx}:{emid[0]}:{emid[1]}"
                if key in per_mid:
                    which = "msg_sends" if event["kind"] == "MSG" else "ack_sends"
                    per_mid[key][which] += 1
            elif etype == "DELIVER":
                emid = (event["mid"][0], event["mid"][1])
                key = f"{eidx}:{emid[0]}:{emid[1]}"
                if key in per_mid and emid in bcast_cycle:
                    latency = cycles - bcast_cycle[emid]
                    entry = per_mid[key]
                    if entry["latency_cycles"] is None or latency > entry["latency_cycles"]:
                        entry["latency_cycles"] = latency
    totals = [v["msg_sends"] + v["ack_sends"] for v in per_mid.values()]
    measured = {
        "per_broadcast": per_mid,
        "max_total": max(totals) if totals else 0,
        "max_latency_cycles": max(
            (v["latency_cycles"] for v in per_mid.values() if v["latency_cycles"] is not None),
            default=0,
        ),
    }
    return CheckReport("message-cost", "PASS", measured=measured)


def check_all(header: dict, events: list[dict]) -> list[CheckReport]:
    """The standard battery, in reporting order."""
    ti = index_trace(header, events)
    return [
        validity_check(ti),
        integrity_check(ti),
        termination_check(ti),
        quiescence_check(ti),
        consistency_closure_check(ti),
        buffer_bound_check(ti),
        stabilization_time(ti),
        fifo_check(ti),
        message_cost(ti),
    ]


def gate(reports: list[CheckReport]) -> int:
    """CI exit status: 0 when nothing failed, 1 otherwise."""
    return 1 if any(r.verdict == "FAIL" for r in reports) else 0
