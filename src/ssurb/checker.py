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
  every live node's state is consistent. After a corruption it must also
  come late enough: no corruption-era packet may still be in flight, and
  the marker waits one more cycle past the first snapshot at which none
  is, two if that snapshot was taken mid-cycle (`drained_cycle`; the
  simulator's `stabilized` stop rule applies the same function). Events
  before the marker are the recovery window and are exempt from the
  safety checks; FAIL always refers to the post-marker suffix.
* `TraceIndex` makes one pass over the events, and evaluates each
  snapshot's consistency at most once for all the checks together.
* Liveness-flavoured checks report INCONCLUSIVE rather than FAIL when
  the run was cut off by the step budget: a finite prefix cannot refute
  them.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def drained_cycle(snapshot: dict, last_corrupt_step: int | None) -> int | None:
    """First cycle whose snapshots may serve as the stabilization marker, as
    judged at `snapshot`; None while corruption-era packets are in flight.

    Effects of consumed corruption-era packets surface in a node's observed
    state only at its next repair pass, so once the backlog has drained the
    marker waits one full cycle past a boundary snapshot, or two past a
    mid-cycle one: by then every live node has iterated past its last stale
    intake. Without a corruption there is nothing to wait for.
    """
    if last_corrupt_step is None:
        return snapshot["cycle"]
    if stale_packets_in_flight(snapshot, last_corrupt_step):
        return None
    return snapshot["cycle"] + (1 if snapshot.get("boundary", True) else 2)


# ---------------------------------------------------------------------------
# trace indexing
# ---------------------------------------------------------------------------


class TraceIndex:
    """One pass over a trace: crash set, end reason, CORRUPT positions,
    snapshots, epochs as ranges of event positions, and each epoch's
    stabilization marker. Every snapshot verdict is computed at most once."""

    def __init__(self, header: dict, events: list[dict]):
        self.header = header
        self.events = events
        self.crashed: set[int] = set()
        self.end_reason: str | None = None
        self.corrupt_positions: list[int] = []
        # (position, step of the last CORRUPT before it) of every SNAPSHOT
        self.snapshots: list[tuple[int, int | None]] = []
        self.epochs: list[range] = []
        self._verdicts: dict[int, bool] = {}
        last_corrupt: int | None = None
        start = 0
        for pos, event in enumerate(events):
            etype = event["type"]
            if etype == "SNAPSHOT":
                self.snapshots.append((pos, last_corrupt))
            elif etype == "CORRUPT":
                self.corrupt_positions.append(pos)
                last_corrupt = event["step"]
            elif etype == "CRASH":
                self.crashed.add(event["node"])
            elif etype == "END":
                self.end_reason = event["reason"]
            elif etype == "RESET":
                self.epochs.append(range(start, pos + 1))
                start = pos + 1
        self.epochs.append(range(start, len(events)))
        self.never_crashed: list[int] = [
            i for i in range(1, header["n"] + 1) if i not in self.crashed
        ]
        # per epoch: its marker position, and its snapshots from the marker on
        self.markers: list[int | None] = []
        self.checked: list[tuple[int, int | None]] = []
        for epoch in self.epochs:
            snaps = [s for s in self.snapshots if s[0] in epoch]
            corrupt = [pos for pos in self.corrupt_positions if pos in epoch]
            marker = self.marker(snaps, corrupt[-1] if corrupt else None)
            self.markers.append(marker)
            if marker is not None:
                self.checked += [s for s in snaps if s[0] >= marker]

    def consistent(self, pos: int, last_corrupt_step: int | None) -> bool:
        """`snapshot_all_consistent` of the snapshot at `pos`, evaluated once."""
        verdict = self._verdicts.get(pos)
        if verdict is None:
            verdict = snapshot_all_consistent(self.events[pos], self.header, last_corrupt_step)
            self._verdicts[pos] = verdict
        return verdict

    def marker(
        self, snapshots: list[tuple[int, int | None]], frontier: int | None
    ) -> int | None:
        """Position of the first of `snapshots` at which the checked suffix
        starts: the first all-consistent one when there is no corruption
        (`frontier` None); otherwise the first all-consistent one after the
        last corruption at `frontier` that `drained_cycle` admits."""
        need = None if frontier is not None else 0
        for pos, ctx in snapshots:
            if frontier is not None and pos < frontier:
                continue
            snapshot = self.events[pos]
            if need is None:
                need = drained_cycle(snapshot, ctx)
                if need is None:
                    continue
            if snapshot["cycle"] >= need and self.consistent(pos, ctx):
                return pos
        return None


def index_trace(header: dict, events: list[dict]) -> TraceIndex:
    return TraceIndex(header, events)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def validity_check(ti: TraceIndex) -> CheckReport:
    """Every checked delivery traces back to an earlier broadcast of the same
    identity; deliveries in the recovery window, or of identities already
    present in the system state at the marker, are exempt."""
    events = ti.events
    exemptions = 0
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            exemptions += sum(1 for e in events[epoch.start:epoch.stop] if e["type"] == "DELIVER")
            continue
        marker_snapshot = events[marker]
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
        for event in events[epoch.start:marker]:
            if event["type"] in ("SEND", "RECV", "OMIT", "DUP") and "mid" in event:
                preexisting.add((event["mid"][0], event["mid"][1]))
        broadcast_at: dict[tuple[int, int], int] = {}
        for pos in epoch:
            event = events[pos]
            if event["type"] == "BROADCAST":
                mid = (event["mid"][0], event["mid"][1])
                if mid not in broadcast_at:
                    broadcast_at[mid] = pos
            elif event["type"] == "DELIVER":
                mid = (event["mid"][0], event["mid"][1])
                if mid in broadcast_at and broadcast_at[mid] < pos:
                    continue
                if pos < marker or mid in preexisting:
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
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        seen: set[tuple[int, int, int]] = set()
        for event in ti.events[marker:epoch.stop]:
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
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        antecedent: set[tuple[int, int]] = set()
        for event in ti.events[marker:epoch.stop]:
            if event["type"] in ("BROADCAST", "DELIVER") and event["node"] in survivors:
                antecedent.add((event["mid"][0], event["mid"][1]))
        delivered: set[tuple[int, tuple[int, int]]] = set()
        for event in ti.events[epoch.start:epoch.stop]:
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


def quiescence_check(ti: TraceIndex) -> CheckReport:
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
    events = ti.events[epoch.start:epoch.stop]
    cycles = [pos for pos, e in enumerate(events) if e["type"] == "CYCLE"]
    if len(cycles) < w:
        return CheckReport(
            "quiescence", "INCONCLUSIVE", witness={"reason": "fewer cycles than the window"}
        )
    tracked = {(e["mid"][0], e["mid"][1]) for e in events if e["type"] == "BROADCAST"}
    msg_events = 0
    gossip_events = 0
    heartbeat_events = 0
    witness = None
    for event in events[cycles[-w]:]:
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


def _inconsistency(snapshot: dict, header: dict, last_corrupt_step: int | None) -> dict:
    """FAIL witness for a snapshot that is not all-consistent: the first live
    node whose state breaks a clause, and that clause."""
    for entry in snapshot["nodes"]:
        if entry["crashed"]:
            continue
        ok, clause = consistency_check(snapshot, entry["id"], header, last_corrupt_step)
        if not ok:
            return {"node": entry["id"], "clause": clause, "step": snapshot["step"]}
    return {"reason": "stale packets never drained", "step": snapshot["step"]}


def consistency_closure_check(ti: TraceIndex) -> CheckReport:
    """Once the marker is reached, consistency holds at every later snapshot
    of the epoch (the marker already sits after the epoch's last corruption)."""
    for pos, corrupt_step in ti.checked:
        if not ti.consistent(pos, corrupt_step):
            snapshot = ti.events[pos]
            witness = _inconsistency(snapshot, ti.header, corrupt_step)
            witness["cycle"] = snapshot["cycle"]
            return CheckReport("consistency-closure", "FAIL", witness=witness)
    return CheckReport("consistency-closure", "PASS")


def buffer_bound_check(ti: TraceIndex) -> CheckReport:
    """Post-stabilization, each node buffers at most bufferUnitSize records per
    sender, hence at most bufferUnitSize * n in total."""
    b = ti.header["buffer_unit_size"]
    n = ti.header["n"]
    peak_total = 0
    for pos, _ in ti.checked:
        snapshot = ti.events[pos]
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
    trace. The marker search runs over the whole trace, across resets."""
    if not ti.corrupt_positions:
        return CheckReport("stabilization-time", "PASS", measured={"cycles": 0})
    frontier = ti.corrupt_positions[-1]
    marker = ti.marker(ti.snapshots, frontier)
    floor = frontier if marker is None else marker
    # read from the end: the trailing run of consistent snapshots from the
    # marker on, and the last inconsistent snapshot as the FAIL witness
    stable_pos: int | None = None
    witness: dict = {"reason": "never stabilized"}
    for pos, corrupt_step in reversed(ti.snapshots):
        if pos < floor:
            break
        if not ti.consistent(pos, corrupt_step):
            witness = _inconsistency(ti.events[pos], ti.header, corrupt_step)
            break
        stable_pos = pos
    if marker is None or stable_pos is None:
        return CheckReport("stabilization-time", "FAIL", witness=witness)
    cycles = sum(1 for event in ti.events[frontier:stable_pos] if event["type"] == "CYCLE")
    return CheckReport("stabilization-time", "PASS", measured={"cycles": cycles})


def fifo_check(ti: TraceIndex) -> CheckReport:
    """Post-marker deliveries from one sender arrive in ascending sequence
    order at every node."""
    if not ti.header["fifo_enabled"]:
        return CheckReport(
            "fifo-order", "INCONCLUSIVE", witness={"reason": "fifo disabled in this run"}
        )
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        last_seq: dict[tuple[int, int], int] = {}
        for event in ti.events[marker:epoch.stop]:
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


def message_cost(ti: TraceIndex) -> CheckReport:
    """Per-broadcast MSG+MSGACK send counts and broadcast-to-last-delivery
    latency in cycles. A measurement, aggregated by the scaling experiments."""
    per_mid: dict[str, dict] = {}
    for eidx, epoch in enumerate(ti.epochs):
        cycles = 0
        bcast_cycle: dict[tuple[int, int], int] = {}
        for event in ti.events[epoch.start:epoch.stop]:
            etype = event["type"]
            if etype == "CYCLE":
                cycles += 1
            elif etype == "BROADCAST":
                emid = (event["mid"][0], event["mid"][1])
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
