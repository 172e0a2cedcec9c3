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
* Liveness-flavoured checks report INCONCLUSIVE rather than FAIL when
  the run was cut off by the step budget: a finite prefix cannot refute
  them.

Cost. The consistency predicate has one implementation,
`evaluate_snapshot`: it derives the facts that relate nodes once per
snapshot, among them the first packet clause each node breaks, in one
ordered walk over the packets in flight, and then checks each node against
them, so a snapshot costs O(its size) rather than O(n * its size). Its
stale flag comes from `stale_packets_in_flight`, the one rule for
corruption-era packets, which `drained_cycle` applies too.
`snapshot_all_consistent` (the simulator's `stabilized` stop rule) and the
FAIL witnesses are views of it. The walk reads the (message, birth step)
pairs a `trace.Snapshot` keeps, the form `trace.compact` gives every
SNAPSHOT record, in a `Trace` and, once, in a plain event list that
`TraceIndex` reads; a dict-form snapshot handed to a predicate directly
is decoded by `trace.as_snapshot` on each call.
`TraceIndex` makes the only pass over the events. It records the positions
of each event type the checks read, and each check bisects out its epoch's
share of those positions and walks only them. It also evaluates each
snapshot at most once for all the checks together, and not at all when the
stop rule left its verdict on the `Snapshot` under the last corruption
step the index derives for it. A battery costs O(events + sum of snapshot
sizes), where it used to cost O(checks * events + n * sum of snapshot
sizes). `validity_check` gathers the identities present at an epoch's
marker only for a checked delivery that no earlier broadcast explains.

Events are read as stored, and every packet record a check reads is
compact: a `Trace` keeps them so (`trace.compact`), and `TraceIndex` applies
`trace.compact` once to a plain event list, so a packet dict outside its
rule is a `ValueError` here too. A check looks a packet's type and kind up
in `trace.PACKET_CODES` by its code, and no check decodes a trace line.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .trace import PACKET_CODE, PACKET_CODES, Snapshot, TraceEvents, as_snapshot, compact
from .wire import Gossip, Heartbeat, Msg, MsgAck, message_id

# the codes of compact SEND records, of SEND and RECV records, and of the
# GOSSIP and of the HEARTBEAT SENDs and RECVs
_SEND_CODES = frozenset(code for code, triple in enumerate(PACKET_CODES) if triple[0] == "SEND")
_TRAFFIC_CODES = frozenset(code for code, triple in enumerate(PACKET_CODES) if triple[0] in ("SEND", "RECV"))
_GOSSIP_CODES = [PACKET_CODE[etype, "GOSSIP", None] for etype in ("SEND", "RECV")]
_HEARTBEAT_CODES = [PACKET_CODE[etype, "HEARTBEAT", None] for etype in ("SEND", "RECV")]


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

_NONE = float("-inf")  # below every counter: "no such value in the snapshot"


class SnapshotVerdict(NamedTuple):
    """What `evaluate_snapshot` found in one snapshot."""

    stale: bool  # corruption-era protocol packets still in flight to a live node
    node: int | None  # the first evaluated node whose state breaks a clause
    clause: str | None  # the first clause it breaks

    @property
    def consistent(self) -> bool:
        return not self.stale and self.node is None


def evaluate_snapshot(
    snapshot: dict, header: dict, last_corrupt_step: int | None, node_id: int | None = None
) -> SnapshotVerdict:
    """The consistency predicate over one full system snapshot: every live
    node in snapshot order up to the first that breaks a clause, or only
    `node_id` (live or not) when given.

    The facts that relate nodes are derived once per snapshot: the node map
    and live set, per (holder, sender) the highest seq and the count of the
    records a node holds, and, in one walk over the packets in flight to
    live nodes that are younger than `last_corrupt_step`, in channel and
    packet order, the first packet clause each node breaks. Each node's
    clauses then run in a fixed order and the first that fails is
    reported; the packet clauses take their place in that order as the
    walk's entry for the node. The walk skips the corruption-era packets;
    whether any is still in flight, the verdict's `stale`, is
    `stale_packets_in_flight`'s answer, asked only after a corruption."""
    n = header["n"]
    b = header["buffer_unit_size"]
    fifo = header["fifo_enabled"]
    nodes = {entry["id"]: entry for entry in snapshot["nodes"]}
    live = [k for k in sorted(nodes) if not nodes[k]["crashed"]]
    live_set = set(live)
    # live counters: the cross-node dominance clauses compare against these
    live_seq, live_rx, live_tx, live_next = {}, {}, {}, {}
    # per holder, per sender: the highest seq and the count of its records
    held_top: dict[int, dict[int, int]] = {}
    held_count: dict[int, dict[int, int]] = {}
    for k, entry in nodes.items():
        live_seq[k] = entry.get("live_seq", entry["seq"])
        live_rx[k] = entry.get("live_rx_obs", entry["rx_obs"])
        live_tx[k] = entry.get("live_tx_obs", entry["tx_obs"])
        if fifo:
            live_next[k] = entry.get("live_next", entry["next"])
        top: dict[int, int] = {}
        count: dict[int, int] = {}
        for r in entry["buffer"]:
            sender, seq = r["sender"], r["seq"]
            if seq > top.get(sender, _NONE):
                top[sender] = seq
            count[sender] = count.get(sender, 0) + 1
        held_top[k] = top
        held_count[k] = count

    # the first packet clause each node breaks, against the live counters: a
    # MSG/MSGACK charges its sender, a GOSSIP its destination, then its source;
    # packets born by the last corruption are `stale_packets_in_flight`'s
    packet_breach: dict[int, str] = {}
    born_after = _NONE if last_corrupt_step is None else last_corrupt_step
    for src, dst, packets in as_snapshot(snapshot)["channels"]:
        if dst not in live_set:
            continue
        for msg, birth in packets:
            if birth <= born_after:
                continue
            cls = type(msg)
            if cls is Msg or cls is MsgAck:
                sender = msg.sender
                if sender not in packet_breach and msg.seq > live_seq[sender]:
                    packet_breach[sender] = "seq-dominance-packet"
            elif cls is Gossip:
                if dst not in packet_breach:
                    if msg.max_seq > live_seq[dst]:
                        packet_breach[dst] = "seq-dominance-gossip"
                    elif src in live_set and msg.rx_obs > live_rx[src][dst - 1]:
                        packet_breach[dst] = "stale-gossip-watermark"
                if src not in packet_breach and msg.tx_obs > live_rx[dst][src - 1]:
                    packet_breach[src] = "stale-gossip-echo"

    def clause_of(i: int) -> str | None:
        me = nodes[i]
        trusted = set(me["trusted"])
        seq = me["seq"]
        rx = me["rx_obs"]
        tx = me["tx_obs"]
        buffer = me["buffer"]
        top = held_top[i]
        nxt = me["next"] if fifo else None

        # (i) local buffer/window clauses
        if any(r["payload"] is None for r in buffer):
            return "null-payload"
        if len({(r["sender"], r["seq"]) for r in buffer}) != len(buffer):
            return "duplicate-identity"
        ms = min(tx[k - 1] for k in trusted) if trusted else seq
        if not (ms <= seq <= ms + b):
            return "send-window"
        own_seqs = {r["seq"] for r in buffer if r["sender"] == i}
        if any(s not in own_seqs for s in range(ms + 1, seq + 1)):
            return "own-window-coverage"
        for k in range(1, n + 1):
            # the highest seq held or delivered from k, at most b past rx
            base = nxt[k - 1] - 1 if fifo else 0
            if max(base, top.get(k, base)) - rx[k - 1] > b:
                return "receive-window"
        for r in buffer:
            if (
                rx[r["sender"] - 1] + 1 == r["seq"]
                and trusted.issubset(r["rec_by"])
                and r["delivered"]
            ):
                return "obsolete-record"
        # a foreign record that passes this clause has seq > rx, and
        # receive-window holds every record of its sender to rx + b, so no
        # record of that sender can lie more than b above it
        for r in buffer:
            sender = r["sender"]
            if sender == i:
                if r["seq"] <= ms:
                    return "own-record-below-window"
            elif r["seq"] <= rx[sender - 1]:
                return "foreign-record-obsolete"

        # (ii) dominance of own seq over every value in the system related to it:
        # peer-buffered records, delivery cursors, in-flight packets, and every
        # obsolete watermark kept about this node's messages. Watermarks and seq
        # are monotone, so these clauses compare the live counters; the records a
        # peer holds are its observed ones.
        my_seq = live_seq[i]
        my_tx = live_tx[i]
        for k in live:
            if held_top[k].get(i, _NONE) > my_seq:
                return "seq-dominance-buffer"
            if fifo and live_next[k][i - 1] - 1 > my_seq:
                return "seq-dominance-next"
            peer_rx = live_rx[k][i - 1]
            if peer_rx > my_seq:
                return "peer-watermark-dominance"
            own_tx = my_tx[k - 1]
            if own_tx > my_seq:
                return "own-watermark-floor"
            if own_tx > peer_rx:
                return "watermark-dominance"
        if i in packet_breach:
            return packet_breach[i]
        # the full send-window predicate over the live counters: when it does not
        # hold, a watermark repair (and its dominance dip) is still pending
        trusted_live = [k for k in trusted if k in live_set]
        live_ms = min(my_tx[k - 1] for k in trusted_live) if trusted_live else my_seq
        window_ok = live_ms <= my_seq <= live_ms + b
        if window_ok and my_seq > live_ms:
            live_own = set(me["live_own_seqs"]) if "live_own_seqs" in me else own_seqs
            window_ok = all(s in live_own for s in range(live_ms + 1, my_seq + 1))
        if not window_ok:
            return "live-send-window"

        # (iii) per-sender bound at trusted peers
        for k in trusted_live:
            if held_count[k].get(i, 0) > b:
                return "peer-buffer-bound"
        return None

    stale = last_corrupt_step is not None and stale_packets_in_flight(snapshot, last_corrupt_step)
    if node_id is not None:
        clause = clause_of(node_id)
        return SnapshotVerdict(stale, None if clause is None else node_id, clause)
    for entry in snapshot["nodes"]:
        if not entry["crashed"]:
            clause = clause_of(entry["id"])
            if clause is not None:
                return SnapshotVerdict(stale, entry["id"], clause)
    return SnapshotVerdict(stale, None, None)


def stale_packets_in_flight(snapshot: dict, last_corrupt_step: int | None) -> bool:
    """True while corruption-era protocol packets are still in transit toward
    live nodes; their consumption can re-poison node state. Such a packet is
    not a HEARTBEAT and was born by `last_corrupt_step`; a live node is any
    destination that has not crashed, one the snapshot holds no node for
    included. `SnapshotVerdict.stale` is this answer."""
    if last_corrupt_step is None:
        return False
    crashed = {e["id"] for e in snapshot["nodes"] if e["crashed"]}
    for _, dst, packets in as_snapshot(snapshot)["channels"]:
        if dst in crashed:
            continue
        for msg, birth in packets:
            if type(msg) is not Heartbeat and birth <= last_corrupt_step:
                return True
    return False


def snapshot_all_consistent(snapshot: dict, header: dict, last_corrupt_step: int | None) -> bool:
    """Every live node consistent, and no corruption-era protocol packet still
    in flight toward a live node. A `trace.Snapshot` keeps the verdict as
    (last_corrupt_step, verdict), for `TraceIndex` to reuse."""
    verdict = evaluate_snapshot(snapshot, header, last_corrupt_step)
    if isinstance(snapshot, Snapshot):
        snapshot.verdict = (last_corrupt_step, verdict)
    return verdict.consistent


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
    """One pass over a trace: crash set, end reason, epochs as ranges of event
    positions, the positions of each kind of event the checks read, and each
    epoch's stabilization marker. Every snapshot verdict is computed at most
    once, and not at all when `verdict` can reuse the stop rule's.

    `records` holds the events as stored: dicts, `Snapshot`s and compact
    packet records, a plain event list's records given that form here
    (`trace.compact`)."""

    def __init__(self, header: dict, events):
        self.header = header
        records = events.records if isinstance(events, TraceEvents) else [compact(e) for e in events]
        self.records = records
        self._evaluated: dict[int, SnapshotVerdict] = {}  # by position, by this index
        self.crashed: set[int] = set()
        self.end_reason: str | None = None
        # ascending event positions, by type; a check bisects out its epoch
        self.broadcasts: list[int] = []
        self.delivers: list[int] = []
        self.cycles: list[int] = []
        # packet records that carry a mid (MSG and MSGACK): SENDs, and the rest
        self.mid_sends: list[int] = []
        self.mid_others: list[int] = []  # RECV, OMIT and DUP
        self.corrupt_positions: list[int] = []
        # (position, step of the last CORRUPT before it) of every SNAPSHOT
        self.snapshots: list[tuple[int, int | None]] = []
        self.epochs: list[range] = []
        last_corrupt: int | None = None
        start = 0
        mid_sends, mid_others = self.mid_sends, self.mid_others
        broadcasts, delivers, cycles = self.broadcasts, self.delivers, self.cycles
        for pos, event in enumerate(records):
            cls = type(event)
            if cls is int:  # a compact packet record without a mid
                continue
            if cls is tuple:  # a compact MSG/MSGACK packet record
                (mid_sends if event[0] in _SEND_CODES else mid_others).append(pos)
                continue
            etype = event["type"]
            if etype == "DELIVER":
                delivers.append(pos)
            elif etype == "BROADCAST":
                broadcasts.append(pos)
            elif etype == "CYCLE":
                cycles.append(pos)
            elif etype == "SNAPSHOT":
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
        self.epochs.append(range(start, len(records)))
        self.never_crashed: list[int] = [
            i for i in range(1, header["n"] + 1) if i not in self.crashed
        ]
        # per epoch: its marker position, and its snapshots from the marker on
        self.markers: list[int | None] = []
        self.checked: list[tuple[int, int | None]] = []
        snapshot_at = [pos for pos, _ in self.snapshots]
        for epoch in self.epochs:
            lo = bisect_left(snapshot_at, epoch.start)
            hi = bisect_left(snapshot_at, epoch.stop)
            corrupt = self.within(self.corrupt_positions, epoch)
            marker = self.marker(self.snapshots[lo:hi], corrupt[-1] if corrupt else None)
            self.markers.append(marker)
            if marker is not None:
                self.checked += self.snapshots[bisect_left(snapshot_at, marker, lo, hi):hi]

    @staticmethod
    def within(positions: list[int], span: range) -> list[int]:
        """The positions of an ascending list that fall in `span`."""
        return positions[bisect_left(positions, span.start):bisect_left(positions, span.stop)]

    def verdict(self, pos: int, last_corrupt_step: int | None) -> SnapshotVerdict:
        """`evaluate_snapshot` of the snapshot at `pos` under the last
        corruption step the index derives for it: the stop rule's verdict on
        the record when judged under the same `last_corrupt_step`, or else
        evaluated here, once."""
        snapshot = self.records[pos]
        judged = getattr(snapshot, "verdict", None)
        if judged is not None and judged[0] == last_corrupt_step:
            return judged[1]
        verdict = self._evaluated.get(pos)
        if verdict is None:
            verdict = self._evaluated[pos] = evaluate_snapshot(snapshot, self.header, last_corrupt_step)
        return verdict

    def consistent(self, pos: int, last_corrupt_step: int | None) -> bool:
        """Every live node consistent at `pos`, and no corruption-era packet in
        flight toward a live node."""
        return self.verdict(pos, last_corrupt_step).consistent

    def inconsistency(self, pos: int, last_corrupt_step: int | None) -> dict:
        """FAIL witness for a snapshot that is not all-consistent: the first
        live node whose state breaks a clause, and that clause."""
        verdict = self.verdict(pos, last_corrupt_step)
        step = self.records[pos]["step"]
        if verdict.node is None:
            return {"reason": "stale packets never drained", "step": step}
        return {"node": verdict.node, "clause": verdict.clause, "step": step}

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
            snapshot = self.records[pos]
            if need is None:
                need = drained_cycle(snapshot, ctx)
                if need is None:
                    continue
            if snapshot["cycle"] >= need and self.consistent(pos, ctx):
                return pos
        return None


def index_trace(header: dict, events) -> TraceIndex:
    return TraceIndex(header, events)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _mid(event: dict) -> tuple[int, int]:
    mid = event["mid"]
    return mid[0], mid[1]


def validity_check(ti: TraceIndex) -> CheckReport:
    """Every checked delivery traces back to an earlier broadcast of the same
    identity; deliveries in the recovery window, or of identities already
    present in the system state at the marker, are exempt."""
    records = ti.records
    exemptions = 0
    for epoch, marker in zip(ti.epochs, ti.markers):
        delivers = ti.within(ti.delivers, epoch)
        if marker is None:
            exemptions += len(delivers)
            continue
        broadcast_at: dict[tuple[int, int], int] = {}
        for pos in ti.within(ti.broadcasts, epoch):
            broadcast_at.setdefault(_mid(records[pos]), pos)
        preexisting: set[tuple[int, int]] | None = None  # built for the first checked orphan
        for pos in delivers:
            event = records[pos]
            mid = _mid(event)
            if broadcast_at.get(mid, pos) < pos:
                continue
            if pos >= marker:
                if preexisting is None:
                    preexisting = _preexisting(ti, epoch, marker)
                if mid not in preexisting:
                    return CheckReport(
                        "validity",
                        "FAIL",
                        witness={"step": event["step"], "node": event["node"], "mid": list(mid)},
                    )
            exemptions += 1
    return CheckReport("validity", "PASS", measured={"exemptions": exemptions})


def _preexisting(ti: TraceIndex, epoch: range, marker: int) -> set[tuple[int, int]]:
    """The identities present in the system at the epoch's marker: held or in
    flight in its snapshot, or carried by a MSG/MSGACK record of the recovery
    window, since those may be buffered live without showing in the marker's
    observed states yet."""
    snapshot = ti.records[marker]
    preexisting: set[tuple[int, int]] = set()
    for entry in snapshot["nodes"]:
        for r in entry["buffer"]:
            preexisting.add((r["sender"], r["seq"]))
    for _, _, packets in as_snapshot(snapshot)["channels"]:
        for msg, _ in packets:
            mid = message_id(msg)
            if mid is not None:
                preexisting.add(mid)
    window = range(epoch.start, marker)
    records = ti.records
    for positions in (ti.within(ti.mid_sends, window), ti.within(ti.mid_others, window)):
        for pos in positions:
            _, sender, seq, _ = records[pos]
            preexisting.add((sender, seq))
    return preexisting


def integrity_check(ti: TraceIndex) -> CheckReport:
    """No (node, identity) pair is delivered twice in the checked window."""
    records = ti.records
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        seen: set[tuple[int, int, int]] = set()
        for pos in ti.within(ti.delivers, range(marker, epoch.stop)):
            event = records[pos]
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
    records = ti.records
    survivors = set(ti.never_crashed)
    incomplete = ti.end_reason != "complete-delivery"
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        checked = range(marker, epoch.stop)
        antecedent: set[tuple[int, int]] = set()
        for positions in (ti.within(ti.broadcasts, checked), ti.within(ti.delivers, checked)):
            for pos in positions:
                event = records[pos]
                if event["node"] in survivors:
                    antecedent.add(_mid(event))
        delivered: set[tuple[int, tuple[int, int]]] = set()
        for pos in ti.within(ti.delivers, epoch):
            event = records[pos]
            delivered.add((event["node"], _mid(event)))
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
    quiescence window; control gossip and heartbeats keep flowing. The
    window's MSG/MSGACK SENDs and RECVs are read from the index, and its
    GOSSIP and HEARTBEAT SENDs and RECVs counted by their codes."""
    if ti.end_reason != "complete-delivery":
        return CheckReport(
            "quiescence",
            "INCONCLUSIVE",
            witness={"reason": f"run ended by {ti.end_reason}, no quiescence window"},
        )
    w = ti.header["quiescence_window_cycles"]
    epoch = ti.epochs[-1]
    cycles = ti.within(ti.cycles, epoch)
    if len(cycles) < w:
        return CheckReport(
            "quiescence", "INCONCLUSIVE", witness={"reason": "fewer cycles than the window"}
        )
    records = ti.records
    tracked = {_mid(records[pos]) for pos in ti.within(ti.broadcasts, epoch)}
    window = range(cycles[-w], epoch.stop)
    hits = [
        pos
        for pos in ti.within(ti.mid_sends, window) + ti.within(ti.mid_others, window)
        if records[pos][0] in _TRAFFIC_CODES and records[pos][1:3] in tracked
    ]
    codes = records[window.start:window.stop]
    measured = {
        "msg_events_in_window": len(hits),
        "gossip_events_in_window": sum(map(codes.count, _GOSSIP_CODES)),
        "heartbeat_events_in_window": sum(map(codes.count, _HEARTBEAT_CODES)),
        "window_cycles": w,
    }
    if hits:
        code, sender, seq, step = records[min(hits)]  # the window's first tracked event
        witness = {"step": step, "kind": PACKET_CODES[code][1], "mid": [sender, seq]}
        return CheckReport("quiescence", "FAIL", witness=witness, measured=measured)
    return CheckReport("quiescence", "PASS", measured=measured)


def consistency_closure_check(ti: TraceIndex) -> CheckReport:
    """Once the marker is reached, consistency holds at every later snapshot
    of the epoch (the marker already sits after the epoch's last corruption)."""
    for pos, corrupt_step in ti.checked:
        if not ti.consistent(pos, corrupt_step):
            witness = ti.inconsistency(pos, corrupt_step)
            witness["cycle"] = ti.records[pos]["cycle"]
            return CheckReport("consistency-closure", "FAIL", witness=witness)
    return CheckReport("consistency-closure", "PASS")


def buffer_bound_check(ti: TraceIndex) -> CheckReport:
    """Post-stabilization, each node buffers at most bufferUnitSize records per
    sender, hence at most bufferUnitSize * n in total."""
    b = ti.header["buffer_unit_size"]
    n = ti.header["n"]
    peak_total = 0
    for pos, _ in ti.checked:
        snapshot = ti.records[pos]
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
            witness = ti.inconsistency(pos, corrupt_step)
            break
        stable_pos = pos
    if marker is None or stable_pos is None:
        return CheckReport("stabilization-time", "FAIL", witness=witness)
    cycles = len(ti.within(ti.cycles, range(frontier, stable_pos)))
    return CheckReport("stabilization-time", "PASS", measured={"cycles": cycles})


def fifo_check(ti: TraceIndex) -> CheckReport:
    """Post-marker deliveries from one sender arrive in ascending sequence
    order at every node."""
    if not ti.header["fifo_enabled"]:
        return CheckReport(
            "fifo-order", "INCONCLUSIVE", witness={"reason": "fifo disabled in this run"}
        )
    records = ti.records
    for epoch, marker in zip(ti.epochs, ti.markers):
        if marker is None:
            continue
        last_seq: dict[tuple[int, int], int] = {}
        for pos in ti.within(ti.delivers, range(marker, epoch.stop)):
            event = records[pos]
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
    latency in cycles. A measurement, aggregated by the scaling experiments.
    A broadcast's count and latency run from its last BROADCAST record in
    the epoch: a repeated identity starts over."""
    records, cycles = ti.records, ti.cycles
    per_mid: dict[tuple[int, int, int], dict] = {}
    for eidx, epoch in enumerate(ti.epochs):
        broadcast_at: dict[tuple[int, int], int] = {}
        entries: dict[tuple[int, int], dict] = {}
        for pos in ti.within(ti.broadcasts, epoch):
            mid = _mid(records[pos])
            broadcast_at[mid] = pos
            entries[mid] = per_mid[(eidx, *mid)] = {
                "msg_sends": 0,
                "ack_sends": 0,
                "latency_cycles": None,
            }
        if not entries:
            continue
        for pos in ti.within(ti.mid_sends, epoch):
            code, sender, seq, _ = records[pos]
            mid = (sender, seq)
            if broadcast_at.get(mid, pos) < pos:
                entries[mid]["msg_sends" if PACKET_CODES[code][1] == "MSG" else "ack_sends"] += 1
        for pos in ti.within(ti.delivers, epoch):
            mid = _mid(records[pos])
            at = broadcast_at.get(mid, pos)
            if at < pos:
                # the CYCLE records between the broadcast and this delivery
                latency = bisect_left(cycles, pos) - bisect_left(cycles, at)
                entry = entries[mid]
                if entry["latency_cycles"] is None or latency > entry["latency_cycles"]:
                    entry["latency_cycles"] = latency
    totals = [v["msg_sends"] + v["ack_sends"] for v in per_mid.values()]
    measured = {
        "per_broadcast": {f"{e}:{s}:{q}": v for (e, s, q), v in per_mid.items()},
        "max_total": max(totals) if totals else 0,
        "max_latency_cycles": max(
            (v["latency_cycles"] for v in per_mid.values() if v["latency_cycles"] is not None),
            default=0,
        ),
    }
    return CheckReport("message-cost", "PASS", measured=measured)


def check_all(header: dict, events) -> list[CheckReport]:
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
