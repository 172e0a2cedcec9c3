"""The consistency predicate as it was at commit 80adea2.

A test-only reference for the differential predicate test
(`tests/test_checker_reference.py`): `evaluate_snapshot`, which states
each in-flight-packet clause twice (per-sender and per-channel extremes
that say whether a packet breaks a clause, and an ordered rescan that
says which one), with `stale_packets_in_flight`, `SnapshotVerdict` and
`_NONE`, copied verbatim from `src/ssurb/checker.py` at 80adea2. Nothing
under `src/` imports it.
"""

from __future__ import annotations

from typing import NamedTuple

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
    records a node holds, and, over the packets in flight to live nodes
    that are younger than `last_corrupt_step`, the highest MSG/MSGACK seq
    per sender and per channel the highest GOSSIP max_seq, rx_obs and
    tx_obs. Each node's clauses then run in a fixed order and the first
    that fails is reported. In-flight packets are rescanned in order only
    for a node that the packet extremes already show to be failing, to name
    the packet clause that fails first."""
    n = header["n"]
    b = header["buffer_unit_size"]
    fifo = header["fifo_enabled"]
    nodes = {entry["id"]: entry for entry in snapshot["nodes"]}
    crashed = {k for k, entry in nodes.items() if entry["crashed"]}
    live = [k for k in sorted(nodes) if k not in crashed]
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

    # in-flight packets toward live nodes, past the corruption-era filter
    msg_top: dict[int, int] = {}  # per sender
    gossip_in: dict[int, list[tuple[int, float, float]]] = {}  # dst -> (src, max_seq, rx_obs)
    gossip_out: dict[int, list[tuple[int, float]]] = {}  # src -> (dst, tx_obs)
    for entry in snapshot["channels"]:
        dst = entry["dst"]
        if dst in crashed:
            continue
        g_max = g_rx = g_tx = _NONE
        for packet in entry["packets"]:
            if last_corrupt_step is not None and packet["birth_step"] <= last_corrupt_step:
                continue
            kind = packet["kind"]
            if kind == "MSG" or kind == "MSGACK":
                sender, seq = packet["sender"], packet["seq"]
                if seq > msg_top.get(sender, _NONE):
                    msg_top[sender] = seq
            elif kind == "GOSSIP":
                if packet["max_seq"] > g_max:
                    g_max = packet["max_seq"]
                if packet["rx_obs"] > g_rx:
                    g_rx = packet["rx_obs"]
                if packet["tx_obs"] > g_tx:
                    g_tx = packet["tx_obs"]
        if g_max is not _NONE:  # the channel carries GOSSIP
            src = entry["src"]
            gossip_in.setdefault(dst, []).append((src, g_max, g_rx))
            gossip_out.setdefault(src, []).append((dst, g_tx))

    def packet_clause(i: int, my_seq: int) -> str | None:
        # the packet clauses in channel and packet order, for node i
        for entry in snapshot["channels"]:
            dst = entry["dst"]
            if dst in crashed:
                continue
            src = entry["src"]
            for packet in entry["packets"]:
                if last_corrupt_step is not None and packet["birth_step"] <= last_corrupt_step:
                    continue
                kind = packet["kind"]
                if kind in ("MSG", "MSGACK"):
                    if packet["sender"] == i and packet["seq"] > my_seq:
                        return "seq-dominance-packet"
                elif kind == "GOSSIP":
                    if dst == i and packet["max_seq"] > my_seq:
                        return "seq-dominance-gossip"
                    if dst == i and src in live_set and packet["rx_obs"] > live_rx[src][i - 1]:
                        return "stale-gossip-watermark"
                    if src == i and dst in live_set and packet["tx_obs"] > live_rx[dst][i - 1]:
                        return "stale-gossip-echo"
        return None

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
        if (
            msg_top.get(i, _NONE) > my_seq
            or any(
                g_max > my_seq or (src in live_set and g_rx > live_rx[src][i - 1])
                for src, g_max, g_rx in gossip_in.get(i, ())
            )
            or any(
                dst in live_set and g_tx > live_rx[dst][i - 1]
                for dst, g_tx in gossip_out.get(i, ())
            )
        ):
            return packet_clause(i, my_seq)
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

    stale = stale_packets_in_flight(snapshot, last_corrupt_step)
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
