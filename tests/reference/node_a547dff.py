"""The node's iteration and packet handlers as they were at commit a547dff.

A test-only reference for the differential node test
(`tests/test_node_reference.py`): `ReferenceNode` is `NodeState` with the
parent's `max_seqs`, `min_tx_obs`, `update`, `do_forever_iteration`,
`_lift_cursors`, `on_msg`, `on_msg_ack`, `on_gossip` and `_observe`, copied
verbatim from `src/ssurb/node.py` at a547dff, and that commit's
default-factory `IterationResult`. Nothing under `src/` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ssurb.detectors import DetectorView
from ssurb.node import NORMAL, BufferRecord, NodeState
from ssurb.wire import Gossip, Msg, MsgAck, WireMessage


@dataclass(slots=True)
class IterationResult:
    outgoing: list[tuple[int, WireMessage]] = field(default_factory=list)
    delivered: list[tuple[int, int]] = field(default_factory=list)
    accepted: list[tuple[tuple[int, int], str]] = field(default_factory=list)


def _record_key(r) -> tuple[int, int]:
    return (r.sender, r.seq)


class ReferenceNode(NodeState):
    """`NodeState` running the a547dff transitions."""

    @classmethod
    def of(cls, node: NodeState) -> ReferenceNode:
        """A copy of `node` that runs the reference transitions."""
        twin = node.copy()
        twin.__class__ = cls
        return twin

    # -- macros -------------------------------------------------------

    def max_seqs(self) -> list[int]:
        """Highest sequence number buffered per sender (0 if none), index 0 unused.

        FIFO mode also counts next_deliver[k] - 1, so a skewed delivery
        cursor is visible to the gossip repair path.
        """
        m = [0] * (self.n + 1)
        if self.fifo:
            for k in range(1, self.n + 1):
                m[k] = self.next_deliver[k] - 1
        for r in self.buffer:
            if r.seq > m[r.sender]:
                m[r.sender] = r.seq
        return m

    def min_tx_obs(self, trusted: frozenset[int]) -> int:
        """Slowest trusted receiver's obsolete watermark; own seq if nobody is trusted."""
        if not trusted:
            return self.seq
        return min(map(self.tx_obs.__getitem__, trusted))

    # -- operation and procedure --------------------------------------

    def update(self, payload: str | None, j: int, s: int, k: int) -> None:
        """Merge knowledge of message (j, s): insert a fresh record or grow its ack set."""
        if s <= self.rx_obs[j]:
            return
        exists = any(r.sender == j and r.seq == s for r in self.buffer)
        if not exists and payload is not None:
            self.buffer.append(
                BufferRecord(
                    payload=payload,
                    sender=j,
                    seq=s,
                    delivered=False,
                    rec_by={j, k},
                    prev_hb=[-1] * (self.n + 1),
                )
            )
        else:
            for r in self.buffer:
                if r.sender == j and r.seq == s:
                    r.rec_by.add(j)
                    r.rec_by.add(k)

    # -- the do-forever iteration --------------------------------------

    def do_forever_iteration(self, view: DetectorView) -> IterationResult:
        out = IterationResult()
        b = self.buffer_unit_size
        trusted = view.trusted

        # (a) purge: a null payload or a duplicated identity voids the whole buffer
        seen: set[tuple[int, int]] = set()
        poisoned = False
        for r in self.buffer:
            key = (r.sender, r.seq)
            if r.payload is None or key in seen:
                poisoned = True
                break
            seen.add(key)
        if poisoned:
            self.buffer = []

        # (b) repair the send window when own records do not cover (mS, seq]
        ms = self.min_tx_obs(trusted)
        window_ok = ms <= self.seq <= ms + b
        if window_ok and self.seq > ms:
            own_seqs = {r.seq for r in self.buffer if r.sender == self.self_id}
            window_ok = all(s in own_seqs for s in range(ms + 1, self.seq + 1))
        if not window_ok:
            self.tx_obs = [self.seq] * (self.n + 1)

        # (c) clamp receive watermarks to the buffered horizon
        max_map, rx_obs, everyone = self.max_seqs(), self.rx_obs, range(1, self.n + 1)
        for k in everyone:
            horizon = max_map[k] - b
            if horizon > rx_obs[k]:
                rx_obs[k] = horizon
        self._lift_cursors()

        # (d) advance watermarks over obsolete records, ascending (sender, seq):
        # a record is obsolete once it is the next one past its sender's
        # watermark, delivered, and received by every trusted node
        self.buffer.sort(key=_record_key)
        progress = True
        while progress:
            progress = False
            for r in self.buffer:
                if rx_obs[r.sender] + 1 == r.seq and r.delivered and trusted <= r.rec_by:
                    rx_obs[r.sender] += 1
                    progress = True
        # keep the delivery cursor ahead of the obsolete watermark before
        # the delivery pass runs
        self._lift_cursors()

        # (e) trim: own records stay while some trusted receiver still needs them,
        # foreign records stay while inside the receive window
        ms = self.min_tx_obs(trusted)
        max_map = self.max_seqs()
        self.buffer = [
            r
            for r in self.buffer
            if (
                ms < r.seq
                if r.sender == self.self_id
                else self.rx_obs[r.sender] < r.seq and max_map[r.sender] - b <= r.seq
            )
        ]

        # the sort of (d) and the filter of (e) left the buffer in (sender, seq) order
        self.observed = self._observe(sorted(trusted), ordered=True)

        # (f) deliver and (re)transmit, ascending (sender, seq); every copy
        # of one record is the same immutable Msg
        u, me, fifo, tx_obs = view.hb, self.self_id, self.fifo, self.tx_obs
        outgoing = out.outgoing
        for r in self.buffer:
            sender, seq, rec_by, prev_hb = r.sender, r.seq, r.rec_by, r.prev_hb
            if (
                trusted <= rec_by
                and not r.delivered
                and (not fifo or seq == self.next_deliver[sender])
            ):
                r.delivered = True
                out.delivered.append((sender, seq))
                if fifo:
                    self.next_deliver[sender] += 1
            msg = None
            for k in everyone:
                if (
                    k not in rec_by or (sender == me and seq == tx_obs[k] + 1)
                ) and prev_hb[k] < u[k]:
                    prev_hb[k] = u[k]
                    if msg is None:
                        msg = Msg(r.payload, sender, seq)
                    outgoing.append((k, msg))

        # (g) gossip the flow-control triple to every peer; fold the own triple
        # locally (the self-addressed gossip without a packet)
        max_map, new = self.max_seqs(), tuple.__new__
        for k in everyone:
            if k != me:  # a Gossip, built without the named tuple's Python frame
                outgoing.append((k, new(Gossip, (max_map[k], rx_obs[k], tx_obs[k]))))
        self.on_gossip(max_map[me], self.rx_obs[me], self.tx_obs[me], me)
        # corrupted entries that no gossip refreshed still need the seq floor
        floor = max(self.tx_obs[1:])
        if floor > self.seq:
            self.seq = floor

        # (h) drain deferred broadcasts that now fit the window
        if self.reset_phase == NORMAL and self.pending:
            limit = self.min_tx_obs(trusted) + b
            while self.pending and self.seq < limit:
                payload = self.pending.popleft()
                self.seq += 1
                self.update(payload, me, self.seq, me)
                out.accepted.append(((me, self.seq), payload))

        # final cursor normalization: the obsolete walk and the local
        # gossip fold may have moved watermarks past the clamp of (c)
        self._lift_cursors()

        return out

    def _lift_cursors(self) -> None:
        """FIFO mode: keep every delivery cursor above its obsolete watermark."""
        if not self.fifo:
            return
        for k in range(1, self.n + 1):
            if self.rx_obs[k] + 1 > self.next_deliver[k]:
                self.next_deliver[k] = self.rx_obs[k] + 1

    # -- packet handlers ------------------------------------------------

    def on_msg(self, payload: str, j: int, s: int, from_id: int) -> MsgAck:
        """Store/ack an incoming broadcast copy. The ack is unconditional."""
        self.update(payload, j, s, from_id)
        return MsgAck(j, s)

    def on_msg_ack(self, j: int, s: int, from_id: int) -> None:
        self.update(None, j, s, from_id)

    def on_gossip(self, max_seq: int, rx_obs: int, tx_obs: int, from_id: int) -> None:
        """Max-fold the sender's triple: its first field raises our seq, the other
        two refresh what we know the sender has seen/declared obsolete. An
        obsolete watermark over own messages is evidence of past seq values
        (like a buffered record or the FIFO cursor), so seq is floored at the
        folded entry; a watermark inflated past seq by a transient fault would
        otherwise silently swallow the next broadcasts."""
        if max_seq > self.seq:
            self.seq = max_seq
        if rx_obs > self.tx_obs[from_id]:
            self.tx_obs[from_id] = rx_obs
        if tx_obs > self.rx_obs[from_id]:
            self.rx_obs[from_id] = tx_obs
        if self.tx_obs[from_id] > self.seq:
            self.seq = self.tx_obs[from_id]

    def _observe(self, trusted: list[int], ordered: bool = False) -> dict:
        """The state as snapshots record it, the buffer in (sender, seq)
        order: sorted here unless the caller knows it is `ordered` already."""
        return {
            "id": self.self_id,
            "seq": self.seq,
            "buffer": [
                {
                    "payload": r.payload,
                    "sender": r.sender,
                    "seq": r.seq,
                    "delivered": r.delivered,
                    "rec_by": sorted(r.rec_by),
                    "prev_hb": r.prev_hb[1:],
                }
                for r in (self.buffer if ordered else sorted(self.buffer, key=_record_key))
            ],
            "rx_obs": self.rx_obs[1:],
            "tx_obs": self.tx_obs[1:],
            "next": self.next_deliver[1:],
            "pending": len(self.pending),
            "reset_phase": self.reset_phase,
            "trusted": trusted,
        }
