"""The broadcast protocol state machine for one node.

Every operation is a deterministic transition on `NodeState`: the public
broadcast operation, the record-merging `update` procedure, one full
iteration of the repair/deliver/gossip loop, and the three packet
handlers. Transitions never perform I/O and never read ambient time, so
a (state, detector view, input) triple always produces bit-identical
results; the simulator owns scheduling, channels and tracing.

The iteration must be total on arbitrary states: corrupted buffers,
regressed counters and skewed windows are repaired, never rejected. It
does each macro once per call: `max_seqs` is built for the receive clamp
(c) and reused by the trim (e), and built again over the trimmed buffer
for the gossip (g); the trim's `min_tx_obs` is step (b)'s, or `seq` after
a window repair; the FIFO cursors are lifted once after the obsolete walk
(d) and once more for the own entry after the local gossip fold; an empty
buffer skips the per-record passes. It returns an `IterationResult` named
tuple, its MSGs apart from its gossips, and its messages are built with
`tuple.__new__`, without the named tuples' Python-level constructor.

An idle pass, one with an empty buffer and nothing pending that leaves
the state as it found it, is kept in `idle_memo` with its `observed` and
gossips, keyed on all it reads (the heartbeats only (f) reads); a call with
an equal key returns them again, the gossips as the memo's own tuple.
Once the broadcasts are delivered, most passes repeat such a pass.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .detectors import DetectorView
from .wire import Gossip, Msg, MsgAck

NORMAL = "normal"
DISABLED = "disabled"
RESETTING = "resetting"


@dataclass(slots=True)
class BufferRecord:
    """One in-flight broadcast: payload, identity, delivery flag, ack set, heartbeat marks."""

    payload: str | None
    sender: int
    seq: int
    delivered: bool
    rec_by: set[int]
    prev_hb: list[int]  # length n+1, index 0 unused, entries start at -1


class IterationResult(NamedTuple):
    """One pass's output: `outgoing` holds step (f)'s (dst, Msg) sends and
    `gossips` step (g)'s Gossip for each peer in `HeartbeatState.peers` order,
    a list, or the idle memo's tuple on a repeated idle pass."""

    outgoing: list[tuple[int, Msg]]
    delivered: list[tuple[int, int]]
    accepted: list[tuple[tuple[int, int], str]]
    gossips: Sequence[Gossip]


_record_key = attrgetter("sender", "seq")


class NodeState:
    def __init__(
        self,
        self_id: int,
        n: int,
        buffer_unit_size: int,
        fifo: bool = False,
        maxint: int | None = None,
    ):
        self.self_id = self_id
        self.n = n
        self.buffer_unit_size = buffer_unit_size
        self.fifo = fifo
        self.maxint = maxint
        self.seq = 0
        self.buffer: list[BufferRecord] = []
        self.rx_obs = [0] * (n + 1)
        self.tx_obs = [0] * (n + 1)
        self.next_deliver = [1] * (n + 1)
        self.pending: deque[str] = deque()
        self.reset_phase = NORMAL
        # state as of the last completed repair pass; snapshots and the
        # consistency checker observe nodes here, between-iteration handler
        # effects (late acks, gossip folds) become visible one pass later
        self.observed: dict = self._observe(list(range(1, n + 1)))
        # (key..., observed, gossips) of the last idle pass that changed nothing
        self.idle_memo: tuple | None = None

    def copy(self) -> NodeState:
        """A node with this one's state, built without `__init__` (and its
        `_observe`), `observed` shared: it is replaced, never mutated. Of the
        memo only the three lists are copied; the rest is never mutated."""
        twin = object.__new__(NodeState)
        twin.self_id, twin.n, twin.buffer_unit_size = self.self_id, self.n, self.buffer_unit_size
        twin.fifo, twin.maxint, twin.seq = self.fifo, self.maxint, self.seq
        twin.reset_phase, twin.observed = self.reset_phase, self.observed
        memo = self.idle_memo  # (trusted, seq, phase, rx_obs, tx_obs, cursors, observed, gossips)
        twin.idle_memo = memo and memo[:3] + (memo[3][:], memo[4][:], memo[5][:]) + memo[6:]
        twin.rx_obs, twin.tx_obs = self.rx_obs[:], self.tx_obs[:]
        twin.next_deliver, twin.pending = self.next_deliver[:], self.pending.copy()
        twin.buffer = [
            BufferRecord(r.payload, r.sender, r.seq, r.delivered, set(r.rec_by), r.prev_hb[:])
            for r in self.buffer
        ]
        return twin

    # -- macros -------------------------------------------------------

    def max_seqs(self) -> list[int]:
        """Highest sequence number buffered per sender (0 if none), index 0 unused.

        FIFO mode also counts next_deliver[k] - 1, so a skewed delivery
        cursor is visible to the gossip repair path.
        """
        m = [c - 1 for c in self.next_deliver] if self.fifo else [0] * (self.n + 1)
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

    def urb_broadcast(self, view: DetectorView, payload: str) -> tuple[int, int] | None:
        """Accept the broadcast if the flow-control window has room, else queue it.

        Returns the assigned message identity on acceptance, None when deferred.
        """
        if payload is None:
            raise ValueError("cannot broadcast a null payload")
        if self.reset_phase != NORMAL:
            self.pending.append(payload)
            return None
        if self.seq < self.min_tx_obs(view.trusted) + self.buffer_unit_size:
            self.seq += 1
            self.update(payload, self.self_id, self.seq, self.self_id)
            return (self.self_id, self.seq)
        self.pending.append(payload)
        return None

    def update(self, payload: str | None, j: int, s: int, k: int) -> None:
        """Merge knowledge of message (j, s): insert a fresh record or grow its ack set."""
        if s <= self.rx_obs[j]:
            return
        found = False
        for r in self.buffer:  # every match: a corrupted buffer may hold (j, s) twice
            if r.seq == s and r.sender == j:
                r.rec_by.add(j)
                r.rec_by.add(k)
                found = True
        if not found and payload is not None:
            self.buffer.append(BufferRecord(payload, j, s, False, {j, k}, [-1] * (self.n + 1)))

    # -- the do-forever iteration --------------------------------------

    def do_forever_iteration(self, view: DetectorView) -> IterationResult:
        b, n, me, fifo, seq = self.buffer_unit_size, self.n, self.self_id, self.fifo, self.seq
        trusted, buffer, everyone = view.trusted, self.buffer, range(1, n + 1)
        rx_obs, tx_obs, cursors = self.rx_obs, self.tx_obs, self.next_deliver
        new, idle = tuple.__new__, None
        if not buffer and not self.pending:  # a repeat of the memo's pass returns its result
            memo = self.idle_memo
            if memo is not None and memo[:6] == (trusted, seq, self.reset_phase, rx_obs, tx_obs, cursors):
                self.observed = memo[6]
                return new(IterationResult, ([], [], [], memo[7]))
            idle = (trusted, seq, self.reset_phase, rx_obs[:], tx_obs[:], cursors[:])

        # (a) purge: a null payload or a duplicated identity voids the whole buffer
        if buffer and len({(r.sender, r.seq) for r in buffer if r.payload is not None}) < len(buffer):
            buffer = self.buffer = []

        # (b) repair the send window when own records do not cover (mS, seq];
        # mS is then seq, and nothing else moves it before the trim of (e)
        ms = min(map(tx_obs.__getitem__, trusted)) if trusted else seq
        if not ms <= seq <= ms + b or (
            seq > ms and not {r.seq for r in buffer if r.sender == me}.issuperset(range(ms + 1, seq + 1))
        ):
            tx_obs = self.tx_obs = [seq] * (n + 1)
            ms = seq

        # (c) clamp receive watermarks to the buffered horizon
        max_map = self.max_seqs()
        for k in everyone:
            if max_map[k] - b > rx_obs[k]:
                rx_obs[k] = max_map[k] - b

        if buffer:
            # (d) advance watermarks over obsolete records, ascending (sender,
            # seq): a record is obsolete once it is the next one past its
            # sender's watermark, delivered, and received by every trusted
            # node. The identities are unique after (a), so one pass finds
            # every run of consecutive records.
            buffer.sort(key=_record_key)
            for r in buffer:
                if rx_obs[r.sender] + 1 == r.seq and r.delivered and trusted <= r.rec_by:
                    rx_obs[r.sender] = r.seq
        if fifo:  # keep the delivery cursor ahead of the obsolete watermark
            for k in everyone:
                if rx_obs[k] >= cursors[k]:
                    cursors[k] = rx_obs[k] + 1
        if buffer:
            # (e) trim: own records stay while some trusted receiver still
            # needs them, foreign records stay while inside the receive window.
            # A cursor lifted above puts nd[k] - 1 = rx_obs[k] into max_seqs,
            # below every foreign record kept, so max_map needs no refresh.
            self.buffer = buffer = [
                r
                for r in buffer
                if (
                    ms < r.seq
                    if r.sender == me
                    else rx_obs[r.sender] < r.seq and max_map[r.sender] - b <= r.seq
                )
            ]

        # the sort of (d) and the filter of (e) left the buffer in (sender, seq) order
        self.observed = self._observe(sorted(trusted), ordered=True)

        # (f) deliver and (re)transmit, ascending (sender, seq); every copy
        # of one record is the same immutable Msg, built like the Gossips
        # below without the named tuple's Python frame
        u = view.hb
        outgoing: list[tuple[int, Msg]] = []
        delivered: list[tuple[int, int]] = []
        for r in buffer:
            sender, s, rec_by, prev_hb = r.sender, r.seq, r.rec_by, r.prev_hb
            if trusted <= rec_by and not r.delivered and (not fifo or s == cursors[sender]):
                r.delivered = True
                delivered.append((sender, s))
                if fifo:
                    cursors[sender] += 1
            msg = None
            for k in everyone:
                if (k not in rec_by or (sender == me and s == tx_obs[k] + 1)) and prev_hb[k] < u[k]:
                    prev_hb[k] = u[k]
                    if msg is None:
                        msg = new(Msg, (r.payload, sender, s))
                    outgoing.append((k, msg))

        # (g) gossip the flow-control triple to every peer, max_seqs of the
        # trimmed buffer and the delivered cursors; fold the own triple
        # locally, as `on_gossip` would fold the self-addressed gossip
        max_map = self.max_seqs()
        gossips = [new(Gossip, (max_map[k], rx_obs[k], tx_obs[k])) for k in everyone if k != me]
        if rx_obs[me] > tx_obs[me]:
            tx_obs[me] = rx_obs[me]
        else:
            rx_obs[me] = tx_obs[me]
        # seq is floored at the own max_seq and at every obsolete watermark,
        # also the corrupted entries that no gossip refreshed
        self.seq = max(seq, max_map[me], max(tx_obs[1:]))

        # (h) drain deferred broadcasts that now fit the window
        accepted: list[tuple[tuple[int, int], str]] = []
        if self.pending and self.reset_phase == NORMAL:
            limit = self.min_tx_obs(trusted) + b
            while self.pending and self.seq < limit:
                payload = self.pending.popleft()
                self.seq += 1
                self.update(payload, me, self.seq, me)
                accepted.append(((me, self.seq), payload))

        # the own fold may have moved rx_obs[me] past the cursor lift above
        if fifo and rx_obs[me] >= cursors[me]:
            cursors[me] = rx_obs[me] + 1
        if idle and idle[1:6] == (self.seq, self.reset_phase, rx_obs, self.tx_obs, cursors):
            self.idle_memo = idle + (self.observed, tuple(gossips))
        return new(IterationResult, (outgoing, delivered, accepted, gossips))

    # -- packet handlers ------------------------------------------------

    def on_msg(self, payload: str, j: int, s: int, from_id: int) -> MsgAck:
        """Store/ack an incoming broadcast copy. The ack is unconditional."""
        self.update(payload, j, s, from_id)
        return tuple.__new__(MsgAck, (j, s))

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

    # -- bounded-counter mode -------------------------------------------

    def check_overflow(self) -> bool:
        """True iff any counter reached MAXINT; disables new broadcasts."""
        if self.maxint is None:
            return False
        m = self.maxint
        over = self.seq >= m
        if not over:
            over = any(r.seq >= m for r in self.buffer)
        if not over:
            over = any(
                v >= m
                for arr in (self.rx_obs, self.tx_obs, self.next_deliver)
                for v in arr[1:]
            )
        if over and self.reset_phase == NORMAL:
            self.reset_phase = DISABLED
        return over

    def perform_global_reset(self) -> None:
        """Reinitialize all protocol counters; queued broadcasts survive."""
        self.seq = 0
        self.buffer = []
        self.rx_obs = [0] * (self.n + 1)
        self.tx_obs = [0] * (self.n + 1)
        self.next_deliver = [1] * (self.n + 1)
        self.reset_phase = NORMAL
        self.observed = self._observe(list(range(1, self.n + 1)))

    # -- serialization ----------------------------------------------------

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
