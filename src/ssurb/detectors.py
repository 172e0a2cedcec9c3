"""Failure detection: heartbeat counters and the trusted-set oracle.

The broadcast state machine consumes both through a `DetectorView` named
tuple taken once per iteration: the trusted set and the live heartbeat
list, which the node only reads, so taking it costs one tuple. Heartbeat
counters self-repair through max-folds on received HEARTBEAT packets;
`tick` walks the peer list fixed at set-up, its heartbeats in that order.
The trusted set is backed by the simulator's delayed crash oracle and is
overwritten wholesale on every `reconcile`, which removes corruption in
either direction within one iteration.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .wire import Heartbeat


class DetectorView(NamedTuple):
    """Per-iteration view of the detectors: `hb` is the live list, read only, index 0 unused."""

    trusted: frozenset[int]
    hb: Sequence[int]


class HeartbeatState:
    """Per-peer liveness counters: bounded for crashed peers, unbounded for live ones."""

    def __init__(self, self_id: int, n: int):
        self.self_id = self_id
        self.n = n
        self.hb = [0] * (n + 1)  # index 0 unused
        self.peers = [j for j in range(1, n + 1) if j != self_id]

    def tick(self) -> list[Heartbeat]:
        """Increment own counter and return a heartbeat for each of `peers`, in order."""
        hb, new = self.hb, tuple.__new__  # builds the named tuple without a Python frame
        own = hb[self.self_id] = hb[self.self_id] + 1
        return [new(Heartbeat, (own, hb[j])) for j in self.peers]

    def on_heartbeat(self, sender_count: int, dst_count: int, from_id: int) -> None:
        """Max-fold the received counters; the echoed own entry repairs local regressions."""
        hb = self.hb
        if sender_count > hb[from_id]:
            hb[from_id] = sender_count
        if dst_count > hb[self.self_id]:
            hb[self.self_id] = dst_count

    def reset(self) -> None:
        self.hb = [0] * (self.n + 1)

    def copy(self) -> HeartbeatState:
        twin = object.__new__(HeartbeatState)  # sharing the peer list, never mutated
        twin.self_id, twin.n, twin.peers, twin.hb = self.self_id, self.n, self.peers, self.hb[:]
        return twin


class ThetaState:
    """Trusted-set detector: trusted = all nodes minus the suspected set."""

    def __init__(self, self_id: int, n: int):
        self.self_id = self_id
        self.n = n
        self.suspected: set[int] = set()
        self._trusted = frozenset(range(1, n + 1))
        self._trusted_of: frozenset[int] = frozenset()  # the suspected set it excludes

    def reconcile(self, oracle_crashed: set[int]) -> None:
        """Overwrite with the (delayed) ground truth; repairs corrupted suspicion."""
        if oracle_crashed != self.suspected:
            self.suspected = set(oracle_crashed)

    def copy(self) -> ThetaState:
        twin = object.__new__(ThetaState)  # sharing the frozen trusted view and its key
        twin.self_id, twin.n, twin.suspected = self.self_id, self.n, set(self.suspected)
        twin._trusted, twin._trusted_of = self._trusted, self._trusted_of
        return twin

    def trusted_view(self) -> frozenset[int]:
        """Rebuilt only when the suspected set differs from the last view's."""
        suspected = self.suspected
        if suspected != self._trusted_of:
            self._trusted_of = frozenset(suspected)
            self._trusted = frozenset(k for k in range(1, self.n + 1) if k not in suspected)
        return self._trusted
