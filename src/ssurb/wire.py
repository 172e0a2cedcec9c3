"""Wire messages exchanged between nodes.

Four packet kinds: MSG carries an application payload with its identity
(original broadcaster, sequence number), MSGACK acknowledges one, GOSSIP
carries the per-peer flow-control triple, and HEARTBEAT carries liveness
counters. `encode` gives the JSON-dict form that traces and snapshots
record. The bounded-counter reset barrier is driven by the simulator and
sends no packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union


@dataclass(frozen=True, slots=True)
class Msg:
    kind: ClassVar[str] = "MSG"
    payload: str
    sender: int  # original broadcaster
    seq: int


@dataclass(frozen=True, slots=True)
class MsgAck:
    kind: ClassVar[str] = "MSGACK"
    sender: int
    seq: int


@dataclass(frozen=True, slots=True)
class Gossip:
    """Flow-control triple, all from the sending node's perspective.

    max_seq   highest sequence number the sender stores for the receiver
    rx_obs    sender's obsolete watermark for the receiver's messages
    tx_obs    sender's record of what the receiver declared obsolete
    """

    kind: ClassVar[str] = "GOSSIP"
    max_seq: int
    rx_obs: int
    tx_obs: int


@dataclass(frozen=True, slots=True)
class Heartbeat:
    kind: ClassVar[str] = "HEARTBEAT"
    sender_count: int
    dst_count: int


WireMessage = Union[Msg, MsgAck, Gossip, Heartbeat]


def message_id(msg: WireMessage) -> tuple[int, int] | None:
    """(broadcaster, seq) identity for MSG/MSGACK, None for control kinds."""
    if isinstance(msg, (Msg, MsgAck)):
        return (msg.sender, msg.seq)
    return None


def encode(msg: WireMessage) -> dict:
    if isinstance(msg, Msg):
        return {"kind": "MSG", "payload": msg.payload, "sender": msg.sender, "seq": msg.seq}
    if isinstance(msg, MsgAck):
        return {"kind": "MSGACK", "sender": msg.sender, "seq": msg.seq}
    if isinstance(msg, Gossip):
        return {"kind": "GOSSIP", "max_seq": msg.max_seq, "rx_obs": msg.rx_obs, "tx_obs": msg.tx_obs}
    if isinstance(msg, Heartbeat):
        return {"kind": "HEARTBEAT", "sender_count": msg.sender_count, "dst_count": msg.dst_count}
    raise TypeError(f"not a wire message: {msg!r}")

