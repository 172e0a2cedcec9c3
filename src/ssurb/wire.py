"""Wire messages exchanged between nodes.

Four packet kinds: MSG carries an application payload with its identity
(original broadcaster, sequence number), MSGACK acknowledges one, GOSSIP
carries the per-peer flow-control triple, and HEARTBEAT carries liveness
counters. Messages are immutable named tuples, cheap to build, with the
kind as a class attribute; two messages are equal when they have the same
kind and fields. `encode` gives the JSON-dict form that traces and
snapshots record, and `encode_json` the canonical JSON a snapshot records
for an in-flight packet. The bounded-counter reset barrier is driven by
the simulator and sends no packets.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Union


class Msg(NamedTuple):
    payload: str
    sender: int  # original broadcaster
    seq: int
    kind = "MSG"


class MsgAck(NamedTuple):
    sender: int
    seq: int
    kind = "MSGACK"


class Gossip(NamedTuple):
    """Flow-control triple, all from the sending node's perspective.

    max_seq   highest sequence number the sender stores for the receiver
    rx_obs    sender's obsolete watermark for the receiver's messages
    tx_obs    sender's record of what the receiver declared obsolete
    """

    max_seq: int
    rx_obs: int
    tx_obs: int
    kind = "GOSSIP"


class Heartbeat(NamedTuple):
    sender_count: int
    dst_count: int
    kind = "HEARTBEAT"


def _same_kind_eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _same_kind_ne(self, other) -> bool:
    return not _same_kind_eq(self, other)


# tuples of equal fields compare equal; messages of different kinds do not
for _cls in (Msg, MsgAck, Gossip, Heartbeat):
    _cls.__eq__ = _same_kind_eq
    _cls.__ne__ = _same_kind_ne
    _cls.__hash__ = tuple.__hash__
del _cls

WireMessage = Union[Msg, MsgAck, Gossip, Heartbeat]


def message_id(msg: WireMessage) -> tuple[int, int] | None:
    """(broadcaster, seq) identity for MSG/MSGACK, None for control kinds."""
    if isinstance(msg, (Msg, MsgAck)):
        return (msg.sender, msg.seq)
    return None


def encode(msg: WireMessage) -> dict:
    cls = type(msg)
    if cls is Heartbeat:
        return {"kind": "HEARTBEAT", "sender_count": msg.sender_count, "dst_count": msg.dst_count}
    if cls is Gossip:
        return {"kind": "GOSSIP", "max_seq": msg.max_seq, "rx_obs": msg.rx_obs, "tx_obs": msg.tx_obs}
    if cls is Msg:
        return {"kind": "MSG", "payload": msg.payload, "sender": msg.sender, "seq": msg.seq}
    if cls is MsgAck:
        return {"kind": "MSGACK", "sender": msg.sender, "seq": msg.seq}
    raise TypeError(f"not a wire message: {msg!r}")


def encode_json(msg: WireMessage, birth_step: int) -> str:
    """The canonical JSON of `encode(msg)` with `birth_step` added, as a
    snapshot records an in-flight packet, rendered from the fields."""
    cls = type(msg)
    if cls is Heartbeat:
        return (
            f'{{"birth_step":{birth_step},"dst_count":{msg.dst_count},'
            f'"kind":"HEARTBEAT","sender_count":{msg.sender_count}}}'
        )
    if cls is Gossip:
        return (
            f'{{"birth_step":{birth_step},"kind":"GOSSIP","max_seq":{msg.max_seq},'
            f'"rx_obs":{msg.rx_obs},"tx_obs":{msg.tx_obs}}}'
        )
    if cls is Msg:
        payload = "null" if msg.payload is None else encode_basestring_ascii(msg.payload)
        return (
            f'{{"birth_step":{birth_step},"kind":"MSG","payload":{payload},'
            f'"sender":{msg.sender},"seq":{msg.seq}}}'
        )
    if cls is MsgAck:
        return (
            f'{{"birth_step":{birth_step},"kind":"MSGACK",'
            f'"sender":{msg.sender},"seq":{msg.seq}}}'
        )
    raise TypeError(f"not a wire message: {msg!r}")
