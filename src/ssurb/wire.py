"""Wire messages exchanged between nodes.

Four packet kinds: MSG carries an application payload with its identity
(original broadcaster, sequence number), MSGACK acknowledges one, GOSSIP
carries the per-peer flow-control triple, and HEARTBEAT carries liveness
counters. Messages are immutable named tuples, cheap to build, with the
kind as a class attribute; two messages are equal when they have the same
kind and fields. `encode` gives a message's one JSON-dict form and
`decode` the message of such a dict; a snapshot keeps the messages in
flight themselves, and `trace.snapshot_channels` renders their text. The
bounded-counter reset barrier is driven by the simulator and sends no
packets.
"""

from __future__ import annotations

from operator import itemgetter
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
    """The JSON-dict form of `msg`: its kind and its fields."""
    if type(msg) not in (Msg, MsgAck, Gossip, Heartbeat):
        raise TypeError(f"not a wire message: {msg!r}")
    return {"kind": msg.kind, **msg._asdict()}


# each kind's message class, and the getter of its fields from its dict
_DECODERS = {cls.kind: (cls, itemgetter(*cls._fields)) for cls in (Msg, MsgAck, Gossip, Heartbeat)}


def decode(packet: dict) -> WireMessage:
    """The message whose `encode` form `packet` holds; other keys, such as
    the "birth_step" of a packet in a snapshot, are ignored."""
    cls, fields = _DECODERS[packet["kind"]]
    return tuple.__new__(cls, fields(packet))
