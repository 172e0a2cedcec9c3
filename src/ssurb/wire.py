"""Wire messages exchanged between nodes.

Four packet kinds: MSG carries an application payload with its identity
(original broadcaster, sequence number), MSGACK acknowledges one, GOSSIP
carries the per-peer flow-control triple, and HEARTBEAT carries liveness
counters. Messages are immutable named tuples, cheap to build, with the
kind as a class attribute; two messages are equal when they have the same
kind and fields. `encode` gives a message's JSON-dict form; `in_flight`
gives a snapshot's record of the message in flight, that form plus its
birth step, with the record's canonical JSON. The bounded-counter reset
barrier is driven by the simulator and sends no packets.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Union


class Msg(NamedTuple):
    payload: str
    sender: int  # original broadcaster
    seq: int
    kind = "MSG"

    def in_flight(self, birth: int) -> tuple[dict, str]:
        """`encode(self)` with "birth_step" added, as a snapshot records the
        message in flight since step `birth`, and its canonical JSON."""
        payload, sender, seq = self
        text = "null" if payload is None else encode_basestring_ascii(payload)
        return ({"kind": "MSG", "payload": payload, "sender": sender, "seq": seq, "birth_step": birth},
                f'{{"birth_step":{birth},"kind":"MSG","payload":{text},"sender":{sender},"seq":{seq}}}')


class MsgAck(NamedTuple):
    sender: int
    seq: int
    kind = "MSGACK"

    def in_flight(self, birth: int) -> tuple[dict, str]:
        sender, seq = self
        return ({"kind": "MSGACK", "sender": sender, "seq": seq, "birth_step": birth},
                f'{{"birth_step":{birth},"kind":"MSGACK","sender":{sender},"seq":{seq}}}')


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

    def in_flight(self, birth: int) -> tuple[dict, str]:
        top, rx, tx = self
        return ({"kind": "GOSSIP", "max_seq": top, "rx_obs": rx, "tx_obs": tx, "birth_step": birth},
                f'{{"birth_step":{birth},"kind":"GOSSIP","max_seq":{top},"rx_obs":{rx},"tx_obs":{tx}}}')


class Heartbeat(NamedTuple):
    sender_count: int
    dst_count: int
    kind = "HEARTBEAT"

    def in_flight(self, birth: int) -> tuple[dict, str]:
        sent, seen = self
        return ({"kind": "HEARTBEAT", "sender_count": sent, "dst_count": seen, "birth_step": birth},
                f'{{"birth_step":{birth},"dst_count":{seen},"kind":"HEARTBEAT","sender_count":{sent}}}')


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
