import pytest

from ssurb.wire import Gossip, Heartbeat, Msg, MsgAck, decode, encode, message_id

EVERY_KIND = pytest.mark.parametrize(
    "msg, expected",
    [
        (Msg("hello", 2, 7), {"kind": "MSG", "payload": "hello", "sender": 2, "seq": 7}),
        (MsgAck(2, 7), {"kind": "MSGACK", "sender": 2, "seq": 7}),
        (Gossip(9, 4, 3), {"kind": "GOSSIP", "max_seq": 9, "rx_obs": 4, "tx_obs": 3}),
        (Heartbeat(12, 5), {"kind": "HEARTBEAT", "sender_count": 12, "dst_count": 5}),
    ],
    ids=["MSG", "MSGACK", "GOSSIP", "HEARTBEAT"],
)


@EVERY_KIND
def test_encode(msg, expected):
    assert encode(msg) == expected
    assert msg.kind == expected["kind"]
    # a snapshot's packet dict adds the birth step, which decode ignores
    assert decode(dict(expected, birth_step=3)) == msg


@EVERY_KIND
def test_messages_are_immutable_and_hashable(msg, expected):
    for field in expected:
        if field == "kind":
            continue
        with pytest.raises(AttributeError):
            setattr(msg, field, 0)
    assert encode(msg) == expected
    assert {msg, type(msg)(*msg)} == {msg}
    assert hash(msg) == hash(type(msg)(*msg))


def test_equal_fields_of_different_kinds_differ():
    assert MsgAck(2, 7) != Heartbeat(2, 7)
    assert not MsgAck(2, 7) == Heartbeat(2, 7)
    assert MsgAck(2, 7) != (2, 7)
    assert len({MsgAck(2, 7), Heartbeat(2, 7)}) == 2
    assert MsgAck(2, 7) == MsgAck(2, 7)


def test_encode_rejects_non_message():
    with pytest.raises(TypeError):
        encode({"kind": "MSG"})


def test_message_identity():
    assert message_id(Msg("x", 3, 9)) == (3, 9)
    assert message_id(MsgAck(3, 9)) == (3, 9)
    assert message_id(Gossip(1, 2, 3)) is None
    assert message_id(Heartbeat(0, 0)) is None
