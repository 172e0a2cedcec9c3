import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssurb.trace import canonical
from ssurb.wire import Gossip, Heartbeat, Msg, MsgAck, encode, message_id

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


ints = st.integers(-(2**40), 2**40)
messages = st.one_of(
    st.builds(Msg, st.one_of(st.text(max_size=8), st.none()), ints, ints),
    st.builds(MsgAck, ints, ints),
    st.builds(Gossip, ints, ints, ints),
    st.builds(Heartbeat, ints, ints),
)


@given(messages, ints)
@settings(max_examples=300, deadline=None)
def test_in_flight_is_the_canonical_snapshot_packet(msg, birth):
    packet, line = msg.in_flight(birth)
    assert packet == dict(encode(msg), birth_step=birth)
    assert list(packet) == [*encode(msg), "birth_step"]
    assert line == canonical(packet)
