import pytest

from ssurb.wire import Gossip, Heartbeat, Msg, MsgAck, encode, message_id


@pytest.mark.parametrize(
    "msg, expected",
    [
        (Msg("hello", 2, 7), {"kind": "MSG", "payload": "hello", "sender": 2, "seq": 7}),
        (MsgAck(2, 7), {"kind": "MSGACK", "sender": 2, "seq": 7}),
        (Gossip(9, 4, 3), {"kind": "GOSSIP", "max_seq": 9, "rx_obs": 4, "tx_obs": 3}),
        (Heartbeat(12, 5), {"kind": "HEARTBEAT", "sender_count": 12, "dst_count": 5}),
    ],
    ids=["MSG", "MSGACK", "GOSSIP", "HEARTBEAT"],
)
def test_encode(msg, expected):
    assert encode(msg) == expected


def test_encode_rejects_non_message():
    with pytest.raises(TypeError):
        encode({"kind": "MSG"})


def test_message_identity():
    assert message_id(Msg("x", 3, 9)) == (3, 9)
    assert message_id(MsgAck(3, 9)) == (3, 9)
    assert message_id(Gossip(1, 2, 3)) is None
    assert message_id(Heartbeat(0, 0)) is None
