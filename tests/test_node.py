import pytest

from ssurb.detectors import DetectorView
from ssurb.node import DISABLED, NORMAL, BufferRecord, NodeState
from ssurb.wire import Gossip, Msg, MsgAck


def view(n, trusted=None, hb=1):
    members = frozenset(range(1, n + 1)) if trusted is None else frozenset(trusted)
    counts = (0,) + (hb,) * n if isinstance(hb, int) else (0,) + tuple(hb)
    return DetectorView(members, counts)


def record(payload, sender, seq, n, delivered=False, rec_by=None, prev_hb=None):
    return BufferRecord(
        payload=payload,
        sender=sender,
        seq=seq,
        delivered=delivered,
        rec_by=set(rec_by) if rec_by is not None else {sender},
        prev_hb=list(prev_hb) if prev_hb is not None else [-1] * (n + 1),
    )


# -- macros -----------------------------------------------------------------


def test_max_seq_over_buffered_records():
    node = NodeState(1, 3, 4)
    node.buffer = [record("a", 2, 3, 3), record("b", 2, 7, 3), record("c", 3, 1, 3)]
    assert node.max_seqs()[2] == 7


def test_max_seq_fifo_uses_next_cursor():
    node = NodeState(1, 3, 4, fifo=True)
    node.next_deliver[2] = 5
    assert node.max_seqs()[2] == 4


def test_max_seq_empty_defaults_to_zero():
    node = NodeState(1, 3, 4)
    assert node.max_seqs()[2] == 0


def test_min_tx_obs_minimum_over_trusted():
    node = NodeState(1, 3, 4)
    node.tx_obs[1:] = [4, 9, 2]
    assert node.min_tx_obs(frozenset({1, 2})) == 4
    assert node.min_tx_obs(frozenset({1, 2, 3})) == 2


def test_min_tx_obs_empty_trusted_falls_back_to_seq():
    node = NodeState(1, 3, 4)
    node.seq = 7
    assert node.min_tx_obs(frozenset()) == 7


def _watermark_after_iteration(rx_obs, delivered, rec_by, trusted=None):
    # node 1 of 3 holds record (2, 5); the obsolete walk of step (d) moves
    # the watermark rx_obs[2] past it only if the record is obsolete
    node = NodeState(1, 3, 4)
    node.rx_obs[2] = rx_obs
    node.buffer = [record("m", 2, 5, 3, delivered=delivered, rec_by=rec_by)]
    node.do_forever_iteration(view(3, trusted=trusted))
    return node.rx_obs[2]


def test_obsolete_requires_all_three_clauses():
    assert _watermark_after_iteration(4, True, {1, 2, 3}) == 5
    assert _watermark_after_iteration(4, False, {1, 2, 3}) == 4  # not delivered
    assert _watermark_after_iteration(4, True, {1, 2}) == 4  # trusted 3 lacks it
    assert _watermark_after_iteration(3, True, {1, 2, 3}) == 3  # not next past rx_obs
    assert _watermark_after_iteration(4, True, {1, 2}, trusted={1, 2}) == 5


# -- broadcast operation ------------------------------------------------------


def test_broadcast_accepts_inside_window():
    node = NodeState(1, 3, 4)
    node.seq = 5
    node.tx_obs[1:] = [3, 3, 3]
    mid = node.urb_broadcast(view(3), "m")
    assert mid == (1, 6)
    assert node.seq == 6
    (r,) = [r for r in node.buffer if r.seq == 6]
    assert (r.payload, r.sender, r.delivered, r.rec_by) == ("m", 1, False, {1})
    assert r.prev_hb == [-1, -1, -1, -1]


def test_broadcast_defers_when_window_full():
    node = NodeState(1, 3, 4)
    node.seq = 7
    node.tx_obs[1:] = [3, 3, 3]
    assert node.urb_broadcast(view(3), "m") is None
    assert list(node.pending) == ["m"]
    assert node.seq == 7


def test_broadcast_with_empty_trusted_uses_seq_fallback():
    node = NodeState(1, 3, 1)
    assert node.urb_broadcast(view(3, trusted=()), "m") == (1, 1)
    assert node.seq == 1


def test_broadcast_rejects_null_payload():
    node = NodeState(1, 3, 4)
    with pytest.raises(ValueError):
        node.urb_broadcast(view(3), None)


def test_broadcast_while_disabled_is_deferred():
    node = NodeState(1, 3, 4, maxint=100)
    node.reset_phase = DISABLED
    assert node.urb_broadcast(view(3), "m") is None
    assert list(node.pending) == ["m"]


# -- update procedure ----------------------------------------------------------


def test_update_ignores_obsolete_seq():
    node = NodeState(1, 3, 4)
    node.rx_obs[2] = 4
    node.update("m", 2, 3, 5)
    assert node.buffer == []


def test_update_inserts_fresh_record():
    node = NodeState(1, 5, 4)
    node.update("m", 2, 7, 5)
    (r,) = node.buffer
    assert (r.payload, r.sender, r.seq, r.delivered) == ("m", 2, 7, False)
    assert r.rec_by == {2, 5}
    assert r.prev_hb == [-1] * 6


def test_update_null_payload_unions_ack_set():
    node = NodeState(1, 5, 4)
    node.buffer = [record("m", 2, 7, 5, rec_by={2})]
    node.update(None, 2, 7, 4)
    assert node.buffer[0].rec_by == {2, 4}


def test_update_existing_payload_wins():
    node = NodeState(1, 3, 4)
    node.buffer = [record("original", 2, 7, 3, rec_by={2})]
    node.update("imposter", 2, 7, 3)
    (r,) = node.buffer
    assert r.payload == "original"
    assert r.rec_by == {2, 3}


# -- the do-forever iteration ----------------------------------------------------


def test_purge_on_duplicate_identity():
    node = NodeState(1, 3, 4)
    node.buffer = [record("m", 2, 5, 3), record("m2", 2, 5, 3)]
    node.do_forever_iteration(view(3))
    assert node.buffer == []


def test_purge_on_null_payload():
    node = NodeState(1, 3, 4)
    node.buffer = [record(None, 2, 5, 3), record("ok", 3, 1, 3)]
    node.do_forever_iteration(view(3))
    assert all(r.payload is not None for r in node.buffer)
    assert not any(r.sender == 2 and r.seq == 5 for r in node.buffer)


def test_delivery_when_all_trusted_acked():
    node = NodeState(1, 3, 4)
    node.seq = 4
    node.tx_obs[1:] = [3, 3, 3]
    node.buffer = [record("m", 1, 4, 3, rec_by={1, 2, 3})]
    result = node.do_forever_iteration(view(3))
    assert result.delivered == [(1, 4)]
    assert node.buffer[0].delivered


def test_tx_window_repair_noop_when_covered():
    # hand-evaluated: mS=3, window 3<=5<=3+2, {4,5} within own seqs: no repair
    node = NodeState(1, 3, 2)
    node.seq = 5
    node.tx_obs[1:] = [3, 3, 3]
    node.buffer = [record("a", 1, 4, 3), record("b", 1, 5, 3)]
    node.do_forever_iteration(view(3, trusted={2, 3}))
    assert node.tx_obs[1:] == [3, 3, 3]


def test_tx_window_repair_fires_on_gap():
    node = NodeState(1, 3, 2)
    node.seq = 5
    node.tx_obs[1:] = [3, 3, 3]
    node.buffer = [record("b", 1, 5, 3)]  # seq 4 missing from (3, 5]
    node.do_forever_iteration(view(3, trusted={2, 3}))
    assert node.tx_obs[1:] == [5, 5, 5]


def test_rx_clamp_bounds_receive_window():
    node = NodeState(1, 2, 2)
    node.buffer = [record("x", 2, 9, 2)]
    node.do_forever_iteration(view(2))
    assert node.rx_obs[2] >= 7  # maxSeq(2) - bufferUnitSize
    assert all(node.max_seqs()[k] - node.rx_obs[k] <= 2 for k in (1, 2))


def test_fifo_next_clamped_above_watermark():
    node = NodeState(1, 2, 2, fifo=True)
    node.rx_obs[2] = 6
    node.do_forever_iteration(view(2))
    assert node.next_deliver[2] >= 7


def test_obsolete_advance_walks_consecutive_records():
    node = NodeState(1, 3, 4)
    node.rx_obs[2] = 0
    node.buffer = [
        record("a", 2, 1, 3, delivered=True, rec_by={1, 2, 3}),
        record("b", 2, 2, 3, delivered=True, rec_by={1, 2, 3}),
        record("c", 2, 4, 3, delivered=True, rec_by={1, 2, 3}),  # gap at 3
    ]
    node.do_forever_iteration(view(3))
    assert node.rx_obs[2] == 2


def test_trim_drops_own_records_below_window():
    node = NodeState(1, 3, 4)
    node.seq = 6
    node.tx_obs[1:] = [6, 6, 6]
    node.buffer = [record("old", 1, 2, 3), record("cur", 1, 6, 3)]
    node.do_forever_iteration(view(3))
    assert [r.seq for r in node.buffer if r.sender == 1] == []
    # both are at or below minTxObsS = 6


def test_send_loop_targets_missing_ackers_and_stamps_prev_hb():
    node = NodeState(1, 3, 4)
    node.seq = 1
    node.tx_obs[1] = 1  # own frontier already past seq 1
    node.buffer = [record("m", 1, 1, 3, rec_by={1})]
    result = node.do_forever_iteration(view(3, hb=5))
    msgs = [(dst, m) for dst, m in result.outgoing if isinstance(m, Msg)]
    assert {dst for dst, _ in msgs} == {2, 3}
    assert node.buffer[0].prev_hb[2] == 5 and node.buffer[0].prev_hb[3] == 5
    # second pass with the same heartbeat view: no resend
    result2 = node.do_forever_iteration(view(3, hb=5))
    assert not [m for _, m in result2.outgoing if isinstance(m, Msg)]


def test_send_loop_includes_self_channel_at_tx_frontier():
    # the retry clause ranges over every node, the self copy round-trips
    # through the loopback channel
    node = NodeState(1, 3, 4)
    node.seq = 1
    node.buffer = [record("m", 1, 1, 3, rec_by={1})]
    result = node.do_forever_iteration(view(3, hb=5))
    msgs = [(dst, m) for dst, m in result.outgoing if isinstance(m, Msg)]
    assert {dst for dst, _ in msgs} == {1, 2, 3}


def test_send_loop_retries_own_record_at_tx_frontier():
    node = NodeState(1, 2, 4)
    node.seq = 3
    node.tx_obs[1:] = [3, 2]
    node.buffer = [record("m", 1, 3, 2, rec_by={1, 2}, prev_hb=[-1, 0, 0])]
    result = node.do_forever_iteration(view(2, hb=4))
    # 2 is already in rec_by, but seq == tx_obs[2]+1 forces a retransmission
    assert [(dst, m.seq) for dst, m in result.outgoing if isinstance(m, Msg)] == [(2, 3)]


def test_gossip_emitted_to_peers_only():
    node = NodeState(2, 3, 4)
    node.rx_obs[1], node.rx_obs[3] = 5, 7
    result = node.do_forever_iteration(view(3))
    assert not result.outgoing  # nothing buffered, so no MSG
    # one gossip per peer, in `HeartbeatState.peers` order: node 1, then node 3
    assert [(type(m), m.rx_obs) for m in result.gossips] == [(Gossip, 5), (Gossip, 7)]


def test_the_view_heartbeat_list_is_only_read():
    # the simulator passes its live heartbeat list, uncopied
    node = NodeState(1, 3, 4)
    node.seq = 1
    node.buffer = [record("m", 1, 1, 3, rec_by={1})]
    counts = [0, 5, 6, 7]
    result = node.do_forever_iteration(DetectorView(frozenset({1, 2, 3}), counts))
    node.urb_broadcast(DetectorView(frozenset({1, 2, 3}), counts), "n")
    assert [dst for dst, _ in result.outgoing] == [1, 2, 3]  # step (f) read the counts
    assert node.buffer[0].prev_hb == [-1, 5, 6, 7]
    assert counts == [0, 5, 6, 7]


@pytest.mark.parametrize("trusted", [set(), {1}], ids=["nobody-trusted", "self-trusted"])
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2, node bound: trim (e) keeps every own record above min_tx_obs, "
    "the regressed seq or tx_obs 0, and the seq floor of (g) lifts seq only afterwards",
)
def test_one_iteration_bounds_the_buffer_of_a_regressed_seq(trusted):
    # n=1, b=1, seq 0 below its own delivered records 1-3: a bound of b*n + n = 2
    node = NodeState(1, 1, 1)
    node.buffer = [record(f"m{s}", 1, s, 1, delivered=True) for s in (1, 2, 3)]
    node.do_forever_iteration(view(1, trusted=trusted))
    assert len(node.buffer) <= 1 * 1 + 1


def test_self_fold_repairs_seq_from_own_buffer():
    node = NodeState(1, 3, 4)
    node.seq = 2
    node.buffer = [record("m", 1, 9, 3)]
    node.do_forever_iteration(view(3))
    assert node.seq >= 9


def test_self_fold_bridges_rx_to_tx():
    node = NodeState(1, 2, 4)
    node.rx_obs[1] = 5
    node.do_forever_iteration(view(2))
    assert node.tx_obs[1] >= 5


def test_pending_drained_when_window_opens():
    node = NodeState(1, 2, 2)
    node.pending.extend(["p", "q", "r"])
    node.tx_obs[1:] = [0, 0]
    result = node.do_forever_iteration(view(2))
    assert [mid for mid, _ in result.accepted] == [(1, 1), (1, 2)]
    assert list(node.pending) == ["r"]


# -- handlers -----------------------------------------------------------------


def test_on_msg_inserts_and_acks():
    node = NodeState(1, 3, 4)
    ack = node.on_msg("m", 2, 7, 3)
    assert ack == MsgAck(2, 7)
    assert any(r.sender == 2 and r.seq == 7 for r in node.buffer)


def test_on_msg_acks_even_when_obsolete():
    node = NodeState(1, 3, 4)
    node.rx_obs[2] = 9
    ack = node.on_msg("m", 2, 7, 3)
    assert ack == MsgAck(2, 7)
    assert node.buffer == []


def test_on_msg_duplicate_is_idempotent_except_ack_set():
    node = NodeState(1, 4, 4)
    node.on_msg("m", 2, 7, 3)
    node.on_msg("m", 2, 7, 4)
    (r,) = node.buffer
    assert r.rec_by == {2, 3, 4}


def test_on_msg_ack_unions_or_noops():
    node = NodeState(1, 4, 4)
    node.buffer = [record("m", 2, 7, 4, rec_by={2})]
    node.on_msg_ack(2, 7, 4)
    assert node.buffer[0].rec_by == {2, 4}
    node.on_msg_ack(3, 1, 4)  # no matching record
    assert len(node.buffer) == 1
    node.rx_obs[2] = 9
    node.on_msg_ack(2, 7, 3)  # below watermark
    assert node.buffer[0].rec_by == {2, 4}


def test_on_gossip_max_folds():
    node = NodeState(1, 3, 4)
    node.seq = 3
    node.on_gossip(9, 0, 0, 2)
    assert node.seq == 9
    node.tx_obs[2] = 2
    node.on_gossip(0, 5, 0, 2)
    assert node.tx_obs[2] == 5
    snapshot = (node.seq, node.tx_obs[2], node.rx_obs[2])
    node.on_gossip(1, 1, 0, 2)
    assert (node.seq, node.tx_obs[2], node.rx_obs[2]) == snapshot


# -- bounded mode ---------------------------------------------------------------


def test_check_overflow_on_seq():
    node = NodeState(1, 3, 4, maxint=100)
    node.seq = 100
    assert node.check_overflow()
    assert node.reset_phase == DISABLED


def test_check_overflow_below_threshold():
    node = NodeState(1, 3, 4, maxint=100)
    node.seq = 99
    node.rx_obs[1:] = [99, 99, 99]
    node.tx_obs[1:] = [99, 99, 99]
    assert not node.check_overflow()
    assert node.reset_phase == NORMAL


def test_check_overflow_on_corrupted_watermark():
    node = NodeState(1, 3, 4, maxint=100)
    node.rx_obs[3] = 250
    assert node.check_overflow()


def test_global_reset_reinitializes_but_keeps_pending():
    node = NodeState(1, 3, 4, maxint=100)
    node.seq = 90
    node.buffer = [record("m", 1, 90, 3)]
    node.rx_obs[1:] = [5, 6, 7]
    node.tx_obs[1:] = [5, 6, 7]
    node.next_deliver[1:] = [9, 9, 9]
    node.pending.extend(["x", "y"])
    node.reset_phase = DISABLED
    node.perform_global_reset()
    assert node.seq == 0
    assert node.buffer == []
    assert node.rx_obs[1:] == [0, 0, 0]
    assert node.tx_obs[1:] == [0, 0, 0]
    assert node.next_deliver[1:] == [1, 1, 1]
    assert list(node.pending) == ["x", "y"]
    assert node.reset_phase == NORMAL


# -- FIFO delivery gate -----------------------------------------------------------


def test_fifo_delivery_waits_for_cursor():
    node = NodeState(1, 3, 4, fifo=True)
    node.buffer = [record("m2", 2, 2, 3, rec_by={1, 2, 3})]
    result = node.do_forever_iteration(view(3))
    assert result.delivered == []
    node.buffer.append(record("m1", 2, 1, 3, rec_by={1, 2, 3}))
    result = node.do_forever_iteration(view(3))
    assert result.delivered == [(2, 1), (2, 2)]
    assert node.next_deliver[2] == 3


# -- copy -------------------------------------------------------------------------


def test_copy_never_calls_observe(monkeypatch):
    node = NodeState(2, 3, 4, fifo=True)
    node.do_forever_iteration(view(3))  # stores an idle memo
    node.buffer = [record("m", 2, 1, 3, rec_by={1, 2})]
    node.pending.append("queued")

    def refuse(*args, **kwargs):
        raise AssertionError("copy ran _observe")

    monkeypatch.setattr(NodeState, "_observe", refuse)
    twin = node.copy()
    assert vars(twin) == vars(node)
    assert twin.buffer[0] is not node.buffer[0] and twin.buffer[0].rec_by is not node.buffer[0].rec_by
    assert twin.observed is node.observed  # replaced, never mutated, so shared
