"""Property tests: the repair loop is total on arbitrary states, its repairs
hold after a single pass, repeated passes with a frozen detector view reach a
fixpoint, and transitions are replay-deterministic."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssurb.detectors import DetectorView
from ssurb.node import BufferRecord, NodeState


def _records(n, horizon):
    return st.lists(
        st.builds(
            BufferRecord,
            payload=st.one_of(st.none(), st.text(min_size=1, max_size=4)),
            sender=st.integers(1, n),
            seq=st.integers(0, horizon),
            delivered=st.booleans(),
            rec_by=st.sets(st.integers(1, n), max_size=n),
            prev_hb=st.lists(st.integers(-1, 8), min_size=n + 1, max_size=n + 1),
        ),
        max_size=3 * n,
    )


@st.composite
def arbitrary_node(draw):
    n = draw(st.integers(1, 4))
    b = draw(st.integers(1, 3))
    fifo = draw(st.booleans())
    horizon = 12
    node = NodeState(draw(st.integers(1, n)), n, b, fifo=fifo)
    node.seq = draw(st.integers(0, horizon))
    node.rx_obs[1:] = draw(st.lists(st.integers(0, horizon), min_size=n, max_size=n))
    node.tx_obs[1:] = draw(st.lists(st.integers(0, horizon), min_size=n, max_size=n))
    node.next_deliver[1:] = draw(st.lists(st.integers(1, horizon + 1), min_size=n, max_size=n))
    node.buffer = draw(_records(n, horizon))
    trusted = draw(st.sets(st.integers(1, n), max_size=n))
    hb = (0,) + tuple(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)))
    return node, DetectorView(frozenset(trusted), hb)


def _state(node):
    # the snapshot form of the whole live state, every node taken as trusted
    return node._observe(list(range(1, node.n + 1)))


@given(arbitrary_node())
@settings(max_examples=300, deadline=None)
def test_single_iteration_repairs_any_state(case):
    node, view = case
    b, n = node.buffer_unit_size, node.n
    node.do_forever_iteration(view)
    identities = [(r.sender, r.seq) for r in node.buffer]
    assert all(r.payload is not None for r in node.buffer)
    assert len(identities) == len(set(identities))
    for k in range(1, n + 1):
        assert node.max_seqs()[k] - node.rx_obs[k] <= b
    assert len(node.buffer) <= b * n + n
    if node.fifo:
        for k in range(1, n + 1):
            assert node.next_deliver[k] >= node.rx_obs[k] + 1


@given(arbitrary_node())
@settings(max_examples=300, deadline=None)
def test_seq_and_watermarks_never_regress(case):
    node, view = case
    seq0 = node.seq
    rx0 = list(node.rx_obs)
    next0 = list(node.next_deliver)
    node.do_forever_iteration(view)
    assert node.seq >= seq0
    assert all(a >= b for a, b in zip(node.rx_obs, rx0))
    assert all(a >= b for a, b in zip(node.next_deliver, next0))


def _settles_in_three_passes(node, view):
    # the local repair pipeline is three passes deep: deliveries settle first,
    # then the obsolete walk and the watermark fold, then the trim
    for _ in range(3):
        node.do_forever_iteration(view)
    frozen = copy.deepcopy(node)
    node.do_forever_iteration(view)
    assert _state(node) == _state(frozen)
    assert node.seq == frozen.seq


@given(arbitrary_node())
@settings(max_examples=200, deadline=None)
def test_repeated_iteration_reaches_fixpoint(case):
    node, view = case
    node.pending.clear()
    _settles_in_three_passes(node, view)


@pytest.mark.xfail(
    strict=True,
    reason="a send-window repair (b) lifts the own FIFO cursor only after the delivery "
    "step (f), so an own record just above the repaired seq is delivered a pass late "
    "and the pipeline is four passes deep",
)
def test_send_window_repair_settles_in_three_passes():
    # an own record above seq, with the send window out of range: pass 1
    # repairs the window to seq, pass 2 delivers, pass 3 walks and folds,
    # pass 4 trims
    node = NodeState(4, 4, 2, fifo=True)
    node.seq = 10
    node.buffer = [BufferRecord("0", 4, 11, False, {4}, [0] * 5)]
    _settles_in_three_passes(node, DetectorView(frozenset({4}), (0,) * 5))


@given(arbitrary_node())
@settings(max_examples=200, deadline=None)
def test_iteration_is_deterministic(case):
    node, view = case
    twin = copy.deepcopy(node)
    out_a = node.do_forever_iteration(view)
    out_b = twin.do_forever_iteration(view)
    assert _state(node) == _state(twin)
    assert out_a.outgoing == out_b.outgoing
    assert out_a.delivered == out_b.delivered
    assert out_a.accepted == out_b.accepted


@given(arbitrary_node(), st.integers(1, 4), st.integers(0, 12), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_ack_set_growth_and_delivery_flag_sticky(case, j, s, k):
    node, view = case
    j = min(j, node.n)
    k = min(k, node.n)
    identities = [(r.sender, r.seq) for r in node.buffer]
    before = {
        (r.sender, r.seq): (set(r.rec_by), r.delivered)
        for r in node.buffer
        if identities.count((r.sender, r.seq)) == 1
    }
    node.on_msg("fresh", j, s, k)
    node.on_msg_ack(j, s, k)
    node.on_gossip(s, s, s, j)
    for r in node.buffer:
        key = (r.sender, r.seq)
        if key in before:
            old_rec_by, old_delivered = before[key]
            assert old_rec_by.issubset(r.rec_by)
            if old_delivered:
                assert r.delivered


@given(arbitrary_node(), st.text(min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_broadcast_respects_flow_window(case, payload):
    node, view = case
    node.reset_phase = "normal"
    window = node.min_tx_obs(view.trusted) + node.buffer_unit_size
    mid = node.urb_broadcast(view, payload)
    if mid is not None:
        assert mid == (node.self_id, node.seq)
        assert node.seq <= window
    else:
        assert payload in node.pending
