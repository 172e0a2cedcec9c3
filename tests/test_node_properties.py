"""Node properties, each written once as a function of a state, its view
and one repair pass from it, and checked over every state of the
declared scopes of `node_states` by one test, and on hypothesis draws by
one test each. The pass is total on arbitrary
states, its repairs hold after it, nothing it floors regresses, it is
replay-deterministic, and three passes with a frozen view reach a
fixpoint. The handlers grow ack sets and keep delivery flags, and a
broadcast stays inside the flow-control window.

The buffer bound b·n + n fails on 5 376 of the n=1, b=1 scope's states
(ROADMAP item 2), so it is checked over the scopes only, that scope's
count pinned in a strict xfail: no sampled test can fail on it by chance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from node_states import N1B1, N1B2, N2B1, arbitrary_node, full_state, scope

from ssurb.detectors import DetectorView
from ssurb.node import BufferRecord, NodeState


def no_null_payload(before, view, after, out):
    assert all(r.payload is not None for r in after.buffer)


def unique_identities(before, view, after, out):
    identities = [(r.sender, r.seq) for r in after.buffer]
    assert len(identities) == len(set(identities))


def receive_window(before, view, after, out):
    max_seqs = after.max_seqs()
    assert all(max_seqs[k] - after.rx_obs[k] <= after.buffer_unit_size for k in range(1, after.n + 1))


def fifo_cursor(before, view, after, out):
    if after.fifo:
        assert all(after.next_deliver[k] >= after.rx_obs[k] + 1 for k in range(1, after.n + 1))


def no_regression(before, view, after, out):
    assert after.seq >= before.seq
    assert all(a >= b for a, b in zip(after.rx_obs, before.rx_obs))
    assert all(a >= b for a, b in zip(after.next_deliver, before.next_deliver))


def deterministic(before, view, after, out):
    twin = before.copy()
    assert twin.do_forever_iteration(view) == out
    assert full_state(twin) == full_state(after)


def settles_in_three_passes(before, view, after, out):
    # the local repair pipeline is three passes deep: deliveries settle first,
    # then the obsolete walk and the watermark fold, then the trim
    node = after.copy()
    for _ in range(2):
        node.do_forever_iteration(view)
    frozen = full_state(node)
    node.do_forever_iteration(view)
    assert full_state(node)[:-1] == frozen[:-1]  # `observed` aside: taken mid-pass, it lags one


def within_bound(node):
    return len(node.buffer) <= node.buffer_unit_size * node.n + node.n


ONE_PASS = (no_null_payload, unique_identities, receive_window, fifo_cursor, no_regression, deterministic)


def check(node, view, properties):
    """One pass from `node` on a copy, and every property of it; returns the copy."""
    after = node.copy()
    out = after.do_forever_iteration(view)
    for prop in properties:
        prop(node, view, after, out)
    return after


def ack_sets_grow(node, j, s, k):
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


def broadcast_respects_window(node, view, payload):
    node.reset_phase = "normal"
    window = node.min_tx_obs(view.trusted) + node.buffer_unit_size
    mid = node.urb_broadcast(view, payload)
    if mid is not None:
        assert mid == (node.self_id, node.seq)
        assert node.seq <= window
    else:
        assert payload in node.pending


class BoundExceeded(Exception):
    """States over the bound, raised at their pinned count only."""


BOUND_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=BoundExceeded,
    reason="ROADMAP item 2, node bound: trim (e) keeps every own record above min_tx_obs, "
    "the regressed seq or tx_obs 0, and the seq floor of (g) lifts seq only afterwards",
)


@pytest.mark.parametrize(
    "declared, states, properties, over_bound",
    [
        pytest.param(N1B1, 27_000, ONE_PASS + (settles_in_three_passes,), 5_376, marks=BOUND_DEFECT, id="n1b1"),
        # these two hold at most 3 and 2 records, within their bounds of 3 and 4:
        # a pass goes over only if it adds records
        pytest.param(N1B2, 27_000, ONE_PASS, 0, id="n1b2"),
        pytest.param(N2B1, 51_840, ONE_PASS, 0, id="n2b1"),
    ],
)
def test_every_property_over_the_scope(declared, states, properties, over_bound):
    """Every state of the scope. The states left over the bound after one pass
    are counted, and their count asserted: only a known nonzero count raises
    the expected failure, so under the mark a count that moves, or any other
    property that fails, still fails the test."""
    count = over = 0
    for node, view in scope(declared):
        over += not within_bound(check(node, view, properties))
        count += 1
    assert (count, over) == (states, over_bound)
    if over:
        raise BoundExceeded(f"{over} of {count} states keep more than b·n + n records after one pass")


@given(arbitrary_node())
@settings(max_examples=300)
def test_single_iteration_repairs_any_state(case):
    """The repairs of one pass hold after it; the bound is left to the scopes."""
    check(*case, (no_null_payload, unique_identities, receive_window, fifo_cursor))


@given(arbitrary_node())
@settings(max_examples=300)
def test_seq_and_watermarks_never_regress(case):
    check(*case, (no_regression,))


@given(arbitrary_node())
@settings(max_examples=200)
def test_repeated_iteration_reaches_fixpoint(case):
    check(*case, (settles_in_three_passes,))


@given(arbitrary_node())
@settings(max_examples=200)
def test_iteration_is_deterministic(case):
    check(*case, (deterministic,))


@given(arbitrary_node(), st.integers(1, 4), st.integers(0, 12), st.integers(1, 4))
@settings(max_examples=200)
def test_ack_set_growth_and_delivery_flag_sticky(case, j, s, k):
    node, _ = case
    ack_sets_grow(node, min(j, node.n), s, min(k, node.n))


@given(arbitrary_node(), st.text(min_size=1, max_size=3))
@settings(max_examples=200)
def test_broadcast_respects_flow_window(case, payload):
    broadcast_respects_window(*case, payload)


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
    check(node, DetectorView(frozenset({4}), (0,) * 5), (settles_in_three_passes,))
