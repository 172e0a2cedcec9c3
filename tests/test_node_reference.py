"""Differential test of the node against its a547dff transitions.

`reference.node_a547dff.ReferenceNode` runs the iteration and the packet
handlers as they were before the iteration path was rewritten to do each
macro once. From equal states both must emit equal outgoing, delivered
and accepted lists and leave equal full states, buffer order included,
after an iteration and after each handler (the node's MSGs, then its
gossips paired with its peers in order, stand for the reference's one
outgoing list): over every state of the
n=1, b=1 scope of `node_states`, and over its hypothesis states of n 1-4
with FIFO on and off.

The idle memo is checked the same way: from every empty-buffer state of
the scope and from the drawn states with the buffer emptied, through
passes that repeat the memo's pass, handler calls that change nothing or
something, a keyed field moved and moved back, results mutated by the
caller, and a copy taken with a memo stored.
"""

import functools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st
from node_states import N1B1, arbitrary_node, full_state, scope
from reference.node_a547dff import ReferenceNode

from ssurb.detectors import DetectorView, HeartbeatState
from ssurb.node import DISABLED, BufferRecord


def _outgoing(node, result):
    """The reference's one outgoing list: a node's result gives it as its
    MSGs, then a gossip per peer; a reference result has no `gossips`."""
    gossips = getattr(result, "gossips", ())
    return result.outgoing + list(zip(HeartbeatState(node.self_id, node.n).peers, gossips))


def _iterate_both(node, ref, view):
    out, expected = node.do_forever_iteration(view), ref.do_forever_iteration(view)
    outgoing, expected_outgoing = _outgoing(node, out), _outgoing(ref, expected)
    assert outgoing == expected_outgoing
    assert [type(m) for _, m in outgoing] == [type(m) for _, m in expected_outgoing]
    assert out.delivered == expected.delivered
    assert out.accepted == expected.accepted
    assert full_state(node) == full_state(ref)


def _handle_both(node, ref, handler, *args):
    got, expected = getattr(node, handler)(*args), getattr(ref, handler)(*args)
    assert got == expected and type(got) is type(expected)
    assert full_state(node) == full_state(ref)


@functools.cache  # one strategy per n, as `node_states` builds its records
def _operations(n):
    """Up to four iterations and handler calls. A handler's (j, s) is often
    an identity the buffer may hold, so duplicated records are reached."""
    ids = st.tuples(st.integers(1, n), st.integers(0, 13))
    return st.lists(
        st.one_of(
            st.just(("iterate",)),
            st.tuples(st.just("on_msg"), st.sampled_from(["p", "q"]), ids, st.integers(1, n)),
            st.tuples(st.just("on_msg_ack"), ids, st.integers(1, n)),
            st.tuples(
                st.just("on_gossip"),
                st.integers(0, 14),
                st.integers(0, 14),
                st.integers(0, 14),
                st.integers(1, n),
            ),
        ),
        min_size=1,
        max_size=4,
    )


def _operations_equal(node, view, data):
    """Twins of held identities, as DUPLICATE-RECORD leaves them, then up to
    four iterations and handler calls, each against the reference."""
    if node.buffer:
        for r in data.draw(st.lists(st.sampled_from(node.buffer), max_size=2)):
            rec_by = data.draw(st.sets(st.integers(1, node.n), max_size=node.n))
            node.buffer.append(BufferRecord("twin", r.sender, r.seq, r.delivered, rec_by, r.prev_hb[:]))
    ref = ReferenceNode.of(node)
    assert full_state(node) == full_state(ref)
    for name, *args in data.draw(_operations(node.n)):
        if name == "iterate":
            _iterate_both(node, ref, view)
            continue
        if name != "on_gossip":
            (j, s), k = args[-2:]
            if node.buffer and data.draw(st.booleans()):
                r = data.draw(st.sampled_from(node.buffer))  # an identity held, maybe twice
                j, s = r.sender, r.seq
            args = args[:-2] + [j, s, k]
        _handle_both(node, ref, name, *args)


def test_small_scope_equals_the_reference():
    """Each state of the n=1, b=1 scope: an iteration, each handler, a second iteration."""
    count = 0
    for node, view in scope(N1B1):
        ref = ReferenceNode.of(node)
        _iterate_both(node, ref, view)
        _handle_both(node, ref, "on_msg", "x", 1, 2, 1)
        _handle_both(node, ref, "on_msg_ack", 1, 3, 1)
        _handle_both(node, ref, "on_gossip", 3, 1, 2, 1)
        _iterate_both(node, ref, DetectorView(view.trusted, (0, 2)))
        count += 1
    assert count == 27_000


def _idle_sequence(node, view):
    """Iterate, iterate under other heartbeats, a gossip that changes nothing,
    iterate, a gossip that raises seq, iterate: each step against the
    reference. Returns how many of the iterations hit the memo."""
    ref = ReferenceNode.of(node)
    peer = node.n
    hits = 0

    def iterate(view):
        nonlocal hits
        memo = node.idle_memo
        _iterate_both(node, ref, view)
        hits += memo is not None and node.idle_memo is memo and node.observed is memo[6]

    iterate(view)
    iterate(DetectorView(view.trusted, tuple(u + 1 for u in view.hb)))
    _handle_both(node, ref, "on_gossip", 0, 0, 0, peer)
    iterate(view)
    _handle_both(node, ref, "on_gossip", node.seq + 1, node.tx_obs[peer] + 1, node.rx_obs[peer] + 1, peer)
    iterate(view)
    return hits


def _replayed(node, view):
    """A pass, the counters put back as they were before it, and the pass
    again, which may hit the memo the first stored: both equal the
    reference's pass from that state."""
    before = ReferenceNode.of(node)
    for _ in range(2):
        _iterate_both(node, ReferenceNode.of(before), view)
        node.seq, node.rx_obs, node.tx_obs = before.seq, before.rx_obs[:], before.tx_obs[:]
        node.next_deliver = before.next_deliver[:]


def _idle_node(node):
    node.buffer, node.pending = [], deque()
    return node


def test_idle_passes_equal_the_reference_over_the_scope():
    """Every empty-buffer state of the n=1, b=1 scope; in 201 of its 216 some
    iteration of the sequence hits the memo."""
    states = hitting = 0
    for node, view in scope(N1B1):
        if not node.buffer:
            _replayed(node.copy(), view)
            hitting += _idle_sequence(node, view) > 0
            states += 1
    assert (states, hitting) == (216, 201)


def _keyed_field_moved_and_moved_back(node, view, data):
    """After a memo is stored, one field the idle pass reads is moved, a pass
    runs, the field is put back, and a pass runs again: each one as the
    reference's, `observed` included."""
    ref = ReferenceNode.of(node)
    _iterate_both(node, ref, view)
    _iterate_both(node, ref, view)
    field = data.draw(st.sampled_from(("seq", "rx_obs", "tx_obs", "next_deliver", "reset_phase", "trusted")))
    k = data.draw(st.integers(1, node.n))
    saved = [(twin.seq, twin.rx_obs[:], twin.tx_obs[:], twin.next_deliver[:], twin.reset_phase) for twin in (node, ref)]
    for twin in (node, ref):
        if field == "seq":
            twin.seq += 1
        elif field == "reset_phase":
            twin.reset_phase = DISABLED
        elif field != "trusted":
            getattr(twin, field)[k] += 1
    _iterate_both(node, ref, DetectorView(view.trusted ^ {k}, view.hb) if field == "trusted" else view)
    for twin, (seq, rx, tx, cursors, phase) in zip((node, ref), saved):
        twin.seq, twin.rx_obs, twin.tx_obs, twin.next_deliver, twin.reset_phase = seq, rx[:], tx[:], cursors[:], phase
    _iterate_both(node, ref, view)
    _iterate_both(node, ref, view)


def _mutated_results(node, view):
    """Results mutated by the caller leave the next pass unchanged."""
    ref = ReferenceNode.of(node)
    for _ in range(4):  # the pass that stores the memo, then hits
        got, expected = node.do_forever_iteration(view), ref.do_forever_iteration(view)
        assert [_outgoing(node, got), got.delivered, got.accepted] == [
            expected.outgoing, expected.delivered, expected.accepted]
        for produced in got:
            if type(produced) is list:  # a memo hit hands back its gossips as a tuple
                produced.append((0, None))
        if type(got.gossips) is list:
            got.gossips[:1] = []
    _iterate_both(node, ref, view)


def _copy_with_a_memo(node, view):
    """A copy taken with a memo stored iterates as the original."""
    ref = ReferenceNode.of(node)
    _iterate_both(node, ref, view)
    _iterate_both(node, ref, view)
    twin = node.copy()
    if node.idle_memo is not None:  # equal, and none of its three lists shared
        assert twin.idle_memo == node.idle_memo
        assert all(a is not b for a, b in zip(twin.idle_memo[3:6], node.idle_memo[3:6]))
    for _ in range(2):
        _iterate_both(twin, node, view)
        ref.do_forever_iteration(view)
        assert full_state(twin) == full_state(ref)


@given(arbitrary_node(), st.data())
@settings(max_examples=300)
def test_iteration_and_handlers_equal_the_reference(case, data):
    _operations_equal(*case, data)


@given(arbitrary_node())
@settings(max_examples=200)
def test_idle_passes_equal_the_reference(case):
    """The idle sequence and its replayed pass, from the state with its buffer emptied."""
    node, view = case
    _replayed(_idle_node(node.copy()), view)
    _idle_sequence(_idle_node(node), view)


@given(arbitrary_node(), st.data())
@settings(max_examples=300)
def test_a_keyed_field_moved_and_moved_back(case, data):
    node, view = case
    _keyed_field_moved_and_moved_back(_idle_node(node), view, data)


@given(arbitrary_node())
@settings(max_examples=100)
def test_mutating_a_result_leaves_the_next_unchanged(case):
    node, view = case
    _mutated_results(_idle_node(node), view)


@given(arbitrary_node())
@settings(max_examples=100)
def test_a_copy_with_a_memo_iterates_as_the_original(case):
    node, view = case
    _copy_with_a_memo(_idle_node(node), view)
