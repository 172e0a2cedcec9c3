"""Differential test of the node against its a547dff transitions.

`reference.node_a547dff.ReferenceNode` runs the iteration and the packet
handlers as they were before the iteration path was rewritten to do each
macro once. From equal states both must emit equal outgoing, delivered
and accepted lists and leave equal full states, buffer order included,
after an iteration and after each handler: over hypothesis states of
n 1-4 with FIFO on and off, and over every state of a small n=1, b=1
scope.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.node_a547dff import ReferenceNode
from test_node_properties import arbitrary_node

from ssurb.detectors import DetectorView
from ssurb.node import BufferRecord, NodeState


def _full_state(node):
    return (
        node.seq,
        node.rx_obs,
        node.tx_obs,
        node.next_deliver,
        node.reset_phase,
        [(r.payload, r.sender, r.seq, r.delivered, sorted(r.rec_by), r.prev_hb) for r in node.buffer],
        list(node.pending),
        node.observed,
    )


def _iterate_both(node, ref, view):
    out, expected = node.do_forever_iteration(view), ref.do_forever_iteration(view)
    assert out.outgoing == expected.outgoing
    assert [type(m) for _, m in out.outgoing] == [type(m) for _, m in expected.outgoing]
    assert out.delivered == expected.delivered
    assert out.accepted == expected.accepted
    assert _full_state(node) == _full_state(ref)


def _handle_both(node, ref, handler, *args):
    got, expected = getattr(node, handler)(*args), getattr(ref, handler)(*args)
    assert got == expected and type(got) is type(expected)
    assert _full_state(node) == _full_state(ref)


@st.composite
def _operations(draw, n):
    """Up to four iterations and handler calls. A handler's (j, s) is often
    an identity the buffer may hold, so duplicated records are reached."""
    ids = st.tuples(st.integers(1, n), st.integers(0, 13))
    return draw(
        st.lists(
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
    )


@given(arbitrary_node(), st.data())
@settings(max_examples=300, deadline=None)
def test_iteration_and_handlers_equal_the_reference(case, data):
    node, view = case
    if node.buffer:  # twins of held identities, as DUPLICATE-RECORD leaves them
        for r in data.draw(st.lists(st.sampled_from(node.buffer), max_size=2)):
            rec_by = data.draw(st.sets(st.integers(1, node.n), max_size=node.n))
            node.buffer.append(BufferRecord("twin", r.sender, r.seq, r.delivered, rec_by, r.prev_hb[:]))
    ref = ReferenceNode.of(node)
    assert _full_state(node) == _full_state(ref)
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


def _scope():
    """Every n=1, b=1 state with seq, tx_obs[1] and rx_obs[1] in 0..2, the
    FIFO cursor in 1..3 (1 alone without FIFO), and each own record seq
    1..3 absent or present with delivered in {F, T} and rec_by in {{}, {1}};
    under trusted {} and {1}. The payload and node id do not matter."""
    variants = [None] + [(d, frozenset(a)) for d in (False, True) for a in ((), (1,))]
    for fifo, trusted in itertools.product((False, True), (frozenset(), frozenset({1}))):
        for seq, tx, rx, cursor in itertools.product(range(3), range(3), range(3), range(1, 4 if fifo else 2)):
            for records in itertools.product(variants, repeat=3):
                node = NodeState(1, 1, 1, fifo=fifo)
                node.seq, node.tx_obs[1], node.rx_obs[1], node.next_deliver[1] = seq, tx, rx, cursor
                node.buffer = [
                    BufferRecord(f"m{s}", 1, s, flags[0], set(flags[1]), [-1, -1])
                    for s, flags in enumerate(records, start=1)
                    if flags is not None
                ]
                yield node, DetectorView(trusted, (0, 1))


def test_small_scope_equals_the_reference():
    """Each state of the scope: an iteration, each handler, a second iteration."""
    count = 0
    for node, view in _scope():
        ref = ReferenceNode.of(node)
        _iterate_both(node, ref, view)
        _handle_both(node, ref, "on_msg", "x", 1, 2, 1)
        _handle_both(node, ref, "on_msg_ack", 1, 3, 1)
        _handle_both(node, ref, "on_gossip", 3, 1, 2, 1)
        _iterate_both(node, ref, DetectorView(view.trusted, (0, 2)))
        count += 1
    assert count == 27 * 125 * 2 * (1 + 3)  # FIFO off with one cursor value, on with three
