"""Node states for the node tests: hypothesis draws of any small size, and
declared scopes enumerated state by state.

A scope holds every state of its ranges, so a defect that shows in it
shows on every run, not by chance (the small-scope hypothesis, Jackson,
*Software Abstractions*, 2006; bounded-exhaustive generation as in Korat,
Boyapati, Khurshid & Marinov, ISSTA 2002). The draws reach the larger n,
b and counters, null payloads and duplicated identities that no scope
holds.
"""

import functools
import itertools
from typing import NamedTuple

from hypothesis import strategies as st

from ssurb.detectors import DetectorView
from ssurb.node import BufferRecord, NodeState


class Scope(NamedTuple):
    """Node 1 of `n` at bufferUnitSize `b`, FIFO off and on. seq and every
    tx_obs and rx_obs entry range over `counters`, a FIFO cursor over
    1..len(counters) (1 alone without FIFO). Each (sender, seq) of `slots`
    is absent, or present with delivered in {F, T} and rec_by any subset of
    the nodes; the trusted set is any subset too. Payloads differ and every
    heartbeat reads 1, so neither a null payload nor a duplicate is reached."""

    n: int
    b: int
    counters: range
    slots: tuple


N1B1 = Scope(1, 1, range(3), ((1, 1), (1, 2), (1, 3)))
N1B2 = N1B1._replace(b=2)
N2B1 = Scope(2, 1, range(2), ((1, 1), (2, 1)))


def _subsets(n):
    return [frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]


def scope(declared):
    """Every state of the `declared` scope, as (node, view) pairs built fresh."""
    n, b, counters = declared.n, declared.b, declared.counters
    subsets = _subsets(n)
    variants = [None] + [(d, a) for d in (False, True) for a in subsets]
    cursors = range(1, len(counters) + 1)
    hb = (0,) + (1,) * n
    for fifo, trusted in itertools.product((False, True), subsets):
        view = DetectorView(trusted, hb)
        for seq, *counts in itertools.product(counters, repeat=1 + 2 * n):
            for nd in itertools.product(cursors, repeat=n) if fifo else [(1,) * n]:
                for records in itertools.product(variants, repeat=len(declared.slots)):
                    node = NodeState(1, n, b, fifo=fifo)
                    node.seq = seq
                    node.tx_obs[1:], node.rx_obs[1:], node.next_deliver[1:] = counts[:n], counts[n:], nd
                    node.buffer = [
                        BufferRecord(f"m{sender}.{s}", sender, s, flags[0], set(flags[1]), [-1] * (n + 1))
                        for (sender, s), flags in zip(declared.slots, records)
                        if flags is not None
                    ]
                    yield node, view


def full_state(node):
    """Every field a transition may move, buffer order included, copied so
    that a state taken before a pass is not moved by it."""
    return (
        node.seq,
        node.rx_obs[:],
        node.tx_obs[:],
        node.next_deliver[:],
        node.reset_phase,
        [(r.payload, r.sender, r.seq, r.delivered, sorted(r.rec_by), r.prev_hb[:]) for r in node.buffer],
        list(node.pending),
        node.observed,
    )


@functools.cache  # one strategy per n: building it anew for every draw costs more than the draw
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
