"""Differential test of the consistency predicate against its 80adea2 form.

`reference.checker_80adea2.evaluate_snapshot` states each in-flight-packet
clause twice: as per-sender and per-channel extremes that say whether a
packet breaks a clause, and as an ordered rescan that says which one.
`checker.evaluate_snapshot` states each once, in one walk. Both must give
equal verdicts (stale flag, node and clause) for a whole snapshot and for
every node of it, over hypothesis snapshots of n 1-4 with crashed flags,
FIFO on and off, buffers, channels (self-channels included) carrying all
four packet kinds, and no corruption or one at a step among the packets'
birth steps.

A drawn snapshot starts consistent (every counter of a node's messages at
its seq, every buffer empty) and then takes a few perturbations, so the
node clauses ahead of the packet clauses often hold and the packet
clauses decide the verdict. Two explicit examples pin what the walk must
keep in every draw: a GOSSIP charges its destination before its source,
and a crashed source's GOSSIP does not judge its destination's watermark.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import checker_80adea2 as reference
from test_checker import fresh_node, gossip, header, snapshot

from ssurb import checker

_COUNTER = st.integers(0, 4)
_STEP = st.integers(0, 6)
_VECTORS = ("rx_obs", "tx_obs", "next", "live_rx_obs", "live_tx_obs", "live_next")


def _packet(kind, sender, a, b, c, birth):
    if kind == "MSG":
        return {"kind": kind, "payload": "p", "sender": sender, "seq": a, "birth_step": birth}
    if kind == "MSGACK":
        return {"kind": kind, "sender": sender, "seq": a, "birth_step": birth}
    if kind == "GOSSIP":
        return {"kind": kind, "max_seq": a, "rx_obs": b, "tx_obs": c, "birth_step": birth}
    return {"kind": kind, "sender_count": a, "dst_count": b, "birth_step": birth}


_KINDS = st.sampled_from(["MSG", "MSGACK", "GOSSIP", "HEARTBEAT"])
_IDS = {n: st.integers(1, n) for n in range(1, 5)}
_CHANNELS = {
    n: st.fixed_dictionaries(
        {
            "src": ids,
            "dst": ids,
            "packets": st.lists(
                st.tuples(_KINDS, ids, _COUNTER, _COUNTER, _COUNTER, _STEP).map(lambda f: _packet(*f)),
                min_size=1,
                max_size=3,
            ),
        }
    )
    for n, ids in _IDS.items()
}
_RECORDS = {
    n: st.fixed_dictionaries(
        {
            "payload": st.sampled_from(["p", "q", None]),
            "sender": ids,
            "seq": _COUNTER,
            "delivered": st.booleans(),
            "rec_by": st.lists(ids, unique=True),
        }
    )
    for n, ids in _IDS.items()
}
_TRUSTED = {n: st.lists(ids, unique=True) for n, ids in _IDS.items()}
_FIELDS = st.sampled_from(["seq", "live_seq", "buffer", "live_own_seqs", *_VECTORS])
_OWN_SEQS = st.lists(_COUNTER, unique=True).map(sorted)


@st.composite
def _snapshots(draw):
    """(snapshot, header, last_corrupt_step)."""
    n = draw(st.integers(1, 4))
    ids = _IDS[n]
    seqs = [draw(st.integers(0, 3)) for _ in range(n)]
    nodes = []
    for i in range(1, n + 1):
        node = {
            "id": i,
            "crashed": draw(st.booleans()),
            "seq": seqs[i - 1],
            "buffer": [],
            "rx_obs": seqs[:],
            "tx_obs": [seqs[i - 1]] * n,
            "next": [s + 1 for s in seqs],
            "trusted": draw(_TRUSTED[n]),
        }
        if draw(st.booleans()):  # the live counters, as the simulator records them
            node.update(
                live_seq=node["seq"], live_rx_obs=node["rx_obs"][:],
                live_tx_obs=node["tx_obs"][:], live_next=node["next"][:],
                live_own_seqs=[],
            )
        nodes.append(node)
    for _ in range(draw(st.integers(0, 3))):
        node = nodes[draw(ids) - 1]
        field = draw(_FIELDS)
        if field == "buffer":
            node["buffer"].append(draw(_RECORDS[n]))
        elif field == "live_own_seqs":
            node[field] = draw(_OWN_SEQS)
        elif field in _VECTORS:
            vector = node.get(field, node[field.removeprefix("live_")])
            node[field] = vector = vector[:]
            value = draw(_COUNTER)
            vector[draw(ids) - 1] = value + 1 if field.endswith("next") else value  # next is 1-based
        else:
            node[field] = draw(_COUNTER)
    channels = draw(st.lists(_CHANNELS[n], max_size=2 * n))
    drawn_header = {"n": n, "buffer_unit_size": draw(st.integers(1, 3)), "fifo_enabled": draw(st.booleans())}
    return snapshot(nodes, channels, step=9, cycle=1), drawn_header, draw(st.none() | _STEP)


def _fresh(i, n, crashed=False):
    return dict(fresh_node(i, n), crashed=crashed)


@settings(max_examples=300)
@given(_snapshots())
# a self-channel GOSSIP that breaks both a destination clause and the echo
@example((snapshot([_fresh(1, 1)], [gossip(1, 1, max_seq=1, tx_obs=1)]), header(n=1), None))
# a GOSSIP whose crashed source leaves its destination's watermark unjudged
@example((snapshot([_fresh(1, 2, crashed=True), _fresh(2, 2)], [gossip(1, 2, rx_obs=1)]), header(n=2), None))
def test_verdicts_equal_the_reference(drawn):
    snap, h, last_corrupt_step = drawn
    for node_id in (None, *(node["id"] for node in snap["nodes"])):
        expected = reference.evaluate_snapshot(snap, h, last_corrupt_step, node_id)
        assert tuple(checker.evaluate_snapshot(snap, h, last_corrupt_step, node_id)) == tuple(expected)
