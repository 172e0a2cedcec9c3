"""Checker oracles against hand-built snapshots and event sequences."""

import inspect
import re

import pytest

from ssurb import checker
from ssurb.config import ScenarioConfig, from_dict
from ssurb.sim import run_scenario, run_scenarios
from ssurb.trace import Trace, as_snapshot, make_header


def header(n=3, b=4, fifo=False, w=5):
    cfg = ScenarioConfig(n=n, buffer_unit_size=b, fifo_enabled=fifo, quiescence_window_cycles=w)
    return make_header(cfg)


def fresh_node(i, n):
    return {
        "id": i,
        "crashed": False,
        "seq": 0,
        "buffer": [],
        "rx_obs": [0] * n,
        "tx_obs": [0] * n,
        "next": [1] * n,
        "pending": 0,
        "reset_phase": "normal",
        "trusted": list(range(1, n + 1)),
        "hb": [0] * n,
        "suspected": [],
    }


def rec(payload, sender, seq, n, delivered=False, rec_by=None):
    return {
        "payload": payload,
        "sender": sender,
        "seq": seq,
        "delivered": delivered,
        "rec_by": rec_by or [sender],
        "prev_hb": [-1] * n,
    }


def snapshot(nodes, channels=None, step=0, cycle=0):
    return {
        "type": "SNAPSHOT",
        "step": step,
        "cycle": cycle,
        "nodes": nodes,
        "channels": channels or [],
        "digest": "x",
    }


# -- consistency ---------------------------------------------------------------


def test_fresh_system_is_consistent():
    h = header()
    snap = snapshot([fresh_node(i, 3) for i in (1, 2, 3)])
    for i in (1, 2, 3):
        verdict = checker.evaluate_snapshot(snap, h, None, i)
        assert verdict.node is None, verdict.clause
    assert checker.snapshot_all_consistent(snap, h, None)


def test_duplicate_identity_fails_consistency():
    h = header()
    node1 = fresh_node(1, 3)
    node1["seq"] = 2
    node1["tx_obs"] = [0, 0, 0]
    node1["buffer"] = [rec("a", 2, 5, 3), rec("b", 2, 5, 3)]
    snap = snapshot([node1, fresh_node(2, 3), fresh_node(3, 3)])
    assert checker.evaluate_snapshot(snap, h, None, 1)[1:] == (1, "duplicate-identity")


def test_peer_record_above_seq_fails_dominance():
    h = header()
    node1 = fresh_node(1, 3)
    node1["seq"] = 2
    node1["buffer"] = [rec("a", 1, 1, 3), rec("b", 1, 2, 3)]
    node2 = fresh_node(2, 3)
    node2["buffer"] = [rec("m", 1, 9, 3)]
    node2["rx_obs"] = [5, 0, 0]
    snap = snapshot([node1, node2, fresh_node(3, 3)])
    assert checker.evaluate_snapshot(snap, h, None, 1)[1:] == (1, "seq-dominance-buffer")


def test_null_payload_fails_consistency():
    h = header()
    node1 = fresh_node(1, 3)
    node1["buffer"] = [rec(None, 2, 1, 3)]
    snap = snapshot([node1, fresh_node(2, 3), fresh_node(3, 3)])
    assert checker.evaluate_snapshot(snap, h, None, 1)[1:] == (1, "null-payload")


def test_obsolete_record_fails_consistency():
    h = header()
    node1 = fresh_node(1, 3)
    node1["buffer"] = [rec("m", 2, 1, 3, delivered=True, rec_by=[1, 2, 3])]
    snap = snapshot([node1, fresh_node(2, 3), fresh_node(3, 3)])
    assert checker.evaluate_snapshot(snap, h, None, 1)[1:] == (1, "obsolete-record")


def gossip(src, dst, max_seq=0, rx_obs=0, tx_obs=0):
    packet = {"kind": "GOSSIP", "max_seq": max_seq, "rx_obs": rx_obs, "tx_obs": tx_obs}
    return {"src": src, "dst": dst, "packets": [dict(packet, birth_step=0)]}


def _own_records(node, *seqs):
    node["seq"] = max(seqs)
    node["buffer"] = [rec(f"m{s}", node["id"], s, 3) for s in seqs]


def _peer_buffer_bound(nodes, channels):
    # node 1's clauses all hold, but trusted node 2 holds two of its records
    _own_records(nodes[0], 1)
    nodes[1]["buffer"] = [rec("a", 1, 1, 3), rec("b", 1, 1, 3)]


# (clause, failing node, buffer_unit_size, fifo, doctoring of a fresh 3-node
# system). Every node ahead of the failing one stays consistent, so the node
# is the first that `evaluate_snapshot` and the closure witness name.
CLAUSE_CASES = [
    ("null-payload", 1, 4, False, lambda nodes, ch: nodes[0].update(buffer=[rec(None, 2, 1, 3)])),
    (
        "duplicate-identity",
        2,
        4,
        False,
        lambda nodes, ch: nodes[1].update(buffer=[rec("a", 3, 1, 3), rec("b", 3, 1, 3)]),
    ),
    ("send-window", 1, 4, False, lambda nodes, ch: nodes[0].update(seq=9)),
    ("own-window-coverage", 3, 4, False, lambda nodes, ch: nodes[2].update(seq=2)),
    ("receive-window", 1, 4, False, lambda nodes, ch: nodes[0].update(buffer=[rec("m", 2, 9, 3)])),
    (
        "obsolete-record",
        1,
        4,
        False,
        lambda nodes, ch: nodes[0].update(
            buffer=[rec("m", 2, 1, 3, delivered=True, rec_by=[1, 2, 3])]
        ),
    ),
    (
        "own-record-below-window",
        1,
        4,
        False,
        lambda nodes, ch: nodes[0].update(buffer=[rec("m", 1, 0, 3)]),
    ),
    (
        "foreign-record-obsolete",
        1,
        4,
        False,
        lambda nodes, ch: nodes[0].update(buffer=[rec("m", 2, 1, 3)], rx_obs=[0, 1, 0]),
    ),
    (
        "seq-dominance-buffer",
        1,
        4,
        False,
        lambda nodes, ch: nodes[1].update(buffer=[rec("m", 1, 3, 3)]),
    ),
    ("seq-dominance-next", 1, 4, True, lambda nodes, ch: nodes[1].update(next=[5, 1, 1])),
    ("peer-watermark-dominance", 1, 4, False, lambda nodes, ch: nodes[2].update(rx_obs=[3, 0, 0])),
    ("own-watermark-floor", 1, 4, False, lambda nodes, ch: nodes[0].update(tx_obs=[0, 3, 0])),
    (
        "watermark-dominance",
        1,
        4,
        False,
        lambda nodes, ch: (_own_records(nodes[0], 1, 2), nodes[0].update(tx_obs=[0, 2, 0])),
    ),
    (
        "seq-dominance-packet",
        2,
        4,
        False,
        lambda nodes, ch: ch.append(
            {
                "src": 1,
                "dst": 3,
                "packets": [{"kind": "MSGACK", "sender": 2, "seq": 4, "birth_step": 0}],
            }
        ),
    ),
    ("seq-dominance-gossip", 1, 4, False, lambda nodes, ch: ch.append(gossip(2, 1, max_seq=5))),
    ("stale-gossip-watermark", 1, 4, False, lambda nodes, ch: ch.append(gossip(3, 1, rx_obs=2))),
    ("stale-gossip-echo", 2, 4, False, lambda nodes, ch: ch.append(gossip(2, 3, tx_obs=2))),
    ("live-send-window", 1, 4, False, lambda nodes, ch: nodes[0].update(live_seq=2)),
    ("peer-buffer-bound", 1, 1, False, _peer_buffer_bound),
]


def _clause_names() -> set[str]:
    # every clause name evaluate_snapshot can return: a node clause's return,
    # or the packet walk's entry for the node it charges
    source = inspect.getsource(checker.evaluate_snapshot)
    return set(re.findall(r'(?:return|packet_breach\[\w+\] =) "([a-z-]+)"', source))


def test_clause_table_covers_every_clause():
    assert len(CLAUSE_CASES) == 19
    assert {case[0] for case in CLAUSE_CASES} == _clause_names()


@pytest.mark.parametrize(
    "clause, node, b, fifo, doctor", CLAUSE_CASES, ids=[case[0] for case in CLAUSE_CASES]
)
def test_each_clause_names_its_node(clause, node, b, fifo, doctor):
    h = header(b=b, fifo=fifo)
    nodes = [fresh_node(i, 3) for i in (1, 2, 3)]
    channels = []
    doctor(nodes, channels)
    snap = snapshot(nodes, channels, step=9, cycle=1)
    assert checker.evaluate_snapshot(snap, h, None, node)[1:] == (node, clause)
    for before in range(1, node):
        assert checker.evaluate_snapshot(snap, h, None, before)[1:] == (None, None)
    assert checker.evaluate_snapshot(snap, h, None) == (False, node, clause)
    assert not checker.snapshot_all_consistent(snap, h, None)
    events = [
        snapshot([fresh_node(i, 3) for i in (1, 2, 3)]),
        ev("CYCLE", k=1, step=9),
        snap,
        ev("END", reason="max-steps", step=10),
    ]
    report = checker.consistency_closure_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness == {"node": node, "clause": clause, "step": 9, "cycle": 1}


def test_stale_packet_blocks_all_consistent_after_corruption():
    h = header()
    nodes = [fresh_node(i, 3) for i in (1, 2, 3)]
    channels = [
        {
            "src": 2,
            "dst": 1,
            "packets": [
                {"kind": "GOSSIP", "max_seq": 0, "rx_obs": 0, "tx_obs": 0, "birth_step": 4}
            ],
        }
    ]
    snap = snapshot(nodes, channels)
    assert checker.snapshot_all_consistent(snap, h, None)
    assert not checker.snapshot_all_consistent(snap, h, 9)  # corruption-era packet
    assert checker.snapshot_all_consistent(snap, h, 2)  # packet born after it


def test_stale_flag_is_stale_packets_in_flight():
    """After a corruption at step 4 a snapshot is stale while a non-HEARTBEAT
    packet born by then is in flight to a destination that has not crashed,
    even one the snapshot holds no node for; never without a corruption.
    `evaluate_snapshot` takes the flag from `stale_packets_in_flight`."""
    h = header()
    nodes = [fresh_node(i, 3) for i in (1, 2, 3)]
    nodes[2] = dict(nodes[2], crashed=True)

    def channel(dst, kind, birth):
        packet = {"kind": kind, "birth_step": birth}
        if kind == "HEARTBEAT":
            packet.update(sender_count=0, dst_count=0)
        else:
            packet.update(max_seq=0, rx_obs=0, tx_obs=0)
        return {"src": 1, "dst": dst, "packets": [packet]}

    for channels, stale in (
        ([channel(3, "GOSSIP", 2)], False),  # to the crashed node
        ([channel(2, "HEARTBEAT", 2)], False),
        ([channel(2, "GOSSIP", 2)], True),
        ([channel(2, "GOSSIP", 4)], True),  # born at the corruption step
        ([channel(2, "GOSSIP", 6)], False),  # born after the corruption
        ([channel(4, "GOSSIP", 2)], True),  # to a node the snapshot does not hold
        ([channel(4, "HEARTBEAT", 2), channel(2, "GOSSIP", 6)], False),
        ([channel(3, "GOSSIP", 2), channel(1, "GOSSIP", 3)], True),
    ):
        snap = snapshot(nodes, channels)
        assert checker.stale_packets_in_flight(snap, 4) == stale, channels
        assert checker.evaluate_snapshot(snap, h, 4).stale == stale
        assert checker.evaluate_snapshot(snap, h, 4, 1).stale == stale
        assert not checker.stale_packets_in_flight(snap, None)
        assert not checker.evaluate_snapshot(snap, h, None).stale


# -- event-level checks -------------------------------------------------------------


def base_events(n=3):
    return [snapshot([fresh_node(i, n) for i in range(1, n + 1)])]


def ev(etype, **kw):
    record = {"type": etype, "step": kw.pop("step", 0)}
    record.update(kw)
    return record


def test_validity_pass_and_fail():
    h = header()
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("DELIVER", node=2, mid=[1, 1]),
        ev("END", reason="complete-delivery"),
    ]
    ti = checker.index_trace(h, events)
    report = checker.validity_check(ti)
    assert report.verdict == "PASS" and report.measured == {"exemptions": 0}

    bad = base_events() + [
        ev("DELIVER", node=2, mid=[9, 9]),
        ev("END", reason="complete-delivery"),
    ]
    report = checker.validity_check(checker.index_trace(h, bad))
    assert report.verdict == "FAIL"
    assert report.witness["mid"] == [9, 9]


def test_validity_exempts_recovery_window():
    h = header()
    # corruption, a delivery before the post-corruption marker, then stabilization
    events = base_events() + [
        ev("CORRUPT", node=1, kind="RANDOMIZE-ALL", step=1),
        ev("DELIVER", node=1, mid=[7, 7], step=2),
        snapshot([fresh_node(i, 3) for i in (1, 2, 3)], step=3, cycle=1),
        ev("END", reason="stabilized", step=4),
    ]
    report = checker.validity_check(checker.index_trace(h, events))
    assert report.verdict == "PASS"
    assert report.measured["exemptions"] == 1


def test_integrity_duplicate_delivery_fails():
    h = header()
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("DELIVER", node=2, mid=[1, 1]),
        ev("DELIVER", node=2, mid=[1, 1]),
        ev("END", reason="complete-delivery"),
    ]
    report = checker.integrity_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness["node"] == 2


def test_integrity_empty_trace_passes():
    h = header()
    report = checker.integrity_check(checker.index_trace(h, base_events()))
    assert report.verdict == "PASS"


def test_termination_missing_delivery():
    h = header()
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("DELIVER", node=1, mid=[1, 1]),
        ev("DELIVER", node=2, mid=[1, 1]),
        # node 3 never delivers
        ev("END", reason="complete-delivery"),
    ]
    report = checker.termination_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness["node"] == 3

    events[-1] = ev("END", reason="max-steps")
    report = checker.termination_check(checker.index_trace(h, events))
    assert report.verdict == "INCONCLUSIVE"


def test_termination_uniformity_from_delivered_antecedent():
    h = header()
    # nobody broadcast (corrupted-origin record), but node 1 delivered it
    events = base_events() + [
        ev("DELIVER", node=1, mid=[2, 5]),
        ev("END", reason="complete-delivery"),
    ]
    report = checker.termination_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"


def test_fifo_order():
    h = header(fifo=True)
    events = base_events() + [
        ev("DELIVER", node=2, mid=[1, 1]),
        ev("DELIVER", node=2, mid=[3, 2]),  # other senders interleave freely
        ev("DELIVER", node=2, mid=[1, 2]),
        ev("DELIVER", node=2, mid=[1, 3]),
        ev("END", reason="complete-delivery"),
    ]
    assert checker.fifo_check(checker.index_trace(h, events)).verdict == "PASS"

    bad = base_events() + [
        ev("DELIVER", node=2, mid=[1, 2]),
        ev("DELIVER", node=2, mid=[1, 1]),
        ev("END", reason="complete-delivery"),
    ]
    report = checker.fifo_check(checker.index_trace(h, bad))
    assert report.verdict == "FAIL"


def test_fifo_skipped_when_disabled():
    h = header(fifo=False)
    report = checker.fifo_check(checker.index_trace(h, base_events()))
    assert report.verdict == "INCONCLUSIVE"


def test_quiescence_inconclusive_without_window():
    h = header()
    events = base_events() + [ev("END", reason="max-steps")]
    report = checker.quiescence_check(checker.index_trace(h, events))
    assert report.verdict == "INCONCLUSIVE"


def test_quiescence_counts_window_traffic():
    h = header(w=2)
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("CYCLE", k=1),
        ev("CYCLE", k=2),
        ev("CYCLE", k=3),
        ev("SEND", src=1, dst=2, kind="GOSSIP"),
        ev("SEND", src=1, dst=2, kind="MSG", mid=[1, 1]),
        ev("END", reason="complete-delivery"),
    ]
    report = checker.quiescence_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.measured["msg_events_in_window"] == 1
    assert report.measured["gossip_events_in_window"] == 1


def test_quiescence_witness_is_the_first_tracked_event_of_the_window():
    """The window's RECV of (1,1) comes before its first SEND, and the
    untracked (3,3) comes before both; OMIT and DUP of (1,1), and traffic
    before the window, are not counted."""
    h = header(w=2)
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("SEND", src=1, dst=2, kind="MSG", mid=[1, 1], step=1),
        ev("CYCLE", k=1, step=2),
        ev("CYCLE", k=2, step=3),
        ev("SEND", src=3, dst=2, kind="MSG", mid=[3, 3], step=4),
        ev("OMIT", src=1, dst=2, kind="MSG", mid=[1, 1], cause="drop", step=5),
        ev("DUP", src=1, dst=2, kind="MSGACK", mid=[1, 1], step=6),
        ev("RECV", src=2, dst=1, kind="MSGACK", mid=[1, 1], step=7),
        ev("RECV", src=1, dst=2, kind="HEARTBEAT", step=8),
        ev("SEND", src=1, dst=3, kind="MSG", mid=[1, 1], step=9),
        ev("OMIT", src=1, dst=3, kind="GOSSIP", cause="overflow", step=10),
        ev("END", reason="complete-delivery", step=11),
    ]
    report = checker.quiescence_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness == {"step": 7, "kind": "MSGACK", "mid": [1, 1]}
    assert report.measured == {
        "msg_events_in_window": 2,
        "gossip_events_in_window": 0,
        "heartbeat_events_in_window": 1,
        "window_cycles": 2,
    }


def test_quiescence_passes_when_only_omits_and_dups_of_a_tracked_mid_remain():
    h = header(w=1)
    events = base_events() + [
        ev("BROADCAST", node=1, mid=[1, 1], payload_hash="h"),
        ev("CYCLE", k=1, step=2),
        ev("OMIT", src=1, dst=2, kind="MSG", mid=[1, 1], cause="overflow", step=3),
        ev("DUP", src=1, dst=2, kind="MSG", mid=[1, 1], step=4),
        ev("SEND", src=2, dst=1, kind="GOSSIP", step=5),
        ev("END", reason="complete-delivery", step=6),
    ]
    report = checker.quiescence_check(checker.index_trace(h, events))
    assert report.verdict == "PASS"
    assert report.measured["msg_events_in_window"] == 0
    assert report.measured["gossip_events_in_window"] == 1


def test_stabilization_zero_without_corruption():
    h = header()
    events = base_events() + [ev("END", reason="complete-delivery")]
    report = checker.stabilization_time(checker.index_trace(h, events))
    assert report.verdict == "PASS" and report.measured == {"cycles": 0}


def test_stabilization_counts_cycles_to_consistency():
    h = header()
    broken = [fresh_node(i, 3) for i in (1, 2, 3)]
    broken[0] = dict(broken[0], buffer=[rec(None, 2, 1, 3)])
    events = base_events() + [
        ev("CORRUPT", node=1, kind="NULL-PAYLOAD", step=1),
        ev("CYCLE", k=1, step=2),
        snapshot(broken, step=2, cycle=1),
        ev("CYCLE", k=2, step=3),
        snapshot([fresh_node(i, 3) for i in (1, 2, 3)], step=3, cycle=2),
        ev("END", reason="stabilized", step=4),
    ]
    report = checker.stabilization_time(checker.index_trace(h, events))
    assert report.verdict == "PASS"
    assert report.measured["cycles"] == 2


def test_stabilization_fail_reports_clause():
    h = header()
    broken = [fresh_node(i, 3) for i in (1, 2, 3)]
    broken[0] = dict(broken[0], buffer=[rec(None, 2, 1, 3)])
    events = base_events() + [
        ev("CORRUPT", node=1, kind="NULL-PAYLOAD", step=1),
        snapshot(broken, step=2, cycle=1),
        ev("END", reason="max-steps", step=3),
    ]
    report = checker.stabilization_time(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness["clause"] == "null-payload"


def test_closure_fail_names_node_and_clause():
    h = header()
    broken = [fresh_node(i, 3) for i in (1, 2, 3)]
    broken[1] = dict(broken[1], buffer=[rec(None, 3, 1, 3)])
    events = base_events() + [
        ev("CYCLE", k=1, step=5),
        snapshot([fresh_node(i, 3) for i in (1, 2, 3)], step=5, cycle=1),
        ev("CYCLE", k=2, step=9),
        snapshot(broken, step=9, cycle=2),
        ev("END", reason="max-steps", step=10),
    ]
    report = checker.consistency_closure_check(checker.index_trace(h, events))
    assert report.verdict == "FAIL"
    assert report.witness == {"node": 2, "clause": "null-payload", "step": 9, "cycle": 2}


def test_each_snapshot_evaluated_once(monkeypatch):
    """The `stabilized` stop rule and `check_all` together evaluate each
    snapshot at most once, and at least one is evaluated: a standalone run,
    and the members of a `run_scenarios` group, whose shared prefix the trunk
    judged and whose records are the trunk's own dicts."""
    raw = {
        "n": 4,
        "buffer_unit_size": 2,
        "seed": 3,
        "stop_mode": "stabilized",
        "quiescence_window_cycles": 3,
        "broadcasts": [{"node": k, "payload": f"m{k}"} for k in (1, 2, 3, 4)],
        "fault_plan": {"corruptions": [{"node": 2, "step": 250, "kind": "RANDOMIZE-ALL"}]},
    }
    member = dict(raw, fault_plan={"corruptions": [{"node": 3, "step": 300, "kind": "SEQ-REGRESSION"}]})
    evaluated = []  # the snapshots themselves, so that no id is reused
    original = checker.evaluate_snapshot

    def counting(snapshot, header, last_corrupt_step, node_id=None):
        evaluated.append(snapshot)
        return original(snapshot, header, last_corrupt_step, node_id)

    monkeypatch.setattr(checker, "evaluate_snapshot", counting)
    results = [run_scenario(from_dict(raw))]
    results += [result for _, result in sorted(run_scenarios([from_dict(raw), from_dict(member)]))]
    for result in results:
        assert result.metrics["status"] == "stabilized"
        reports = checker.check_all(result.trace.header, result.trace.events)
        assert not [r.name for r in reports if r.verdict == "FAIL"]
    assert evaluated
    assert len({id(snapshot) for snapshot in evaluated}) == len(evaluated)


def _checked_trace(h, events):
    """A `Trace` of these events, its packet dicts kept compact."""
    trace = Trace(h)
    for event in events:
        trace.append(event)
    return trace


def _recovered_events(n=3):
    """A corruption at step 1, a compact MSG SEND of (2, 5) in the recovery
    window, and the marker at the cycle-2 snapshot, where node 1 holds its
    own message (1, 1) and a MSG (2, 0) is in flight to node 3; the
    position of the SEND and of the marker."""
    holder = dict(fresh_node(1, n), seq=1, buffer=[rec("m", 1, 1, n)])
    in_flight = {"kind": "MSG", "payload": "x", "sender": 2, "seq": 0, "birth_step": 4}
    events = base_events(n) + [
        ev("CORRUPT", node=1, kind="RANDOMIZE-ALL", step=1),
        ev("SEND", src=2, dst=1, kind="MSG", mid=[2, 5], step=2),
        ev("CYCLE", k=1, step=3),
        snapshot([fresh_node(i, n) for i in range(1, n + 1)], step=3, cycle=1),
        ev("CYCLE", k=2, step=5),
        snapshot(
            [holder] + [fresh_node(i, n) for i in range(2, n + 1)],
            [{"src": 2, "dst": 3, "packets": [in_flight]}],
            step=5,
            cycle=2,
        ),
    ]
    return events, 2, 6


def test_validity_exempts_identities_present_at_the_marker():
    h = header()
    events, send, marker = _recovered_events()
    delivers = [
        ev("DELIVER", node=2, mid=[1, 1], step=6),  # held in the marker snapshot
        ev("DELIVER", node=3, mid=[2, 0], step=6),  # in flight in the marker snapshot
        ev("DELIVER", node=3, mid=[2, 5], step=7),  # sent in the recovery window only
    ]
    end = [ev("END", reason="stabilized", step=9)]
    trace = _checked_trace(h, events + delivers + end)
    assert type(trace.records[send]) is tuple
    ti = checker.index_trace(h, trace.events)
    assert ti.markers == [marker]
    report = checker.validity_check(ti)
    assert report.verdict == "PASS" and report.measured == {"exemptions": 3}

    orphan = ev("DELIVER", node=3, mid=[9, 9], step=8)  # present nowhere
    trace = _checked_trace(h, events + delivers + [orphan] + end)
    report = checker.validity_check(checker.index_trace(h, trace.events))
    assert report.verdict == "FAIL"
    assert report.witness == {"step": 8, "node": 3, "mid": [9, 9]}


def test_recorded_verdict_used_only_under_its_corruption_step():
    h = header()
    events, _, marker = _recovered_events()
    events.append(ev("END", reason="stabilized", step=9))
    plain = [r.to_dict() for r in checker.check_all(h, events)]
    assert not [r for r in plain if r["verdict"] == "FAIL"]
    planted = checker.SnapshotVerdict(False, 2, "planted")
    # the marker as the simulator keeps a snapshot, where the stop rule leaves its verdict
    judged = events[marker] = as_snapshot(events[marker])
    # judged under another corruption step: evaluated again, as with no verdict
    judged.verdict = (0, planted)
    assert [r.to_dict() for r in checker.check_all(h, events)] == plain
    # under the step the index derives (the CORRUPT at step 1): read as recorded
    judged.verdict = (1, planted)
    ti = checker.index_trace(h, events)
    assert ti.verdict(marker, 1) is planted
    assert ti.markers == [None]


def test_gate_exit_semantics():
    ok = [checker.CheckReport("a", "PASS"), checker.CheckReport("b", "INCONCLUSIVE")]
    assert checker.gate(ok) == 0
    assert checker.gate(ok + [checker.CheckReport("c", "FAIL")]) == 1
