"""`Trace.append` keeps every packet dict compact or refuses it, by one
rule; the packet-record template renders exactly what `canonical` renders,
every other record is rendered by `canonical` itself, and the batched
digest is the SHA-256 of the canonical records joined by newlines. The
trace keeps each line once, as hashed; its events view reads the dicts
back from the compact packet records, and `write` copies the lines."""

import gc
import hashlib
import json
import re
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssurb import checker, cli, trace
from ssurb.config import from_dict
from ssurb.sim import Simulation, run_scenario
from ssurb.trace import canonical
from ssurb.wire import Gossip, Heartbeat, Msg, MsgAck, decode, encode

PACKET_TYPES = ("SEND", "RECV", "OMIT", "DUP")
KINDS = ("MSG", "MSGACK", "GOSSIP", "HEARTBEAT")
ints = st.integers(-(2**40), 2**40)


@st.composite
def packet_records(draw):
    record = {
        "type": draw(st.sampled_from(PACKET_TYPES)),
        "step": draw(ints),
        "src": draw(ints),
        "dst": draw(ints),
        "kind": draw(st.one_of(st.sampled_from(KINDS), st.text(max_size=6))),
    }
    if draw(st.booleans()):
        record["mid"] = [draw(ints), draw(ints)]
    if draw(st.booleans()):
        record["cause"] = draw(st.one_of(st.sampled_from(("overflow", "drop")), st.text(max_size=6)))
    return record


@st.composite
def simulator_packets(draw):
    """A packet record of the simulator's shape: one of PACKET_CODES, a mid
    exactly for MSG and MSGACK."""
    etype, kind, cause = draw(st.sampled_from(trace.PACKET_CODES))
    record = {"type": etype, "step": draw(ints), "src": draw(ints), "dst": draw(ints), "kind": kind}
    if kind in ("MSG", "MSGACK"):
        record["mid"] = [draw(ints), draw(ints)]
    if cause is not None:
        record["cause"] = cause
    return record


@st.composite
def off_shape_packets(draw):
    """A packet record the rule accepts whose line json renders otherwise
    than the template: a bool or a tuple where the template renders an int
    or a list, or an extra key."""
    record = draw(simulator_packets())
    key = draw(st.sampled_from(("step", "src", "dst", "extra") + (("mid",) if "mid" in record else ())))
    if key == "mid":
        record["mid"] = draw(st.one_of(st.tuples(ints, ints), st.tuples(st.booleans(), ints).map(list)))
    else:
        record[key] = draw(st.one_of(st.booleans(), st.tuples(ints, ints)))
    return record


scalars = st.one_of(st.none(), st.booleans(), ints, st.text(max_size=4))
# other event types, with whatever fields
non_packet_records = st.builds(
    lambda etype, fields: dict(fields, type=etype),
    st.text(max_size=8).filter(lambda t: t not in PACKET_TYPES),
    st.dictionaries(st.text(max_size=5), scalars, max_size=5),
)
HEADER = trace.make_header(from_dict({"n": 2}))  # every field `trace.read` checks


def _stored(record):
    """The compact record the rule stores for an accepted packet dict."""
    code = trace.PACKET_CODE[(record["type"], record["kind"], record.get("cause"))]
    mid = record.get("mid")
    return code if mid is None else (code, mid[0], mid[1], record["step"])


@given(st.one_of(simulator_packets(), packet_records()))
@settings(max_examples=300)
def test_packet_template_equals_canonical(record):
    # a packet dict the rule accepts is stored compact; one of the
    # simulator's shape gets its line from its code's template, never from
    # canonical, and that line is canonical's
    etype, kind, cause, mid = record["type"], record["kind"], record.get("cause"), record.get("mid")
    accepted = (etype, kind, cause) in trace.PACKET_CODE and (mid is None) == (kind not in ("MSG", "MSGACK"))
    t = trace.Trace(HEADER)
    with mock.patch.object(trace, "canonical", wraps=canonical) as spy:
        if not accepted:
            with pytest.raises(ValueError):
                t.append(record)
            assert t.records == [] and t.pending == []
            return
        t.append(record)
    assert spy.call_count == 0
    assert t.records == [_stored(record)]
    assert t.pending == [canonical(record)]
    assert t.events[0] == record


@given(record=st.one_of(non_packet_records, off_shape_packets()))
@settings(max_examples=300)
def test_other_records_go_through_canonical(record):
    # a record appended without a line is hashed and written as canonical
    # renders it, unless it is a packet dict of the simulator's shape: an
    # accepted packet dict off that shape is still stored compact, and the
    # events view reads it back from its canonical line
    t = trace.Trace(HEADER)
    with mock.patch.object(trace, "canonical", wraps=canonical) as spy:
        t.append(record)
    assert t.pending == [canonical(record)]
    assert spy.call_count == 1
    if record["type"] in PACKET_TYPES:
        assert t.records == [_stored(record)]
        assert t.events[0] == json.loads(canonical(record))
    else:
        assert t.records == [record] and t.events[0] is record


@given(st.integers(0, 10**9), st.integers(1, 200), st.integers(1, 200), st.integers(-5, 10**9))
@settings(max_examples=200)
def test_deliver_line_equals_canonical(step, node, sender, seq):
    record = {"type": "DELIVER", "step": step, "node": node, "mid": [sender, seq]}
    assert trace.deliver_line(step, node, sender, seq) == canonical(record)


messages = st.one_of(
    st.builds(Msg, st.one_of(st.text(max_size=8), st.none()), ints, ints),
    st.builds(MsgAck, ints, ints),
    st.builds(Gossip, ints, ints, ints),
    st.builds(Heartbeat, ints, ints),
)
channel_lists = st.lists(
    st.tuples(ints, ints, st.lists(st.tuples(messages, ints), min_size=1, max_size=4)), max_size=3
)
EVERY_KIND_IN_FLIGHT = [
    (1, 2, [(Msg(None, 1, 2), 0), (Msg('caf\u00e9 \u2192 \U0001f600 "q" \\ \n', 3, 4), 17)]),
    (2, 1, [(MsgAck(2, 7), 5), (Gossip(9, 4, 3), 5), (Heartbeat(12, 5), 5)]),
]


@given(channel_lists)
@example(EVERY_KIND_IN_FLIGHT)  # a null and an escaped non-ASCII, quoted payload
@example([])
@settings(max_examples=300)
def test_snapshot_channels_is_the_canonical_channel_list(channels):
    text = trace.snapshot_channels(channels)
    assert text == canonical(
        [
            {"src": src, "dst": dst, "packets": [dict(encode(m), birth_step=b) for m, b in packets]}
            for src, dst, packets in channels
        ]
    )
    # a snapshot read back from its line decodes each packet to the same message
    assert [
        (entry["src"], entry["dst"], [(decode(p), p["birth_step"]) for p in entry["packets"]])
        for entry in json.loads(text)
    ] == channels


def test_written_trace_reads_back_with_the_same_digest(tmp_path):
    header = HEADER
    written = trace.Trace(header)
    for record in (
        {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "HEARTBEAT"},
        {"type": "OMIT", "step": 0, "src": 1, "dst": 2, "kind": "MSG", "mid": [1, 1], "cause": "overflow"},
        {"type": "END", "step": 1, "reason": "max-steps"},
    ):
        written.append(record)
    path = tmp_path / "trace.jsonl"
    written.write(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [canonical(header)] + [canonical(e) for e in written.events]
    assert trace.read(str(path)).digest() == written.digest()


def _reference_digest(header, events):
    lines = [canonical(header)] + [canonical(e) for e in events]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_empty_pending_chunk_hashes_nothing_extra():
    header = {"type": "HEADER", "format": trace.TRACE_FORMAT, "n": 2}
    t = trace.Trace(header)
    assert t.digest() == _reference_digest(header, [])
    assert t.digest() == _reference_digest(header, [])
    # whole chunks only: each flush empties the pending lines
    for step in range(2 * trace.CHUNK_LINES):
        t.append({"type": "SEND", "step": step, "src": 1, "dst": 2, "kind": "HEARTBEAT"})
    expected = _reference_digest(header, t.events)
    assert t.digest() == expected
    assert t.digest() == expected


def test_digest_mid_run_leaves_the_final_digest_unchanged():
    raw = {
        "n": 4,
        "seed": 5,
        "max_steps": 3000,
        "stop_mode": "max-steps",
        "broadcasts": [{"node": 1 + k % 4, "payload": f"m{k}"} for k in range(6)],
        "fault_plan": {"omission_prob": 0.1, "duplication_prob": 0.1},
    }
    sim = Simulation(from_dict(raw))
    while sim.step < sim.cfg.max_steps and sim.stop_reason is None:
        sim.step_once()
        if sim.step % 97 == 0:
            sim.trace.digest()
    assert len(sim.trace.events) > 2 * trace.CHUNK_LINES
    assert sim.run().metrics["trace_digest"] == run_scenario(from_dict(raw)).metrics["trace_digest"]


# every packet-record shape the simulator emits, plus the runs around them
TYPED_RENDER_BATTERY = [
    # SEND/RECV of every kind, drop omissions and duplicates
    {
        "n": 3,
        "seed": 1,
        "max_steps": 3000,
        "scheduler_profile": "reorder-heavy",
        "broadcasts": [{"node": 1 + k % 3, "payload": f"m{k}"} for k in range(4)],
        "fault_plan": {"omission_prob": 0.2, "duplication_prob": 0.2},
    },
    # overflow omissions
    {
        "n": 5,
        "seed": 2,
        "max_steps": 3000,
        "channel_capacity": 2,
        "broadcasts": [{"node": 1 + k % 5, "payload": f"m{k}"} for k in range(4)],
    },
    # CHANNEL-GARBAGE packets, then a crash under starve-one-node
    {
        "n": 4,
        "seed": 3,
        "max_steps": 4000,
        "scheduler_profile": "starve-one-node",
        "broadcasts": [{"node": 2, "payload": f"m{k}"} for k in range(3)],
        "fault_plan": {
            "corruptions": [{"node": 3, "step": 150, "kind": "CHANNEL-GARBAGE"}],
            "crashes": [{"node": 4, "step": 300}],
            "detection_latency": 10,
        },
    },
    # a bounded-mode global reset
    {
        "n": 4,
        "buffer_unit_size": 2,
        "bounded_mode": True,
        "maxint": 12,
        "seed": 3,
        "max_steps": 20000,
        "broadcasts": [{"node": 2, "payload": f"p{k}"} for k in range(16)],
    },
]


def test_every_code_renders_one_line_from_the_table():
    # the simulator renders every packet line inline from PACKET_TEMPLATES
    # and `Trace.append` renders a packet dict through the same table: for
    # every code, with and without a mid, both give canonical of the dict
    assert {etype for etype, _, _ in trace.PACKET_CODES} == set(trace.PACKET_TYPES)
    assert {cause for _, _, cause in trace.PACKET_CODES} == {None, "overflow", "drop"}
    step, src, dst = 123456, 7, 12
    for code, (etype, kind, cause) in enumerate(trace.PACKET_CODES):
        head, middle, tail = trace.PACKET_TEMPLATES[code]
        for mid in (None, (3, 41)):
            record = {"type": etype, "step": step, "src": src, "dst": dst, "kind": kind}
            if cause is not None:
                record["cause"] = cause
            mid_field = ""
            if mid is not None:
                record["mid"] = list(mid)
                mid_field = f'"mid":[{mid[0]},{mid[1]}],'
            table_line = f'{head}{dst}{middle}{mid_field}"src":{src},"step":{step}{tail}'
            expected = canonical(record)
            assert table_line == expected, (code, mid)
            if (mid is None) == (kind not in ("MSG", "MSGACK")):  # a dict the rule accepts
                t = trace.Trace(HEADER)
                t.append(record)
                assert t.pending == [expected], (code, mid)


def test_typed_packet_lines_match_canonical():
    shapes = set()
    for raw in TYPED_RENDER_BATTERY:
        result = run_scenario(from_dict(raw))
        events = result.trace.events
        assert result.trace.digest() == _reference_digest(result.trace.header, events)
        for e in events:
            if e["type"] in trace.PACKET_TYPES:
                shapes.add((e["type"], e["kind"], e.get("cause")))
            else:
                shapes.add((e["type"],))
    kinds = ("MSG", "MSGACK", "GOSSIP", "HEARTBEAT")
    expected = {(etype, kind, None) for etype in ("SEND", "RECV") for kind in kinds}
    expected |= {("CRASH",), ("CORRUPT",), ("RESET",)}
    assert expected <= shapes
    assert any(s[0] == "DUP" for s in shapes)
    assert {s[2] for s in shapes if s[0] == "OMIT"} == {"drop", "overflow"}


def test_written_files_match_canonical_for_simulated_traces(tmp_path):
    # `write` copies the hashed chunks; the file must still hold
    # canonical(record) per line, across chunks
    path = tmp_path / "trace.jsonl"
    for raw in TYPED_RENDER_BATTERY:
        result = run_scenario(from_dict(raw))
        result.trace.write(str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = [canonical(result.trace.header)] + [canonical(e) for e in result.trace.events]
        assert lines == expected
    assert len(result.trace.events) > trace.CHUNK_LINES


def test_write_validates_records_appended_without_a_line(tmp_path):
    header = {"type": "HEADER", "format": trace.TRACE_FORMAT, "n": 2}
    t = trace.Trace(header)
    typed = {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "HEARTBEAT"}
    t.append(typed)
    # off the template's shape: json renders the bool and the tuple itself
    t.append({"type": "RECV", "step": 1, "src": True, "dst": 2, "kind": "MSG", "mid": (1, 1)})
    t.append({"type": "END", "step": 2, "reason": "max-steps"})
    path = tmp_path / "trace.jsonl"
    t.write(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [canonical(header)] + [canonical(e) for e in t.events]


def test_write_emits_the_snapshot_lines_that_were_hashed(tmp_path):
    # a SNAPSHOT line handed to `append` is kept and written as it was
    # hashed, not encoded again from the record
    result = run_scenario(from_dict(TYPED_RENDER_BATTERY[0]))
    snapshots = [e for e in result.trace.events if e["type"] == "SNAPSHOT"]
    assert len(snapshots) > 1
    expected = [canonical(e) for e in snapshots]
    for e in snapshots:
        e["cycle"] = -1  # a record edited after the fact: the file keeps the hashed line
    path = tmp_path / "trace.jsonl"
    result.trace.write(str(path))
    data = path.read_bytes()
    assert hashlib.sha256(data.rstrip(b"\n")).hexdigest() == result.metrics["trace_digest"]
    written = [line for line in data.decode().splitlines() if '"type":"SNAPSHOT"' in line]
    assert written == expected


def _compact_trace(count, digest_at=()):
    """A trace of `count` events, mostly compact packet records, with the
    dict each event stands for; `digest()` is called before each position
    in `digest_at`, which cuts a chunk short there."""
    header = {"type": "HEADER", "format": trace.TRACE_FORMAT, "n": 3}
    t = trace.Trace(header)
    expected = []
    for pos in range(count):
        if pos in digest_at:
            t.digest()
        step, src, dst = pos // 3, 1 + pos % 3, 1 + (pos + 1) % 3
        if pos % 50 == 7:
            record = {"type": "CYCLE", "step": step, "k": pos}
            t.append(record)
            expected.append(record)
            continue
        etype, kind, cause = trace.PACKET_CODES[pos % len(trace.PACKET_CODES)]
        record = {"type": etype, "step": step, "src": src, "dst": dst, "kind": kind}
        if kind in ("MSG", "MSGACK"):
            record["mid"] = [src, pos]
        if cause is not None:
            record["cause"] = cause
        t.append(record)  # kept compact
        expected.append(record)
    return t, expected


def _same(decoded, expected):
    return canonical(decoded) == canonical(expected)


def test_view_reads_compact_records_across_chunk_edges():
    # digest() at 300 cuts the second chunk short; records appended after it
    # land in later chunks and in the pending lines
    t, expected = _compact_trace(700, digest_at=(300,))
    events = t.events
    assert len(events) == 700
    for pos in (0, 7, 255, 256, 257, 299, 300, 301, 555, 556, 557, 699, -1, -700):
        assert _same(events[pos], expected[pos]), pos
    for window in (slice(250, 262), slice(-5, None), slice(None, None, 97), slice(299, 302)):
        got = events[window]
        assert len(got) == len(expected[window])
        assert all(_same(a, b) for a, b in zip(got, expected[window]))
    assert [canonical(e) for e in events] == [canonical(e) for e in expected]
    assert list(events) == expected
    assert list(events) != expected[:-1]
    # a record appended after the reads: the view follows the trace
    t.append({"type": "SEND", "step": 999, "src": 1, "dst": 2, "kind": "GOSSIP"})
    assert len(events) == 701
    assert events[-1] == {"type": "SEND", "step": 999, "src": 1, "dst": 2, "kind": "GOSSIP"}
    assert events[699] == expected[699]


def test_view_hands_out_dicts_and_decodes_packets_afresh():
    t, expected = _compact_trace(300)
    assert t.events[7] is t.records[7]  # an appended dict, as it is
    decoded = t.events[0]
    decoded["step"] = -1
    assert t.events[0] == expected[0]  # the edit does not persist
    with pytest.raises(IndexError):
        t.events[300]
    with pytest.raises(TypeError):
        t.events[0] = {}


def test_write_is_the_header_and_the_hashed_lines(tmp_path):
    t, expected = _compact_trace(600, digest_at=(100, 101, 400))
    path = tmp_path / "trace.jsonl"
    t.write(str(path))
    lines = [canonical(t.header)] + [canonical(e) for e in expected]
    data = path.read_bytes()
    assert data == ("\n".join(lines) + "\n").encode()
    assert hashlib.sha256(data[:-1]).hexdigest() == t.digest()


def test_check_all_decodes_no_line(monkeypatch, tmp_path):
    calls = []
    original = trace.decode_line

    def counting(line):
        calls.append(line)
        return original(line)

    monkeypatch.setattr(trace, "decode_line", counting)
    runs = [
        # complete-delivery: quiescence walks its window's packets
        {"n": 3, "seed": 4, "max_steps": 6000, "broadcasts": [{"node": 1, "payload": "a"}]},
        # a corruption: validity reads the recovery window's packet mids
        TYPED_RENDER_BATTERY[2],
        dict(
            TYPED_RENDER_BATTERY[0],
            stop_mode="stabilized",
            fault_plan={"corruptions": [{"node": 2, "step": 100, "kind": "RANDOMIZE-ALL"}]},
        ),
    ]
    for raw in runs:
        result = run_scenario(from_dict(raw))
        packet = next(pos for pos, r in enumerate(result.trace.records) if type(r) is tuple)
        result.trace.events[packet]
        assert len(calls) == 1  # the patch sees the view's reads
        calls.clear()
        reports = checker.check_all(result.trace.header, result.trace.events)
        assert not [r.name for r in reports if r.verdict == "FAIL"]
        assert calls == []
        # a trace read back from its file, as `ssurb check` reads it
        path = tmp_path / "trace.jsonl"
        result.trace.write(str(path))
        back = trace.read(str(path))
        assert checker.check_all(back.header, back.events) == reports
        assert calls == []


def _retained_bytes_per_event(raw):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(from_dict(raw))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    packets = sum(1 for r in result.trace.records if type(r) is not dict)
    assert packets > 0.9 * len(result.trace.records)
    return retained / len(result.trace.records)


def test_trace_memory_per_event_is_bounded():
    # a fault-free n=8 run (9102 events, 10 snapshots) keeps about 179 bytes
    # per event: each line in its chunk (about 83), a list slot and, for
    # MSG/MSGACK, a 4-tuple, plus the snapshot dicts. Packet records kept as
    # dicts, with their lines dropped, took about 326.
    raw = {
        "n": 8,
        "seed": 0,
        "max_steps": 100_000,
        "broadcasts": [{"node": 1 + k, "payload": f"m{k}"} for k in range(3)],
    }
    assert _retained_bytes_per_event(raw) < 240


def test_finished_trace_is_freed_without_the_cyclic_collector():
    # a trace is large; if it and its events view referred to each other,
    # a dropped run would wait for a full collection, and several could be
    # alive at once
    result = run_scenario(from_dict(TYPED_RENDER_BATTERY[0]))
    ref = weakref.ref(result.trace)
    events = result.trace.events
    gc.disable()
    try:
        del result
        assert ref() is None
    finally:
        gc.enable()
    assert len(events) > 0  # the view outlives its trace


def test_read_keeps_simulator_shaped_packets_compact(tmp_path):
    path = tmp_path / "trace.jsonl"
    result = run_scenario(from_dict(TYPED_RENDER_BATTERY[2]))
    result.trace.write(str(path))
    with mock.patch.object(trace, "canonical", wraps=canonical) as spy:
        back = trace.read(str(path))
    # canonical renders the header and each record that is not a packet,
    # and no packet line
    assert spy.call_count == 1 + sum(type(r) not in (int, tuple) for r in back.records)
    assert back.digest() == result.trace.digest()
    # the same records: a snapshot is read back as a `Snapshot` too, so its
    # channels, decoded from the line written, are compared with the
    # (message, birth step) pairs the simulator kept in memory
    kept = result.trace.records
    snapshots = [pos for pos, r in enumerate(kept) if type(r) is trace.Snapshot]
    assert snapshots and all(type(back.records[pos]) is trace.Snapshot for pos in snapshots)
    assert any(kept[pos]["channels"] for pos in snapshots)
    assert back.records == kept
    # a packet dict the rule accepts off the simulator's shape is read back
    # compact too, its line rendered by canonical
    dup = {"type": "DUP", "step": 2, "src": 1, "dst": 2, "kind": "MSGACK", "mid": [2, 1], "extra": 0}
    written = trace.Trace(HEADER)
    written.append(dup)
    written.write(str(path))
    back = trace.read(str(path))
    assert back.records == written.records == [(trace.PACKET_CODE[("DUP", "MSGACK", None)], 2, 1, 2)]
    assert back.digest() == written.digest()
    assert list(back.events) == [dup]


# packet dicts outside the rule: a kind without a mid carrying one, a kind
# with a mid carrying none or one of three fields, and a kind or a cause not
# in PACKET_CODES
REFUSED = [
    {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "GOSSIP", "mid": [1, 1]},
    {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "MSG"},
    {"type": "RECV", "step": 1, "src": 1, "dst": 2, "kind": "MSGACK", "mid": [1, 1, 1]},
    {"type": "RECV", "step": 1, "src": 1, "dst": 2, "kind": "GOSSIQ"},
    {"type": "OMIT", "step": 1, "src": 1, "dst": 2, "kind": "HEARTBEAT", "cause": "lost"},
]


@pytest.mark.parametrize(
    "record", REFUSED, ids=["gossip-mid", "msg-no-mid", "msgack-three-field-mid", "gossiq", "lost"]
)
def test_packet_dicts_outside_the_rule_are_refused(record, tmp_path, capsys):
    t = trace.Trace(HEADER)
    with pytest.raises(ValueError):
        t.append(record)
    assert t.records == [] and t.pending == []
    events = [{"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "HEARTBEAT"}, record]
    with pytest.raises(ValueError):
        checker.index_trace(HEADER, events)
    # in a file, on line 3 after the header: read and `ssurb check` name it
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(canonical(r) for r in [HEADER] + events) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        trace.read(str(path))
    assert cli.main(["check", "--trace", str(path)]) == 2
    assert f"{path}:3: " in capsys.readouterr().err


def test_read_names_a_line_json_cannot_decode(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text(canonical(HEADER) + '\n{"type": "CYCLE", "step": 0, "k": 1}\n{"dst":2,"kind":"HEART\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: Unterminated string"):
        trace.read(str(path))
    assert cli.main(["check", "--trace", str(path)]) == 2
    assert f"{path}:3: " in capsys.readouterr().err
