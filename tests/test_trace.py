"""The packet-record template renders exactly what `canonical` renders,
every other record is encoded by `canonical` itself, and the batched
digest is the SHA-256 of the canonical records joined by newlines. The
trace keeps each line once, as hashed; its events view reads the dicts
back from the compact packet records, and `write` copies the lines."""

import gc
import hashlib
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssurb import checker, trace
from ssurb.config import from_dict
from ssurb.sim import Simulation, run_scenario
from ssurb.trace import canonical, encode_record

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


scalars = st.one_of(st.none(), st.booleans(), ints, st.text(max_size=4))
other_records = st.one_of(
    # other event types, with whatever fields
    st.builds(
        lambda etype, fields: dict(fields, type=etype),
        st.text(max_size=8).filter(lambda t: t not in PACKET_TYPES),
        st.dictionaries(st.text(max_size=5), scalars, max_size=5),
    ),
    # packet types off the simulator's shape: an extra or null field, a
    # bool or a tuple where json renders differently from the template
    st.builds(
        lambda record, key, value: dict(record, **{key: value}),
        packet_records(),
        st.sampled_from(("step", "src", "dst", "kind", "mid", "cause", "extra")),
        st.one_of(
            st.none(),
            st.booleans(),
            st.tuples(ints, ints),
            st.lists(ints, max_size=3).filter(lambda v: len(v) != 2),
        ),
    ),
)


def _encode_watching_canonical(record):
    with mock.patch.object(trace, "canonical", wraps=canonical) as spy:
        line = encode_record(record)
    return line, spy.call_count


@given(packet_records())
@settings(max_examples=300, deadline=None)
def test_packet_template_equals_canonical(record):
    line, canonical_calls = _encode_watching_canonical(record)
    assert line == canonical(record)
    assert canonical_calls == 0


@given(record=other_records)
@settings(max_examples=300, deadline=None)
def test_other_records_go_through_canonical(record):
    line, canonical_calls = _encode_watching_canonical(record)
    assert line == canonical(record)
    assert canonical_calls == 1


@given(st.integers(0, 10**9), st.integers(1, 200), st.integers(1, 200), st.integers(-5, 10**9))
@settings(max_examples=200, deadline=None)
def test_deliver_line_equals_canonical(step, node, sender, seq):
    record = {"type": "DELIVER", "step": step, "node": node, "mid": [sender, seq]}
    assert trace.deliver_line(step, node, sender, seq) == canonical(record)


def test_written_trace_reads_back_with_the_same_digest(tmp_path):
    header = {"type": "HEADER", "format": trace.TRACE_FORMAT, "n": 2}
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


def test_every_code_renders_one_line_from_the_table_and_packet_line():
    # the simulator renders every packet line inline from PACKET_TEMPLATES
    # and packet_line renders through the same table: for every code, with
    # and without a mid, both give canonical of the record's dict
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
            assert trace.packet_line(etype, step, src, dst, kind, mid, cause) == expected
            assert encode_record(record) == expected


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
    t.append(typed, trace.packet_line("SEND", 0, 1, 2, "HEARTBEAT"))
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
        code = trace.PACKET_CODE[(etype, kind, cause)]
        mid = None
        if kind in ("MSG", "MSGACK"):
            mid = (src, pos)
            record["mid"] = list(mid)
            compact = (code, src, pos, step)
        else:
            compact = code
        if cause is not None:
            record["cause"] = cause
        t.append(compact, trace.packet_line(etype, step, src, dst, kind, mid, cause))
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
    assert events == expected
    assert events != expected[:-1]
    # a record appended after the reads: the view follows the trace
    t.append(trace.PACKET_CODE[("SEND", "GOSSIP", None)], trace.packet_line("SEND", 999, 1, 2, "GOSSIP"))
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
    back = trace.read(str(path))
    assert back.digest() == result.trace.digest()
    assert back.records == result.trace.records
    # packets off the simulator's shape stay dicts, as read
    header = {"type": "HEADER", "format": trace.TRACE_FORMAT, "n": 2}
    odd = [
        {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "GOSSIP", "mid": [1, 1]},
        {"type": "SEND", "step": 0, "src": 1, "dst": 2, "kind": "MSG"},
        {"type": "RECV", "step": 1, "src": 1, "dst": 2, "kind": "GOSSIQ"},
        {"type": "OMIT", "step": 1, "src": 1, "dst": 2, "kind": "HEARTBEAT", "cause": "lost"},
        {"type": "DUP", "step": 2, "src": 1, "dst": 2, "kind": "MSGACK", "mid": [2, 1], "extra": 0},
    ]
    written = trace.Trace(header)
    for record in odd:
        written.append(record)
    written.write(str(path))
    back = trace.read(str(path))
    assert back.records == odd
    assert back.digest() == written.digest()
