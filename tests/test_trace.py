"""The packet-record templates render exactly what `canonical` renders, and
every other record is encoded by `canonical` itself."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ssurb import trace
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
