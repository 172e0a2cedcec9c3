"""Execution traces: append-only event records, snapshots, digests, file IO.

A trace is a header record followed by one JSON object per event, in
simulation order. Snapshots embed every node's full protocol state plus
channel contents in canonical field order, which is what the state-level
checkers consume. The digest is a SHA-256 over the canonical encoding of
all records joined by newlines and is the replay-equality witness.

SEND/RECV/OMIT/DUP records, nearly all of a trace, are kept compact: a
record's code, the index of its (type, kind, cause) in `PACKET_CODES`, or
for MSG/MSGACK the tuple (code, sender, seq, step). `compact` is the one
rule that takes a packet dict to that form, or refuses it with a
`ValueError`, and `Trace.append` applies it, so no trace holds a packet
dict. Their lines have one format, which gives the same bytes as
`canonical`, kept in one table, `PACKET_TEMPLATES`: for each code, the
constant (head, middle, tail) around the record's dst, its optional mid
and its src and step. The simulator renders every packet line it appends
inline from that table and DELIVER lines from the fixed template
`deliver_line`. It appends a SNAPSHOT as a `Snapshot`, whose channels hold
the (message, birth step) pairs in flight rather than their dicts, with
its line, `snapshot_line`, assembled from the `canonical` strings of its
two halves: `canonical` of its nodes, and `snapshot_channels`, which
renders each packet in flight from its message's fields. So every line
format lives here. Any record appended without its line is rendered by
`canonical`, or from its code's template if it is a packet dict of the
simulator's exact shape.

The lines are kept once, as the bytes that were hashed. `Trace` feeds
SHA-256 one chunk of lines at a time (SHA-256 is a streaming hash, so the
digest is the one a line-by-line update gives) and keeps each chunk,
indexed by the position of its first event; `write` writes the header and
the chunks. `Trace.events` is a read-only view: it hands out the appended
plain dicts as they are and decodes any other record, a compact packet
record or a `Snapshot`, from its line when asked, a fresh dict each time,
so an edit to one does not persist. `read` appends each record of a trace
file as decoded, its snapshots as `Snapshot`s (`as_snapshot`).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections.abc import Sequence
from itertools import islice
from json.encoder import encode_basestring_ascii

from .config import ConfigError, check_fields
from .wire import decode

TRACE_FORMAT = "ssurb-trace-v1"

PACKET_TYPES = frozenset(("SEND", "RECV", "OMIT", "DUP"))
PACKET_KINDS = ("MSG", "MSGACK", "GOSSIP", "HEARTBEAT")
# (type, kind, cause) of each compact packet record, by code
PACKET_CODES: tuple[tuple[str, str, str | None], ...] = tuple(
    (etype, kind, cause)
    for etype, cause in (
        ("SEND", None),
        ("RECV", None),
        ("DUP", None),
        ("OMIT", "overflow"),
        ("OMIT", "drop"),
    )
    for kind in PACKET_KINDS
)
PACKET_CODE = {triple: code for code, triple in enumerate(PACKET_CODES)}
CHUNK_LINES = 256  # lines hashed and kept per chunk


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)  # trees only


def canonical(record) -> str:
    """`json.dumps(record, sort_keys=True, separators=(",", ":"))`."""
    return _CANONICAL.encode(record)


def _template(etype: str, kind: str, cause: str | None) -> tuple[str, str, str]:
    cause_field = "" if cause is None else f'"cause":{encode_basestring_ascii(cause)},'
    return (
        f'{{{cause_field}"dst":',
        f',"kind":{encode_basestring_ascii(kind)},',
        f',"type":{encode_basestring_ascii(etype)}}}',
    )


# (head, middle, tail) of each code's line: head, dst, middle, the mid field
# '"mid":[sender,seq],' when the record has one, '"src":' src ',"step":'
# step, and tail
PACKET_TEMPLATES: tuple[tuple[str, str, str], ...] = tuple(
    _template(*triple) for triple in PACKET_CODES
)


_MID_KINDS = ("MSG", "MSGACK")
# each code's keys: type, step, src, dst and kind, and mid and cause if it has them
_KEYS = tuple(5 + (kind in _MID_KINDS) + (cause is not None) for _, kind, cause in PACKET_CODES)


def compact(record):
    """The form a record is kept in: a packet dict (of a type in
    PACKET_TYPES) as its code or (code, sender, seq, step), any other record
    as it is. A packet dict whose (type, kind, cause) is not in PACKET_CODES,
    or that carries a two-field mid (a list or tuple of two) other than
    exactly when its kind is MSG or MSGACK, is a `ValueError`. A missing
    field reads as None."""
    if type(record) is not dict or record.get("type") not in PACKET_TYPES:
        return record
    get = record.get
    kind, cause, mid = get("kind"), get("cause"), get("mid")
    code = None
    if type(kind) is str and (cause is None or type(cause) is str):
        code = PACKET_CODE.get((record["type"], kind, cause))
    if code is None:
        raise ValueError(f"packet record of no (type, kind, cause) in PACKET_CODES: {record!r}")
    if kind not in _MID_KINDS:
        if mid is not None:
            raise ValueError(f"{kind} packet record with a mid: {record!r}")
        return code
    if type(mid) not in (list, tuple) or len(mid) != 2:
        raise ValueError(f"{kind} packet record without a two-field mid: {record!r}")
    return code, mid[0], mid[1], get("step")


def _packet_dict_line(record: dict, stored) -> str:
    """The line of a packet dict that `compact` keeps as `stored`: its
    code's template line when the dict holds only the template's keys, each
    a value json renders as the template does; `canonical` otherwise (of a
    bool, a tuple or an extra key, say)."""
    get = record.get
    step, src, dst = get("step"), get("src"), get("dst")
    code = stored if type(stored) is int else stored[0]
    if type(step) is int and type(src) is int and type(dst) is int and len(record) == _KEYS[code]:
        head, middle, tail = PACKET_TEMPLATES[code]
        if type(stored) is int:
            return f'{head}{dst}{middle}"src":{src},"step":{step}{tail}'
        mid = record["mid"]
        if type(mid) is list and type(mid[0]) is int and type(mid[1]) is int:
            return f'{head}{dst}{middle}"mid":[{mid[0]},{mid[1]}],"src":{src},"step":{step}{tail}'
    return canonical(record)


def deliver_line(step: int, node: int, sender: int, seq: int) -> str:
    """`canonical` of the DELIVER record of message (sender, seq) at `node`."""
    return f'{{"mid":[{sender},{seq}],"node":{node},"step":{step},"type":"DELIVER"}}'


def snapshot_channels(channels) -> str:
    """`canonical` of a SNAPSHOT's `channels` list, from the (src, dst,
    packets) entries of a `Snapshot`: each (message, birth step) pair in
    flight is rendered from the message's fields as `canonical` renders
    `dict(wire.encode(message), birth_step=birth)`, with no dict built."""
    entries = []
    for src, dst, packets in channels:
        texts = []
        for msg, birth in packets:
            kind = msg.kind
            if kind == "GOSSIP":
                top, rx, tx = msg
                texts.append(f'{{"birth_step":{birth},"kind":"GOSSIP","max_seq":{top},"rx_obs":{rx},"tx_obs":{tx}}}')
            elif kind == "HEARTBEAT":
                sent, seen = msg
                texts.append(f'{{"birth_step":{birth},"dst_count":{seen},"kind":"HEARTBEAT","sender_count":{sent}}}')
            elif kind == "MSG":
                payload, sender, seq = msg
                text = "null" if payload is None else encode_basestring_ascii(payload)
                texts.append(f'{{"birth_step":{birth},"kind":"MSG","payload":{text},"sender":{sender},"seq":{seq}}}')
            else:  # MSGACK
                sender, seq = msg
                texts.append(f'{{"birth_step":{birth},"kind":"MSGACK","sender":{sender},"seq":{seq}}}')
        entries.append(f'{{"dst":{dst},"packets":[{",".join(texts)}],"src":{src}}}')
    return f'[{",".join(entries)}]'


def snapshot_state(nodes_json: str, channels_json: str) -> str:
    """`canonical({"nodes": nodes, "channels": channels})` from the two halves'
    `canonical` strings: the input of a SNAPSHOT's digest."""
    return f'{{"channels":{channels_json},"nodes":{nodes_json}}}'


def snapshot_line(
    step: int, cycle: int, boundary: bool, nodes_json: str, channels_json: str, digest: str
) -> str:
    """`canonical` of the SNAPSHOT record with these fields, `nodes_json` and
    `channels_json` being the `canonical` strings of its two lists."""
    return (
        f'{{"boundary":{"true" if boundary else "false"},"channels":{channels_json},'
        f'"cycle":{cycle},"digest":"{digest}","nodes":{nodes_json},'
        f'"step":{step},"type":"SNAPSHOT"}}'
    )


# the config fields a header carries; `read` checks each against its type
HEADER_FIELDS = ("seed", "n", "buffer_unit_size", "channel_capacity", "maxint", "fifo_enabled",
                 "bounded_mode", "quiescence_window_cycles", "scheduler_profile", "stop_mode")


def make_header(cfg) -> dict:
    return {"type": "HEADER", "format": TRACE_FORMAT, "config_hash": cfg.config_hash(),
            **{name: getattr(cfg, name) for name in HEADER_FIELDS}}


class Snapshot(dict):
    """A SNAPSHOT record as the simulator keeps it: the keys of its line, but
    `channels` holds (src, dst, packets) for each non-empty channel, in
    (src, dst) order, `packets` a list of the (message, birth step) pairs in
    flight there, the messages those of `wire`. `verdict` is (last
    corruption step, `checker.SnapshotVerdict`) once the `stabilized` stop
    rule has judged the snapshot; it is neither hashed nor written."""

    __slots__ = ("verdict",)


def as_snapshot(record: dict) -> Snapshot:
    """A SNAPSHOT record as a `Snapshot`: a dict-form one, a trace line's or
    a hand-built one, with each packet dict of its channels decoded."""
    if isinstance(record, Snapshot):
        return record
    channels = [
        (entry["src"], entry["dst"], [(decode(p), p["birth_step"]) for p in entry["packets"]])
        for entry in record["channels"]
    ]
    return Snapshot(record, channels=channels)


class Trace:
    """Header plus ordered events, with an incrementally maintained digest.

    `records` holds each event as appended: a dict, a `Snapshot`, or a
    compact packet record (see the module docstring). Every line is kept in
    one of the hashed chunks, or in `pending` until the next chunk is cut.
    The simulator appends to `records` and `pending` itself and calls
    `flush` after an iteration when `CHUNK_LINES` lines are pending; a chunk may
    run longer, which changes neither the digest nor the written bytes."""

    def __init__(self, header: dict):
        self.header = header
        self.records: list = []
        self._hasher = hashlib.sha256(canonical(header).encode())
        self.pending: list[str] = []  # lines not yet hashed
        # "\n" + the lines joined by "\n", as hashed; `digest` may cut a chunk
        # short, so each is indexed by the position of its first event
        self._chunks: list[bytes] = []
        self._chunk_starts: list[int] = []
        # the view shares these containers, never the trace itself: a cycle
        # between the two would leave a finished trace to the cyclic collector
        self.events = TraceEvents(self.records, self._chunks, self._chunk_starts, self.pending)

    def append(self, record, line: str | None = None) -> None:
        """Record an event: a dict, whose `canonical` line the caller may pass
        when it has rendered it already, a `Snapshot` with its
        `snapshot_line`, or a compact packet record with its template line.
        A packet dict is kept as `compact` makes it, or refused unappended."""
        stored = compact(record)
        if line is None:
            line = canonical(record) if stored is record else _packet_dict_line(record, stored)
        self.records.append(stored)
        pending = self.pending
        pending.append(line)
        if len(pending) >= CHUNK_LINES:
            self.flush()

    def branch(self, header: dict) -> Trace:
        """These events under `header`, in lists of their own; the kept
        chunks are re-hashed after it, as a trace started with `header`
        hashes them."""
        twin = Trace(header)
        twin.records[:], twin.pending[:] = self.records, self.pending
        twin._chunks[:], twin._chunk_starts[:] = self._chunks, self._chunk_starts
        twin._hasher.update(b"".join(self._chunks))
        return twin

    def flush(self) -> None:
        """Hash the pending lines and keep them as one chunk."""
        pending = self.pending
        if pending:
            chunk = ("\n" + "\n".join(pending)).encode()
            self._hasher.update(chunk)
            self._chunk_starts.append(len(self.records) - len(pending))
            self._chunks.append(chunk)
            pending.clear()

    def digest(self) -> str:
        self.flush()
        return self._hasher.hexdigest()

    def write(self, path: str) -> None:
        """The header and one line per event, each as it was hashed."""
        self.flush()
        with open(path, "wb") as fh:
            fh.write(canonical(self.header).encode())
            fh.writelines(self._chunks)
            fh.write(b"\n")


def decode_line(line: bytes | str) -> dict:
    """The event dict of a trace line."""
    return json.loads(line)


class TraceEvents(Sequence):
    """Read-only sequence of a trace's events, negative indexes and slices
    included. Appended plain dicts are handed out as they are; any other
    record's dict is decoded from its line on each read."""

    __slots__ = ("records", "_chunks", "_starts", "_pending", "_split")

    def __init__(self, records: list, chunks: list[bytes], starts: list[int], pending: list[str]):
        self.records = records  # the events as appended, packet records compact
        self._chunks, self._starts, self._pending = chunks, starts, pending
        self._split: tuple[int, list[bytes]] = (-1, [])  # the last chunk read, split

    def _line(self, pos: int) -> bytes | str:
        """The line of the event at `pos` (0 <= pos < len(self)), as hashed."""
        flushed = len(self.records) - len(self._pending)
        if pos >= flushed:
            return self._pending[pos - flushed]
        k = bisect_right(self._starts, pos) - 1
        if self._split[0] != k:
            self._split = (k, self._chunks[k].split(b"\n"))
        return self._split[1][pos - self._starts[k] + 1]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        records = self.records
        if isinstance(index, slice):
            return [self[pos] for pos in range(*index.indices(len(records)))]
        record = records[index]
        if type(record) is dict:
            return record
        return decode_line(self._line(index + len(records) if index < 0 else index))

    def __iter__(self):
        records = self.records
        pos = 0
        for chunk in self._chunks:
            for line in islice(chunk.split(b"\n"), 1, None):
                record = records[pos]
                yield record if type(record) is dict else decode_line(line)
                pos += 1
        while pos < len(records):  # the lines not yet cut into a chunk
            yield self[pos]
            pos += 1


def read(path: str) -> Trace:
    """The trace written at `path`: each record appended as decoded, its
    snapshots as `Snapshot`s, so its packet records are compact, as the
    simulator appends them. A header config field that is missing or not of
    its `ScenarioConfig` type, a line json cannot decode or that is not an
    object, a snapshot whose channels cannot be decoded, or a packet record
    that `compact` refuses, is a `ValueError` naming the path and the line
    number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((number, line) for number, line in enumerate((ln.strip() for ln in fh), 1) if line)
        number, first = next(lines, (0, None))
        if first is None:
            raise ValueError(f"{path}: empty trace file")
        try:
            header = json.loads(first)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
        if not (isinstance(header, dict) and header.get("type") == "HEADER"
                and header.get("format") == TRACE_FORMAT):
            raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
        try:
            check_fields(header, HEADER_FIELDS)
        except ConfigError as exc:
            raise ValueError(f"{path}:{number}: header field {exc}") from None
        trace = Trace(header)
        for number, line in lines:
            try:
                record = json.loads(line)
                if record.get("type") == "SNAPSHOT":
                    trace.append(as_snapshot(record), canonical(record))
                else:
                    trace.append(record)
            except ValueError as exc:  # a line json cannot decode, or a packet `compact` refuses
                raise ValueError(f"{path}:{number}: {exc}") from None
            except (AttributeError, IndexError, KeyError, TypeError) as exc:  # not an object, or a bad snapshot
                raise ValueError(f"{path}:{number}: a record that cannot be read: {exc!r}") from None
    return trace

