"""Execution traces: append-only event records, snapshots, digests, file IO.

A trace is a header record followed by one JSON object per event, in
simulation order. Snapshots embed every node's full protocol state plus
channel contents in canonical field order, which is what the state-level
checkers consume. The digest is a SHA-256 over the canonical encoding of
all records joined by newlines and is the replay-equality witness.

SEND/RECV/OMIT/DUP records, nearly all of a trace, have one line format,
which gives the same bytes as `canonical`. It is kept in one table,
`PACKET_TEMPLATES`: for each code in `PACKET_CODES`, the index of a
(type, kind, cause), the constant (head, middle, tail) around the record's
dst, its optional mid and its src and step. The simulator renders every
packet line it appends (SEND, RECV, DUP, both OMIT causes) inline from that
table and DELIVER lines from the fixed template `deliver_line`, and appends
a packet line with a compact record: its code, or for MSG/MSGACK the tuple
(code, sender, seq, step). `encode_record` renders any other dict claiming
a packet type through `packet_line` once validated, and every other record
through `canonical`. A SNAPSHOT's line, `snapshot_line`, is assembled from
the `canonical` strings of its two halves.

The lines are kept once, as the bytes that were hashed. `Trace` feeds
SHA-256 one chunk of lines at a time (SHA-256 is a streaming hash, so the
digest is the one a line-by-line update gives) and keeps each chunk,
indexed by the position of its first event; `write` writes the header and
the chunks. `Trace.events` is a read-only view: it hands out the appended
dicts as they are and decodes a compact packet record's dict from its line
when asked, a fresh dict each time, so an edit to one does not persist.
`read` keeps a trace file's packet records of the simulator's shape in the
same compact form.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections.abc import Sequence
from itertools import islice
from json.encoder import encode_basestring_ascii

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


def packet_line(
    etype: str,
    step: int,
    src: int,
    dst: int,
    kind: str,
    mid: tuple[int, int] | list[int] | None = None,
    cause: str | None = None,
) -> str:
    """`canonical` of the packet record with these fields: the keys cause,
    dst, kind, mid, src, step and type, in that (sorted) order, the absent
    optional ones left out. `etype` is one of PACKET_TYPES, `mid` a
    (sender, seq) pair of ints. Rendered from the code's PACKET_TEMPLATES
    entry, or for a (type, kind, cause) without a code from the same
    template built on the spot."""
    code = PACKET_CODE.get((etype, kind, cause))
    head, middle, tail = _template(etype, kind, cause) if code is None else PACKET_TEMPLATES[code]
    if mid is None:
        return f'{head}{dst}{middle}"src":{src},"step":{step}{tail}'
    return f'{head}{dst}{middle}"mid":[{mid[0]},{mid[1]}],"src":{src},"step":{step}{tail}'


def deliver_line(step: int, node: int, sender: int, seq: int) -> str:
    """`canonical` of the DELIVER record of message (sender, seq) at `node`."""
    return f'{{"mid":[{sender},{seq}],"node":{node},"step":{step},"type":"DELIVER"}}'


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


def encode_record(record: dict) -> str:
    """`canonical(record)`, through `packet_line` for packet records."""
    etype = record.get("type")
    if type(etype) is str and etype in PACKET_TYPES:
        fields = _packet_fields(record)
        if fields is not None:
            return packet_line(etype, *fields)
    return canonical(record)


def _packet_fields(record: dict) -> tuple | None:
    # (step, src, dst, kind, mid, cause) when `packet_line` renders the
    # record as json would: keys type, step, src, dst, kind and optionally
    # mid and cause. Anything else, or a value json renders differently
    # from the template (a bool, a tuple), is None.
    get = record.get
    step, src, dst, kind = get("step"), get("src"), get("dst"), get("kind")
    mid, cause = get("mid"), get("cause")
    if (
        len(record) != 5 + (mid is not None) + (cause is not None)
        or type(step) is not int
        or type(src) is not int
        or type(dst) is not int
        or type(kind) is not str
        or (cause is not None and type(cause) is not str)
    ):
        return None
    if mid is not None and (
        type(mid) is not list
        or len(mid) != 2
        or type(mid[0]) is not int
        or type(mid[1]) is not int
    ):
        return None
    return step, src, dst, kind, mid, cause


def make_header(cfg) -> dict:
    return {
        "type": "HEADER",
        "format": TRACE_FORMAT,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "n": cfg.n,
        "buffer_unit_size": cfg.buffer_unit_size,
        "channel_capacity": cfg.channel_capacity,
        "maxint": cfg.maxint,
        "fifo_enabled": cfg.fifo_enabled,
        "bounded_mode": cfg.bounded_mode,
        "quiescence_window_cycles": cfg.quiescence_window_cycles,
        "scheduler_profile": cfg.scheduler_profile,
        "stop_mode": cfg.stop_mode,
    }


class Trace:
    """Header plus ordered events, with an incrementally maintained digest.

    `records` holds each event as appended: a dict, or a compact packet
    record (see the module docstring). Every line is kept in one of the
    hashed chunks, or in `pending` until the next chunk is cut. The
    simulator appends to `records` and `pending` itself and calls `flush`
    once a step when `CHUNK_LINES` lines are pending; a chunk may run
    longer, which changes neither the digest nor the written bytes."""

    def __init__(self, header: dict):
        self.header = header
        self.records: list = []
        self._hasher = hashlib.sha256(canonical(header).encode())
        self.pending: list[str] = []  # lines not yet hashed
        # "\n" + the lines joined by "\n", as hashed; `digest` may cut a chunk
        # short, so each is indexed by the position of its first event
        self._chunks: list[bytes] = []
        self._chunk_starts: list[int] = []
        # the view shares these lists, never the trace itself: a cycle between
        # the two would leave a finished trace to the cyclic collector
        self.events = TraceEvents(self.records, self._chunks, self._chunk_starts, self.pending)

    def append(self, record, line: str | None = None) -> None:
        """Record an event: a dict, whose `encode_record` line the caller may
        pass when it has rendered it already, or a compact packet record with
        its `packet_line`."""
        self.records.append(record)
        pending = self.pending
        pending.append(encode_record(record) if line is None else line)
        if len(pending) >= CHUNK_LINES:
            self.flush()

    def branch(self, header: dict) -> Trace:
        """These events under `header`, in lists of their own; the kept chunks
        are re-hashed after it, as a trace started with `header` hashes them."""
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
    included. Appended dicts are handed out as they are; a compact packet
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def read(path: str) -> Trace:
    """The trace written at `path`, its packet records in compact form."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line for line in (ln.strip() for ln in fh) if line)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(first)
        if header.get("type") != "HEADER" or header.get("format") != TRACE_FORMAT:
            raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
        trace = Trace(header)
        for line in lines:
            record = json.loads(line)
            compact = _compact(record)
            if compact is None:
                trace.append(record)
            else:
                trace.append(*compact)
    return trace


def _compact(record: dict) -> tuple | None:
    """(compact record, line) for a packet record of the simulator's shape,
    the form the simulator appends it in; None for any other record."""
    etype = record.get("type")
    if type(etype) is not str or etype not in PACKET_TYPES:
        return None
    fields = _packet_fields(record)
    if fields is None:
        return None
    step, src, dst, kind, mid, cause = fields
    code = PACKET_CODE.get((etype, kind, cause))
    if code is None or (mid is None) != (kind not in ("MSG", "MSGACK")):
        return None
    line = packet_line(etype, *fields)
    return (code if mid is None else (code, mid[0], mid[1], step)), line
