"""Execution traces: append-only event records, snapshots, digests, file IO.

A trace is a header record followed by one JSON object per event, in
simulation order. Snapshots embed every node's full protocol state plus
channel contents in canonical field order, which is what the state-level
checkers consume. The digest is a SHA-256 over the canonical encoding of
all records joined by newlines and is the replay-equality witness.

SEND/RECV/OMIT/DUP records, nearly all of a trace, have one line format,
`packet_line`, which gives the same bytes as `canonical`. The simulator
renders each packet line from its typed fields and hands it to
`Trace.append` with the record; `encode_record` validates any other dict
that claims a packet type and renders it through the same template, and
every other record goes through `canonical` itself. A SNAPSHOT's line,
`snapshot_line`, is assembled from the `canonical` strings of its two
halves. `Trace` keeps the lines not yet hashed and feeds SHA-256 one chunk
at a time; SHA-256 is a streaming hash, so the digest is the one a
line-by-line update gives. It also notes, one byte per event, which
records came with their line. `write` renders those packet records from
their fields without validating them again. A line appended with `keep`,
as the simulator appends each SNAPSHOT's, is held and written as it was
hashed, since a snapshot costs far more to encode again than a packet
record does.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii

TRACE_FORMAT = "ssurb-trace-v1"

PACKET_TYPES = frozenset(("SEND", "RECV", "OMIT", "DUP"))
_CHUNK_LINES = 256  # lines hashed per SHA-256 update; few, to keep memory flat
_WRITE_CHUNK = 1024  # lines per file write
_ENCODE, _FIELDS, _KEPT = 0, 1, 2  # how `Trace.write` gets each event's line


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical(record) -> str:
    """`json.dumps(record, sort_keys=True, separators=(",", ":"))`."""
    return _CANONICAL.encode(record)


def packet_line(
    etype: str,
    step: int,
    src: int,
    dst: int,
    kind: str,
    mid: list[int] | None = None,
    cause: str | None = None,
) -> str:
    """`canonical` of the packet record with these fields: the keys cause,
    dst, kind, mid, src, step and type, in that (sorted) order, the absent
    optional ones left out. `etype` is one of PACKET_TYPES, `mid` a
    (sender, seq) pair of ints."""
    cause_field = "" if cause is None else f'"cause":{encode_basestring_ascii(cause)},'
    mid_field = "" if mid is None else f'"mid":[{mid[0]},{mid[1]}],'
    return (
        f'{{{cause_field}"dst":{dst},"kind":{encode_basestring_ascii(kind)},{mid_field}'
        f'"src":{src},"step":{step},"type":"{etype}"}}'
    )


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
    """Header plus ordered events, with an incrementally maintained digest."""

    def __init__(self, header: dict):
        self.header = header
        self.events: list[dict] = []
        self._hasher = hashlib.sha256(canonical(header).encode())
        self._pending: list[str] = []  # encoded events not yet hashed
        # per event: _ENCODE when `write` must encode the record, _FIELDS when
        # the caller rendered its line and `write` renders a packet record
        # again from its fields unchecked, _KEPT when `write` writes the kept
        # line
        self._rendered = bytearray()
        self._kept: list[str] = []

    def append(self, event: dict, line: str | None = None, keep: bool = False) -> None:
        """Record `event`; `line` is its `encode_record` line when the caller
        has rendered it already, and with `keep` the trace holds that line
        for `write`."""
        self.events.append(event)
        if line is None:
            line = encode_record(event)
            self._rendered.append(_ENCODE)
        elif keep:
            self._kept.append(line)
            self._rendered.append(_KEPT)
        else:
            self._rendered.append(_FIELDS)
        pending = self._pending
        pending.append(line)
        if len(pending) >= _CHUNK_LINES:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._hasher.update(("\n" + "\n".join(self._pending)).encode())
            self._pending.clear()

    def digest(self) -> str:
        self._flush()
        return self._hasher.hexdigest()

    def write(self, path: str) -> None:
        """The header and one line per event, each as `encode_record` gives it.
        Kept lines are written as they were hashed, packet records the
        simulator rendered go straight through `packet_line`, and other
        records the caller rendered through `canonical`."""
        events, rendered = self.events, self._rendered
        kept = iter(self._kept)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical(self.header))
            for start in range(0, len(events), _WRITE_CHUNK):
                stop = start + _WRITE_CHUNK
                lines = []
                for event, how in zip(events[start:stop], rendered[start:stop]):
                    if how == _ENCODE:
                        lines.append(encode_record(event))
                        continue
                    if how == _KEPT:
                        lines.append(next(kept))
                        continue
                    etype = event["type"]
                    if etype in PACKET_TYPES:
                        lines.append(
                            packet_line(
                                etype,
                                event["step"],
                                event["src"],
                                event["dst"],
                                event["kind"],
                                event.get("mid"),
                                event.get("cause"),
                            )
                        )
                    else:
                        lines.append(canonical(event))
                fh.write("\n" + "\n".join(lines))
            fh.write("\n")


def read(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in (ln.strip() for ln in fh) if line]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("type") != "HEADER" or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    trace = Trace(header)
    for line in lines[1:]:
        trace.append(json.loads(line))
    return trace
