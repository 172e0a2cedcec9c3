"""Execution traces: append-only event records, snapshots, digests, file IO.

A trace is a header record followed by one JSON object per event, in
simulation order. Snapshots embed every node's full protocol state plus
channel contents in canonical field order, which is what the state-level
checkers consume. The digest is a SHA-256 over the canonical encoding of
all records and is the replay-equality witness. SEND/RECV/OMIT/DUP
records, nearly all of a trace, are rendered from fixed templates that
give the same bytes as `canonical`; every other record goes through
`canonical` itself.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii

TRACE_FORMAT = "ssurb-trace-v1"

# the closing `"type"` field of each packet record, the last key in sorted order
_PACKET_TAILS = {t: f',"type":"{t}"}}' for t in ("SEND", "RECV", "OMIT", "DUP")}


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: dict) -> str:
    """`canonical(record)`, from a template for the simulator's packet records."""
    etype = record.get("type")
    tail = _PACKET_TAILS.get(etype) if type(etype) is str else None
    if tail is not None:
        line = _packet_line(record, tail)
        if line is not None:
            return line
    return canonical(record)


def _packet_line(record: dict, tail: str) -> str | None:
    # keys type, step, src, dst, kind and optionally mid and cause; anything
    # else, or a value json would render differently from str(), is None
    get = record.get
    step, src, dst, kind = get("step"), get("src"), get("dst"), get("kind")
    mid, cause = get("mid"), get("cause")
    if (
        len(record) != 5 + (mid is not None) + (cause is not None)
        or type(step) is not int
        or type(src) is not int
        or type(dst) is not int
        or type(kind) is not str
    ):
        return None
    head = "{"
    if cause is not None:
        if type(cause) is not str:
            return None
        head = f'{{"cause":{encode_basestring_ascii(cause)},'
    body = f'"dst":{dst},"kind":{encode_basestring_ascii(kind)},'
    if mid is not None:
        if type(mid) is not list or len(mid) != 2:
            return None
        sender, seq = mid
        if type(sender) is not int or type(seq) is not int:
            return None
        body += f'"mid":[{sender},{seq}],'
    return f'{head}{body}"src":{src},"step":{step}{tail}'


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
        self._hasher = hashlib.sha256()
        self._hasher.update(canonical(header).encode())

    def append(self, event: dict) -> None:
        self.events.append(event)
        self._hasher.update(b"\n")
        self._hasher.update(encode_record(event).encode())

    def digest(self) -> str:
        return self._hasher.hexdigest()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical(self.header) + "\n")
            for event in self.events:
                fh.write(encode_record(event) + "\n")


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
