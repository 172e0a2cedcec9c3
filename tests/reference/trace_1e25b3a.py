"""The trace layer as it was at commit 1e25b3a, for `reference.sim_1e25b3a`.

`src/ssurb/trace.py` at 1e25b3a, copied verbatim: a list of event dicts,
each hashed as its `json.dumps` line, with no compact records, line
templates or chunks. Nothing under `src/` imports it.

Original docstring:

Execution traces: append-only event records, snapshots, digests, file IO.

A trace is a header record followed by one JSON object per event, in
simulation order. Snapshots embed every node's full protocol state plus
channel contents in canonical field order, which is what the state-level
checkers consume. The digest is a SHA-256 over the canonical encoding of
all records and is the replay-equality witness.
"""

from __future__ import annotations

import hashlib
import json

TRACE_FORMAT = "ssurb-trace-v1"


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


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
        self._hasher.update(canonical(event).encode())

    def digest(self) -> str:
        return self._hasher.hexdigest()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical(self.header) + "\n")
            for event in self.events:
                fh.write(canonical(event) + "\n")


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
