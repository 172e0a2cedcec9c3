"""Output checks the benchmark computes itself from a trace's records.

Events are read as plain JSON objects. Nothing here imports
`ssurb.checker` or `ssurb.node`, so a fault that the simulator and the
checker share still shows up here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def digest_of_records(header: dict, events: list[dict]) -> str:
    """SHA-256 over the canonical records joined by newlines."""
    hasher = hashlib.sha256(canonical(header).encode())
    for event in events:
        hasher.update(b"\n")
        hasher.update(canonical(event).encode())
    return hasher.hexdigest()


def digest_of_file(data: bytes) -> str:
    """SHA-256 over a written trace file's records: one record per line, so
    the records joined by newlines are the file minus its final newline."""
    return hashlib.sha256(data[:-1] if data.endswith(b"\n") else data).hexdigest()


def parse_trace_file(data: bytes) -> tuple[dict, list[dict]]:
    lines = data.decode("utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


@dataclass
class TraceFacts:
    """What one trace shows: delivery problems plus the counts the metrics use."""

    problems: list[str] = field(default_factory=list)
    end_reason: str | None = None
    events: int = 0
    sends: int = 0
    recvs: int = 0
    overflow_omits: int = 0
    snapshots: int = 0
    # "epoch:sender:seq" -> MSG+MSGACK sends of that identity from its BROADCAST on
    cost: dict[str, int] = field(default_factory=dict)


def examine(header: dict, events: list[dict], *, delivery_scope: str) -> TraceFacts:
    """Check deliveries and count events.

    delivery_scope "whole": every DELIVER is checked, and when the run ended
    `complete-delivery`, every never-crashed node must deliver every
    broadcast of every never-crashed broadcaster.
    delivery_scope "pre-corruption": the delivery checks stop at the first
    CORRUPT event. After a transient fault the protocol may deliver
    corrupted records until it stabilizes, and identities still held at
    stabilization may be delivered later without a BROADCAST; locating
    that point needs the consistency predicate, which is the checker's job.
    """
    facts = TraceFacts(events=len(events))
    epoch = 0
    checking = True
    broadcaster: dict[tuple[int, int, int], int] = {}
    delivered: set[tuple[int, int, int, int]] = set()
    crashed: set[int] = set()
    for event in events:
        etype = event["type"]
        if etype == "SEND":
            facts.sends += 1
            if event["kind"] in ("MSG", "MSGACK"):
                key = f"{epoch}:{event['mid'][0]}:{event['mid'][1]}"
                if key in facts.cost:
                    facts.cost[key] += 1
        elif etype == "RECV":
            facts.recvs += 1
        elif etype == "OMIT":
            facts.overflow_omits += event["cause"] == "overflow"
        elif etype == "SNAPSHOT":
            facts.snapshots += 1
        elif etype == "BROADCAST":
            sender, seq = event["mid"]
            broadcaster[(epoch, sender, seq)] = event["node"]
            facts.cost[f"{epoch}:{sender}:{seq}"] = 0
        elif etype == "DELIVER" and checking:
            sender, seq = event["mid"]
            where = f"node {event['node']} mid {event['mid']} step {event['step']}"
            key = (epoch, event["node"], sender, seq)
            if key in delivered:
                facts.problems.append(f"repeated DELIVER: {where}")
            delivered.add(key)
            if (epoch, sender, seq) not in broadcaster:
                facts.problems.append(f"DELIVER without BROADCAST: {where}")
        elif etype == "CRASH":
            crashed.add(event["node"])
        elif etype == "RESET":
            epoch += 1
        elif etype == "CORRUPT" and delivery_scope == "pre-corruption":
            checking = False
        elif etype == "END":
            facts.end_reason = event["reason"]
    if delivery_scope == "whole" and facts.end_reason == "complete-delivery":
        survivors = [i for i in range(1, header["n"] + 1) if i not in crashed]
        for (ep, sender, seq), node in sorted(broadcaster.items()):
            if node in crashed:
                continue
            for i in survivors:
                if (ep, i, sender, seq) not in delivered:
                    facts.problems.append(f"not delivered: node {i} mid [{sender}, {seq}]")
    return facts


def cost_problems(facts: TraceFacts, checker_cost: dict) -> list[str]:
    """Compare the benchmark's MSG+MSGACK counts with checker.message_cost's."""
    theirs = {
        key: entry["msg_sends"] + entry["ack_sends"] for key, entry in checker_cost.items()
    }
    if theirs != facts.cost:
        diff = sorted(k for k in set(theirs) | set(facts.cost) if theirs.get(k) != facts.cost.get(k))
        return [f"message cost differs from checker.message_cost at {diff[:3]}"]
    return []


def verdict_problems(reports: list[dict]) -> list[str]:
    return [
        f"checker {r['name']}: FAIL {r['witness']}" for r in reports if r["verdict"] == "FAIL"
    ]
