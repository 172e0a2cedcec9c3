"""Transient-fault injection: arbitrary-but-type-correct state corruption.

Each kind mutates one node's protocol state (or the channels feeding it)
in a way the repair loop must recover from: poisoned buffers, regressed
or skewed counters, runaway delivery cursors, stale in-flight packets.
Magnitudes scale with the flow-control window so heavier windows imply
proportionally heavier damage. All draws go through the simulation's
seeded generator.
"""

from __future__ import annotations

import random

from .node import BufferRecord, NodeState
from .wire import Gossip, Heartbeat, Msg, MsgAck


def _garble_payload(rng: random.Random) -> str:
    return f"garble-{rng.randrange(1_000_000)}"


def _random_record(ns: NodeState, rng: random.Random, horizon: int) -> BufferRecord:
    sender = rng.randint(1, ns.n)
    payload = None if rng.random() < 0.1 else _garble_payload(rng)
    rec_by = {k for k in range(1, ns.n + 1) if rng.random() < 0.5}
    rec_by.add(sender)
    prev_hb = [-1] * (ns.n + 1)
    for k in range(1, ns.n + 1):
        prev_hb[k] = rng.randrange(-1, horizon + 2)
    return BufferRecord(
        payload=payload,
        sender=sender,
        seq=rng.randrange(0, horizon),
        delivered=rng.random() < 0.5,
        rec_by=rec_by,
        prev_hb=prev_hb,
    )


def _randomize_all(ns: NodeState, rng: random.Random) -> None:
    b = ns.buffer_unit_size
    horizon = ns.seq + 2 * b + 3
    ns.seq = rng.randrange(0, horizon)
    for k in range(1, ns.n + 1):
        ns.rx_obs[k] = rng.randrange(0, horizon)
        ns.tx_obs[k] = rng.randrange(0, horizon)
        if ns.fifo:
            ns.next_deliver[k] = rng.randrange(1, horizon + 2)
    count = rng.randrange(0, b * ns.n + 1)
    ns.buffer = [_random_record(ns, rng, horizon) for _ in range(count)]


def _duplicate_record(ns: NodeState, rng: random.Random) -> None:
    if ns.buffer:
        victim = rng.choice(ns.buffer)
        clone = BufferRecord(
            payload=_garble_payload(rng),
            sender=victim.sender,
            seq=victim.seq,
            delivered=victim.delivered,
            rec_by=set(victim.rec_by),
            prev_hb=list(victim.prev_hb),
        )
        ns.buffer.append(clone)
    else:
        horizon = ns.seq + 2 * ns.buffer_unit_size + 3
        twin = _random_record(ns, rng, horizon)
        twin.payload = _garble_payload(rng)
        copy = BufferRecord(
            payload=_garble_payload(rng),
            sender=twin.sender,
            seq=twin.seq,
            delivered=False,
            rec_by=set(twin.rec_by),
            prev_hb=list(twin.prev_hb),
        )
        ns.buffer.extend([twin, copy])


def _null_payload(ns: NodeState, rng: random.Random) -> None:
    if ns.buffer:
        rng.choice(ns.buffer).payload = None
    else:
        horizon = ns.seq + 2 * ns.buffer_unit_size + 3
        poisoned = _random_record(ns, rng, horizon)
        poisoned.payload = None
        ns.buffer.append(poisoned)


def _seq_regression(ns: NodeState, rng: random.Random) -> None:
    own = [r.seq for r in ns.buffer if r.sender == ns.self_id]
    ceiling = min(own) if own else ns.seq
    ns.seq = rng.randrange(0, max(1, ceiling))


def _window_skew(ns: NodeState, rng: random.Random) -> None:
    b = ns.buffer_unit_size
    for k in range(1, ns.n + 1):
        ns.rx_obs[k] = max(0, ns.rx_obs[k] + rng.randint(-2 * b, 2 * b))
        ns.tx_obs[k] = max(0, ns.tx_obs[k] + rng.randint(-2 * b, 2 * b))


def _next_skew(ns: NodeState, rng: random.Random) -> None:
    b = ns.buffer_unit_size
    k = rng.randint(1, ns.n)
    ns.next_deliver[k] += rng.randint(b, 4 * b)


def _channel_garbage(ns: NodeState, rng: random.Random, in_channels: list, step: int) -> None:
    horizon = ns.seq + 2 * ns.buffer_unit_size + 3
    for channel in in_channels:
        for _ in range(rng.randint(1, 2)):
            pick = rng.randrange(4)
            j = rng.randint(1, ns.n)
            s = rng.randrange(0, horizon)
            if pick == 0:
                packet = Msg(f"stale-{rng.randrange(1_000_000)}", j, s)
            elif pick == 1:
                packet = MsgAck(j, s)
            elif pick == 2:
                packet = Gossip(
                    rng.randrange(0, horizon),
                    rng.randrange(0, horizon),
                    rng.randrange(0, horizon),
                )
            else:
                packet = Heartbeat(rng.randrange(0, horizon + 10), rng.randrange(0, horizon + 10))
            if len(channel.packets) < channel.capacity:  # a full channel takes none
                channel.packets.append((packet, step))


def inject(kind: str, ns: NodeState, in_channels: list, rng: random.Random, step: int) -> None:
    """Apply one corruption kind to a live node. `in_channels` are the channels
    whose destination is the node, ordered by source id."""
    if kind == "RANDOMIZE-ALL":
        _randomize_all(ns, rng)
    elif kind == "DUPLICATE-RECORD":
        _duplicate_record(ns, rng)
    elif kind == "NULL-PAYLOAD":
        _null_payload(ns, rng)
    elif kind == "SEQ-REGRESSION":
        _seq_regression(ns, rng)
    elif kind == "WINDOW-SKEW":
        _window_skew(ns, rng)
    elif kind == "NEXT-SKEW":
        _next_skew(ns, rng)
    elif kind == "CHANNEL-GARBAGE":
        _channel_garbage(ns, rng, in_channels, step)
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")
