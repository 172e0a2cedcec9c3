"""Spans around the calls the benchmark makes into each ssurb layer.

Each public function is wrapped under the name its caller looks it up by:
`sim` and `cli` import functions by name, so `ssurb.sim.canonical` and
`ssurb.cli.run_scenario` are wrapped there, not only where they are
defined. A span's self time is its duration minus the time of the spans
it encloses. Spans are kept as per-name aggregates: a per-step record of
every call would hold millions of entries.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

ROOT = "bench.scenario"
# the checks check_all calls, each looked up in ssurb.checker
CHECKS = (
    "validity_check",
    "integrity_check",
    "termination_check",
    "quiescence_check",
    "consistency_closure_check",
    "buffer_bound_check",
    "stabilization_time",
    "fifo_check",
    "message_cost",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(m) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call site."""
    node, det = m.node.NodeState, m.detectors
    table = [
        (m.cli, "main", "cli.main"),
        (m.cli, "run_scenario", "sim.run_scenario"),
        (m.sim, "run_scenario", "sim.run_scenario"),
        (m.config, "load", "config.load"),
        (m.config, "apply_overrides", "config.apply_overrides"),
        (node, "do_forever_iteration", "node.iterate"),
        (node, "on_msg", "node.on_msg"),
        (node, "on_msg_ack", "node.on_msg_ack"),
        (node, "on_gossip", "node.on_gossip"),
        (node, "urb_broadcast", "node.urb_broadcast"),
        (det.HeartbeatState, "tick", "detectors.tick"),
        (det.HeartbeatState, "on_heartbeat", "detectors.on_heartbeat"),
        (det.ThetaState, "reconcile", "detectors.reconcile"),
        (m.sim, "encode", "wire.encode"),
        (m.sim, "message_id", "wire.message_id"),
        (m.trace.Trace, "append", "trace.append"),
        (m.trace.Trace, "write", "trace.write"),
        (m.sim, "canonical", "trace.snapshot_canonical"),
        (m.checker, "check_all", "checker.check_all"),
        (m.checker, "index_trace", "checker.index"),
        (m.sim, "snapshot_all_consistent", "checker.stop_predicate"),
        (m.corruption, "inject", "corruption.inject"),
    ]
    for check in CHECKS:
        table.append((m.checker, check, f"checker.{check}"))
    return table


class Spans:
    """Call counts, total and self time (ns) per span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._inner = [0]  # per open span: time of the spans it encloses
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        inner, calls, total, self_ns = self._inner, self.calls, self.total, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            inner.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                enclosed = inner.pop()
                inner[-1] += took
                calls[name] += 1
                total[name] += took
                self_ns[name] += took - enclosed

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, m) -> None:
        for owner, attr, name in span_table(m):
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        # trace.append and trace.write encode through this binding; counting
        # its calls shows how often each event is encoded
        self._patch(m.trace, "canonical", self._counted("trace.canonical", m.trace.canonical))

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self):
        """The span of one scenario as the benchmark calls it; its self time is
        what no wrapped layer accounts for."""
        self._inner.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            took = time.perf_counter_ns() - start
            enclosed = self._inner.pop()
            self.calls[ROOT] += 1
            self.total[ROOT] += took
            self.self_ns[ROOT] += took - enclosed

    def layer_self_s(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, ns in self.self_ns.items():
            out["remainder" if name == ROOT else layer_of(name)] += ns
        return {layer: ns / 1e9 for layer, ns in sorted(out.items())}

    def to_dict(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }
