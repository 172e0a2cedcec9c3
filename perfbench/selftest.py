#!/usr/bin/env python3
"""Show that the benchmark's own output checks reject doctored traces.

One small `ssurb run` is written, checked clean, then doctored three ways:
a repeated DELIVER, a DELIVER whose BROADCAST is gone, and one changed
byte in trace.jsonl. Each must be rejected by the check meant for it.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from workloads import check_written_run, schedule, write_json

SCENARIO = {"n": 3, "seed": 7, "max_steps": 10_000, "broadcasts": schedule(3, count=2)}


def _index(lines: list[bytes], marker: bytes) -> int:
    return next(i for i, line in enumerate(lines) if marker in line)


def _repeat_deliver(lines):
    i = _index(lines, b'"type":"DELIVER"')
    return lines[: i + 1] + lines[i : i + 1] + lines[i + 1 :]


def _drop_broadcast(lines):
    i = _index(lines, b'"type":"BROADCAST"')
    return lines[:i] + lines[i + 1 :]


def _change_byte(lines):
    i = _index(lines, b'"kind":"GOSSIP"')
    changed = lines[i].replace(b'"kind":"GOSSIP"', b'"kind":"GOSSIQ"', 1)
    return lines[:i] + [changed] + lines[i + 1 :]


DOCTORED = (
    ("repeated DELIVER", _repeat_deliver, "repeated DELIVER"),
    ("DELIVER without BROADCAST", _drop_broadcast, "DELIVER without BROADCAST"),
    ("one changed byte in trace.jsonl", _change_byte, "SHA-256 of trace.jsonl"),
)


def run_selftest(m, out: Path) -> list[str]:
    """Problems with the checks themselves; empty when every doctored trace
    was rejected and the clean one accepted."""
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "scenario.json", SCENARIO)
    with redirect_stdout(io.StringIO()):
        status = m.cli.main(["run", "--scenario", str(out / "scenario.json"), "--out", str(out)])
    trace_path = out / "trace.jsonl"
    clean = trace_path.read_bytes()
    *_, problems = check_written_run(out)
    failures = [f"clean run rejected: {problems}"] if status or problems else []
    lines = clean.splitlines(keepends=True)
    for name, doctor, expected in DOCTORED:
        trace_path.write_bytes(b"".join(doctor(lines)))
        *_, problems = check_written_run(out)
        if not any(p.startswith(expected) for p in problems):
            failures.append(f"{name} not rejected (found: {problems})")
    trace_path.write_bytes(clean)
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import run

    failures = run_selftest(run.import_ssurb(), run.OUT_DIR / "selftest")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test:", "FAIL" if failures else f"PASS ({len(DOCTORED)} doctored traces rejected)")
    sys.exit(1 if failures else 0)
