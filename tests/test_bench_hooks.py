"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps ssurb
functions under the names their callers look them up by. A rename or a
deletion of any of them breaks that run, so every name is checked here."""

import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "sim", "config", "checker", "trace", "node", "detectors", "wire", "corruption")


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import span_table

    m = types.SimpleNamespace(
        **{name: importlib.import_module(f"ssurb.{name}") for name in MODULES}
    )
    # Spans.install also counts the calls of trace.canonical
    targets = [(owner, attr) for owner, attr, _ in span_table(m)] + [(m.trace, "canonical")]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
