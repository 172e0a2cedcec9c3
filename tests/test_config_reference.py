"""Differential test of the scenario reader against its ba1163b implementation.

`reference.config_ba1163b` reads a scenario with a hand-written `to_dict`,
a set of the root's field names and one `_require` call per field. Valid
scenarios are drawn over every field at every level, each field present or
left to its default, and each is read as it is and with one fault: a value
replaced by another JSON value (a wrong type, an out-of-range number, an
unknown name, an empty object), a field deleted, or an unknown key added
at some level. Whatever the reference accepts must give an equal
`to_dict()`, byte for byte, and `config_hash()`; whatever it refuses must
be refused with the same error. The only exceptions are the two refusals
the reference lacks: an unknown key below the root, and a `crashes` or
`corruptions` that is not a list.

A replacement value holds no object with keys, so each case has one fault:
where an object has several, the two readers may name different ones (the
reader names the first bad key in the document's order, then the first
missing field; the reference named them in its own parse order).
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import config_ba1163b as reference

from ssurb.config import CORRUPTION_KINDS, SCHEDULER_PROFILES, STOP_MODES, ConfigError, from_dict

NAMES = ("asap", "x", "", *CORRUPTION_KINDS[:2], *SCHEDULER_PROFILES[:2], *STOP_MODES[:2])

# a JSON value with no object holding a key, weighted towards the edges of the ranges
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.integers(-(2**70), 2**70),
    st.sampled_from((0.0, 0.5, 0.999, 1.0, -0.1, 2.0)),
    st.floats(allow_nan=False),
    st.sampled_from(NAMES),
)
json_values = st.one_of(scalars, st.lists(scalars, max_size=2), st.just({}))


def _optional(draw, fields: dict) -> dict:
    """`fields` with each one kept or left out."""
    return {key: value for key, value in fields.items() if draw(st.booleans())}


@st.composite
def scenarios(draw) -> dict:
    """A scenario the reference accepts, each field present or defaulted."""
    n = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    fifo = draw(st.booleans())
    kinds = [k for k in CORRUPTION_KINDS if fifo or k != "NEXT-SKEW"]
    crashed = draw(st.lists(st.integers(1, n), unique=True, max_size=2))
    plan = _optional(draw, {
        "omission_prob": draw(st.sampled_from((0, 0.0, 0.2, 0.999))),
        "duplication_prob": draw(st.sampled_from((0, 0.1))),
        "reorder_prob": draw(st.sampled_from((0.0, 0.5))),
        "crashes": [{"node": node, "step": draw(st.integers(0, 50))} for node in crashed],
        "corruptions": draw(st.lists(st.fixed_dictionaries({
            "node": st.integers(1, n), "step": st.integers(0, 50), "kind": st.sampled_from(kinds),
        }), max_size=2)),
        "detection_latency": draw(st.integers(0, 5)),
    })
    broadcasts = [
        _optional(draw, {"step": draw(st.one_of(st.just("asap"), st.integers(0, 50)))})
        | {"node": draw(st.integers(1, n)), "payload": draw(st.sampled_from(("a", "")))}
        for _ in range(draw(st.integers(0, 2)))
    ]
    return {"n": n} | _optional(draw, {
        "buffer_unit_size": b,
        "channel_capacity": draw(st.integers(1, 3)),
        "fifo_enabled": fifo,
        "bounded_mode": draw(st.booleans()),
        "maxint": draw(st.sampled_from((5, 2**62))),  # above every buffer_unit_size, 4 by default
        "seed": draw(st.sampled_from((0, 7, 2**64 - 1))),
        "max_steps": draw(st.integers(1, 10_000)),
        "broadcasts": broadcasts,
        "fault_plan": plan,
        "scheduler_profile": draw(st.sampled_from(SCHEDULER_PROFILES)),
        "snapshot_interval": draw(st.integers(0, 3)),
        "quiescence_window_cycles": draw(st.integers(1, 5)),
        "stop_mode": draw(st.sampled_from(STOP_MODES)),
    }) | ({"fifo_enabled": True} if fifo else {})


def _slots(doc, path: str = ""):
    """(container, key, path) for every value below `doc`, in document order."""
    if isinstance(doc, dict):
        keys = [(key, f"{path}.{key}" if path else key) for key in doc]
    else:
        keys = [(idx, f"{path}[{idx}]") for idx in range(len(doc))]
    for key, here in keys:
        yield doc, key, here
        if isinstance(doc[key], (dict, list)):
            yield from _slots(doc[key], here)


def _objects(doc, path: str = ""):
    """(object, path) for the root and every object below it."""
    yield doc, path
    for container, key, here in _slots(doc, path):
        if isinstance(container[key], dict):
            yield container[key], here


@st.composite
def mutants(draw) -> tuple[object, str | None]:
    """A valid scenario, unchanged or with one fault, and the path of an
    unknown key it added below the root, if any."""
    raw = draw(scenarios())
    reference.from_dict(json.loads(json.dumps(raw)))  # valid before its fault
    mutation = draw(st.sampled_from(("none", "value", "value", "delete", "unknown", "root")))
    slots = list(_slots(raw))
    if mutation == "value":
        container, key, _ = draw(st.sampled_from(slots))
        container[key] = draw(json_values)
    elif mutation == "delete":
        dict_slots = [(c, k) for c, k, _ in slots if isinstance(c, dict)]
        container, key = draw(st.sampled_from(dict_slots))
        del container[key]
    elif mutation == "unknown":
        target, path = draw(st.sampled_from(list(_objects(raw))))
        key = draw(st.sampled_from(("stp", "when", "omision_prob", "bufferUnitSize")))
        target[key] = draw(json_values)
        return raw, f"{path}.{key}" if path else None
    elif mutation == "root":
        return draw(json_values.filter(lambda v: not isinstance(v, dict))), None
    return raw, None


def _outcome(read, raw):
    """`read(raw)`'s to_dict as JSON text and its hash, or its error."""
    try:
        cfg = read(json.loads(json.dumps(raw)))  # each reader gets a copy of its own
    except Exception as exc:  # noqa: BLE001 -- every outcome is compared
        return "refused", type(exc).__name__, str(exc)
    return "read", json.dumps(cfg.to_dict()), cfg.config_hash()


def _not_a_list(raw, error: str) -> bool:
    """Whether `error` refuses a `crashes` or `corruptions` of `raw` that is not a list."""
    plan = raw.get("fault_plan") if isinstance(raw, dict) else None
    return isinstance(plan, dict) and any(
        error.startswith(f"fault_plan.{key}: expected list, got ")
        for key in ("crashes", "corruptions")
        if not isinstance(plan.get(key, []), list)
    )


@given(mutants())
@settings(max_examples=600)
def test_reader_agrees_with_the_reference(case):
    raw, unknown = case
    mine, theirs = _outcome(from_dict, raw), _outcome(reference.from_dict, raw)
    if unknown is not None:
        assert mine == ("refused", "ConfigError", f"{unknown}: unknown field")
    elif mine[:2] == ("refused", "ConfigError") and _not_a_list(raw, mine[2]):
        pass  # which the reference ran as an empty list, or refused otherwise
    else:
        assert mine == theirs


UNKNOWN_AT_EACH_LEVEL = [
    ({"n": 3, "bufferUnitSize": 4}, "bufferUnitSize"),
    ({"n": 3, "fault_plan": {"omision_prob": 0.2}}, "fault_plan.omision_prob"),
    ({"n": 3, "broadcasts": [{"node": 1, "payload": "x", "stp": 5}]}, "broadcasts[0].stp"),
    ({"n": 3, "fault_plan": {"crashes": [{"node": 1, "step": 2, "when": 3}]}}, "fault_plan.crashes[0].when"),
    (
        {"n": 3, "fault_plan": {"corruptions": [{"node": 1, "step": 2, "kind": "NULL-PAYLOAD", "knd": 1}]}},
        "fault_plan.corruptions[0].knd",
    ),
]


@pytest.mark.parametrize("raw, path", UNKNOWN_AT_EACH_LEVEL, ids=[path for _, path in UNKNOWN_AT_EACH_LEVEL])
def test_unknown_key_is_refused_at_every_level(raw, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown field$"):
        from_dict(raw)
    if "." in path:  # below the root, the ba1163b reader accepted it
        reference.from_dict(raw)


@pytest.mark.parametrize("key", ["crashes", "corruptions"])
def test_fault_list_that_is_not_a_list_is_refused(key):
    raw = {"n": 3, "fault_plan": {key: ""}}
    reference.from_dict(raw)  # which the ba1163b reader ran as an empty list
    with pytest.raises(ConfigError, match=f"^fault_plan.{key}: expected list, got ''$"):
        from_dict(raw)


def test_motivating_scenario_is_refused_naming_a_field():
    raw = {"n": 3, "fault_plan": {"omision_prob": 0.2, "crashes": ""},
           "broadcasts": [{"node": 1, "payload": "x", "stp": 5}]}
    assert reference.from_dict(raw).fault_plan == reference.FaultPlan()  # the ba1163b reader ran it fault-free
    with pytest.raises(ConfigError, match=r"^fault_plan\.omision_prob: unknown field$"):
        from_dict(raw)


@pytest.mark.parametrize("entry, error", [
    ({"step": None}, "fault_plan.crashes[0].step: expected integer, got None"),
    ({"step": 1, "nod": 2}, "fault_plan.crashes[0].nod: unknown field"),
    ({}, "fault_plan.crashes[0].node: missing required field"),
    ({"step": -1}, "fault_plan.crashes[0].node: missing required field"),
])
def test_several_faults_in_one_object_name_the_first_bad_key_then_a_missing_field(entry, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        from_dict({"n": 3, "fault_plan": {"crashes": [entry]}})
