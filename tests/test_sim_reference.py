"""Differential test of the simulator against its 1e25b3a implementation.

`reference.sim_1e25b3a` is the simulator as it was before the hot path was
rewritten: a weighted action list drawn by `random.choices`, `randrange`
for the reorder pick, one routine per packet and a dict per trace record.
It runs the same node, detectors, wire, corruption and checker code, so
any difference in the trace digest or the metrics is a difference in the
simulator or the trace layer. Small configs are drawn over every fault the
config can plan: crashes with detection latency, every corruption kind,
omission, duplication and reordering, all three scheduler profiles,
capacities 1-4, bounded mode with its global resets, every stop mode and
interval snapshots. `run_scenarios` members, which branch off a shared
fault-free trunk, must equal the reference's standalone runs too.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from reference import sim_1e25b3a

from ssurb.config import CORRUPTION_KINDS, SCHEDULER_PROFILES, STOP_MODES, from_dict
from ssurb.sim import run_scenario, run_scenarios

@st.composite
def fault_plans(draw, raw: dict, kind: str | None = None, steps=None) -> dict:
    """Crashes of up to two nodes and up to two corruptions, `kind` among
    them when given, due at `steps`: by default before step 400 and before
    `max_steps`."""
    n, fifo = raw["n"], raw["fifo_enabled"]
    if steps is None:
        steps = st.integers(0, min(400, raw["max_steps"] - 1))
    kinds = st.sampled_from([k for k in CORRUPTION_KINDS if fifo or k != "NEXT-SKEW"])
    crashed = draw(st.lists(st.integers(1, n), unique=True, max_size=min(n, 2)))
    corruptions = draw(st.lists(
        st.fixed_dictionaries({"node": st.integers(1, n), "step": steps, "kind": kinds}),
        min_size=kind is not None,
        max_size=2,
    ))
    if kind is not None:
        corruptions[0]["kind"] = kind
    return {
        "crashes": [{"node": i, "step": draw(steps)} for i in crashed],
        "corruptions": corruptions,
    }


@st.composite
def scenarios(
    draw, fifo: bool | None = None, sizes=st.integers(1, 5), asap: int = 0, horizon: int = 3000
) -> dict:
    """A small config, its fault plan drawn apart (see `fault_plans`). With
    `asap` > 0 it has at least that many broadcasts, all due at once; its
    `max_steps` is at most `horizon`."""
    n = draw(sizes)
    b = draw(st.integers(1, 3))
    bounded = draw(st.booleans())
    return {
        "n": n,
        "buffer_unit_size": b,
        "channel_capacity": draw(st.integers(1, 4)),
        "fifo_enabled": draw(st.booleans()) if fifo is None else fifo,
        "bounded_mode": bounded,
        "maxint": draw(st.integers(b + 1, 4 * b + 4)) if bounded else 2**62,
        "seed": draw(st.integers(0, 2**32)),
        "max_steps": draw(st.one_of(st.sampled_from((500, horizon // 2, horizon)), st.integers(1, horizon))),
        "broadcasts": draw(st.lists(
            st.fixed_dictionaries({
                "node": st.integers(1, n),
                "step": st.one_of(st.just("asap"), st.integers(0, 400)) if asap == 0 else st.just("asap"),
                "payload": st.sampled_from(("a", "b", "c")),
            }),
            min_size=asap,
            max_size=6 if bounded else 4,
        )),
        "fault_plan": {
            "omission_prob": draw(st.sampled_from((0.0, 0.0, 0.1, 0.3))),
            "duplication_prob": draw(st.sampled_from((0.0, 0.0, 0.1, 0.3))),
            "reorder_prob": draw(st.sampled_from((0.0, 0.0, 0.5))),
            "detection_latency": draw(st.integers(0, 30)),
        },
        "scheduler_profile": draw(st.sampled_from(SCHEDULER_PROFILES)),
        "snapshot_interval": draw(st.sampled_from((0, 0, 7, 23))),
        "quiescence_window_cycles": draw(st.integers(1, 4)),
        "stop_mode": draw(st.sampled_from(STOP_MODES)),
    }


def _with_faults(raw: dict, faults: dict) -> dict:
    return dict(raw, fault_plan=dict(raw["fault_plan"], **faults))


# no shrinking: each shrink step runs both simulators for up to max_steps,
# so a failing example would shrink for minutes; it is reported as drawn
_UNSHRUNK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def _reference_metrics(cfg) -> dict:
    return sim_1e25b3a.run_scenario(cfg).metrics


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
@given(data=st.data())
@settings(
    max_examples=6, phases=_UNSHRUNK, suppress_health_check=[HealthCheck.too_slow]
)
def test_run_scenario_equals_the_reference(kind, data):
    raw = data.draw(scenarios(fifo=True if kind == "NEXT-SKEW" else None))
    cfg = from_dict(_with_faults(raw, data.draw(fault_plans(raw, kind))))
    assert run_scenario(cfg).metrics == _reference_metrics(cfg)


@given(st.data())
@settings(
    max_examples=30, phases=_UNSHRUNK, suppress_health_check=[HealthCheck.too_slow]
)
def test_run_scenarios_members_equal_the_reference(data):
    # the members' faults fall on a few nearby steps early in the run, so
    # members often branch at one step, or a few steps apart, while MSGs to
    # two or more peers await their acks
    raw = data.draw(scenarios(sizes=st.integers(3, 4), asap=2, horizon=1500))
    first = data.draw(st.integers(0, min(150, raw["max_steps"] - 1)))
    steps = st.sampled_from((first, first, first + 3, first + 17))
    plans = data.draw(st.lists(fault_plans(raw, steps=steps), min_size=2, max_size=3))
    cfgs = [from_dict(_with_faults(raw, plan)) for plan in plans]
    for index, result in run_scenarios(cfgs):
        assert result.metrics == _reference_metrics(cfgs[index]), plans[index]
