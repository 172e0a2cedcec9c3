"""Committed runs of the defects that CHANGES.md names FOUND and no other
test holds. Each run states what the paper's guarantees require of it; the
runs that do not meet that today are strict xfails naming their ROADMAP
item, so the fix has to remove the mark."""

import pytest

from ssurb import checker
from ssurb.config import from_dict
from ssurb.sim import run_scenario

ITEM_1 = "ROADMAP item 1: the stop rule and the checks disagree on what is settled"
ITEM_2 = (
    "ROADMAP item 2, fair channels: at capacity 1 a full channel refuses the newest "
    "packet and HEARTBEAT goes first, so the run livelocks with 0 cycles"
)


def reports(raw):
    result = run_scenario(from_dict(raw))
    return result, {r.name: r for r in checker.check_all(result.trace.header, result.trace.events)}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize(
    "capacity", [pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=ITEM_2)), 2, 3]
)
def test_every_capacity_reaches_complete_delivery(capacity, n):
    result = run_scenario(
        from_dict(
            {
                "n": n,
                "channel_capacity": capacity,
                "seed": 0,
                "max_steps": 20_000,
                "broadcasts": [{"node": 1, "payload": "m0"}],
            }
        )
    )
    assert result.metrics["status"] == "complete-delivery", (result.metrics["cycles"], result.metrics["sends"])


@pytest.mark.xfail(strict=True, reason=ITEM_1 + "; the quiescence window closes before node 2 stops retransmitting")
def test_quiescence_after_a_crash():
    # criterion 2's shape at n=3; today quiescence FAILs on MSG (2,2) at step 476
    _, by_name = reports(
        {
            "n": 3,
            "buffer_unit_size": 4,
            "seed": 1286096905,
            "max_steps": 20_000,
            "fifo_enabled": True,
            "scheduler_profile": "reorder-heavy",
            "broadcasts": [
                {"node": 1, "payload": "m0"},
                {"node": 2, "payload": "m1"},
                {"node": 3, "payload": "m2", "step": 120},
                {"node": 1, "payload": "m3", "step": 180},
                {"node": 2, "payload": "m4", "step": 240},
            ],
            "fault_plan": {
                "omission_prob": 0.2,
                "duplication_prob": 0.1,
                "crashes": [{"node": 3, "step": 250}],
                "detection_latency": 30,
            },
        }
    )
    assert by_name["quiescence"].verdict == "PASS", by_name["quiescence"].witness


@pytest.mark.parametrize("seed", [2, 5, 37])
@pytest.mark.xfail(strict=True, reason=ITEM_1 + "; a global reset hides an undelivered broadcast")
def test_bounded_mode_termination_after_a_corruption(seed):
    # today node 2 misses (1,3), (1,4) and (1,3) at seeds 2, 5 and 37
    result, by_name = reports(
        {
            "n": 3,
            "buffer_unit_size": 2,
            "bounded_mode": True,
            "maxint": 12,
            "seed": seed,
            "max_steps": 40_000,
            "broadcasts": [{"node": 1, "payload": f"p{k}"} for k in range(16)],
            "fault_plan": {"corruptions": [{"node": 2, "step": 100, "kind": "RANDOMIZE-ALL"}]},
        }
    )
    assert result.metrics["status"] == "complete-delivery"
    assert by_name["termination"].verdict == "PASS", by_name["termination"].witness


@pytest.mark.xfail(strict=True, reason=ITEM_1 + "; the run stops while node 2 still owes a retransmission")
def test_fault_free_quiescence_under_starve_one_node():
    # today the run ends complete-delivery at step 1029 and quiescence FAILs
    # on MSG (2,2) at step 557: node 2's tx_obs[1] is still 1, so step (f)
    # resends (2,2) to the starved node 1 after the stop rule held
    result, by_name = reports(
        {
            "n": 3,
            "buffer_unit_size": 4,
            "channel_capacity": 7,
            "fifo_enabled": True,
            "scheduler_profile": "starve-one-node",
            "seed": 35213,
            "max_steps": 20_000,
            "broadcasts": [
                {"node": 2, "payload": "m0", "step": 237},
                {"node": 2, "payload": "m1", "step": 104},
                {"node": 1, "payload": "m2", "step": 146},
            ],
        }
    )
    assert result.metrics["status"] == "complete-delivery"
    assert by_name["quiescence"].verdict == "PASS", by_name["quiescence"].witness


@pytest.mark.xfail(strict=True, reason=ITEM_1 + "; a corruption inside the stop countdown does not restart it")
def test_corruption_inside_the_stop_countdown():
    # today the run ends complete-delivery at step 369, 18 steps after the
    # corruption, and stabilization-time FAILs watermark-dominance at node 1,
    # step 368
    _, by_name = reports(
        {
            "n": 2,
            "buffer_unit_size": 3,
            "channel_capacity": 6,
            "fifo_enabled": True,
            "scheduler_profile": "reorder-heavy",
            "seed": 939759,
            "max_steps": 20_000,
            "broadcasts": [{"node": 2, "payload": "m0", "step": 171}],
            "fault_plan": {
                "omission_prob": 0.3,
                "corruptions": [{"node": 1, "step": 351, "kind": "RANDOMIZE-ALL"}],
            },
        }
    )
    assert by_name["stabilization-time"].verdict == "PASS", by_name["stabilization-time"].witness
