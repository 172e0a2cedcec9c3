from ssurb.detectors import HeartbeatState, ThetaState
from ssurb.wire import Heartbeat


def test_tick_increments_and_emits():
    hb = HeartbeatState(1, 2)
    out = hb.tick()
    assert hb.hb[1] == 1
    assert hb.peers == [2]
    assert out == [Heartbeat(sender_count=1, dst_count=0)]


def test_tick_from_corrupted_negative_counter():
    hb = HeartbeatState(1, 2)
    hb.hb[1] = -5
    out = hb.tick()
    assert hb.hb[1] == -4
    assert len(out) == 1


def test_tick_single_node_emits_nothing():
    hb = HeartbeatState(1, 1)
    assert hb.tick() == []
    assert hb.hb[1] == 1


def test_on_heartbeat_max_folds_sender_entry():
    hb = HeartbeatState(1, 3)
    hb.hb[2] = 3
    hb.on_heartbeat(7, 0, 2)
    assert hb.hb[2] == 7


def test_on_heartbeat_echo_repairs_own_entry():
    hb = HeartbeatState(1, 3)
    hb.hb[1] = 2
    hb.on_heartbeat(1, 9, 2)
    assert hb.hb[1] == 9


def test_on_heartbeat_smaller_values_ignored():
    hb = HeartbeatState(1, 3)
    hb.hb[1], hb.hb[2] = 5, 5
    hb.on_heartbeat(2, 2, 2)
    assert hb.hb[1] == 5 and hb.hb[2] == 5


def test_trusted_view_fresh():
    theta = ThetaState(1, 3)
    assert theta.trusted_view() == frozenset({1, 2, 3})


def test_reconcile_removes_false_suspicion():
    theta = ThetaState(2, 3)
    theta.suspected = {1}  # corrupted: node 1 is alive
    theta.reconcile(set())
    assert theta.trusted_view() == frozenset({1, 2, 3})


def test_reconcile_adds_missed_crash():
    theta = ThetaState(2, 3)
    theta.reconcile({3})
    assert theta.suspected == {3}
    theta.reconcile({3})
    assert theta.suspected == {3}


def test_copies_run_no_constructor(monkeypatch):
    hb, theta = HeartbeatState(2, 3), ThetaState(2, 3)
    hb.tick()
    theta.reconcile({3})
    theta.trusted_view()

    def refuse(*args, **kwargs):
        raise AssertionError("copy ran a constructor")

    for cls in (HeartbeatState, ThetaState):
        monkeypatch.setattr(cls, "__init__", refuse)
    hb_twin, theta_twin = hb.copy(), theta.copy()
    assert vars(hb_twin) == vars(hb) and hb_twin.hb is not hb.hb
    assert vars(theta_twin) == vars(theta) and theta_twin.suspected is not theta.suspected
    theta_twin.reconcile(set())
    assert theta_twin.trusted_view() == frozenset({1, 2, 3}) and theta.trusted_view() == frozenset({1, 2})
