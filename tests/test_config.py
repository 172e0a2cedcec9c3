import pytest

from ssurb.config import ASAP, ConfigError, apply_overrides, from_dict


def minimal(**kw):
    raw = {"n": 3}
    raw.update(kw)
    return raw


def test_defaults():
    cfg = from_dict(minimal())
    assert cfg.buffer_unit_size == 4
    assert cfg.channel_capacity == 16
    assert not cfg.fifo_enabled
    assert cfg.stop_mode == "complete-delivery"
    assert cfg.broadcasts == []


def test_broadcast_defaults_to_asap():
    cfg = from_dict(minimal(broadcasts=[{"node": 1, "payload": "x"}]))
    assert cfg.broadcasts[0].step == ASAP


def test_rejects_certain_omission():
    with pytest.raises(ConfigError) as err:
        from_dict(minimal(fault_plan={"omission_prob": 1.0}))
    assert "fault_plan.omission_prob" in str(err.value)


def test_rejects_unknown_field():
    with pytest.raises(ConfigError) as err:
        from_dict(minimal(bufferUnitSize=4))
    assert "bufferUnitSize" in str(err.value)


def test_rejects_out_of_range_node():
    with pytest.raises(ConfigError) as err:
        from_dict(minimal(broadcasts=[{"node": 9, "payload": "x"}]))
    assert "broadcasts[0].node" in str(err.value)


def test_rejects_unknown_corruption_kind():
    with pytest.raises(ConfigError) as err:
        from_dict(minimal(fault_plan={"corruptions": [{"node": 1, "step": 0, "kind": "GREMLIN"}]}))
    assert "corruptions[0].kind" in str(err.value)


def test_next_skew_requires_fifo():
    plan = {"corruptions": [{"node": 1, "step": 0, "kind": "NEXT-SKEW"}]}
    with pytest.raises(ConfigError):
        from_dict(minimal(fault_plan=plan))
    cfg = from_dict(minimal(fifo_enabled=True, fault_plan=plan))
    assert cfg.fault_plan.corruptions == [(1, 0, "NEXT-SKEW")]


def test_rejects_maxint_inside_window():
    with pytest.raises(ConfigError) as err:
        from_dict(minimal(buffer_unit_size=8, maxint=8))
    assert "maxint" in str(err.value)


def test_rejects_double_crash():
    plan = {"crashes": [{"node": 2, "step": 1}, {"node": 2, "step": 5}]}
    with pytest.raises(ConfigError):
        from_dict(minimal(fault_plan=plan))


def test_overrides_dotted_paths():
    cfg = from_dict(minimal())
    cfg2 = apply_overrides(cfg, {"fault_plan.omission_prob": 0.3, "seed": 9})
    assert cfg2.fault_plan.omission_prob == 0.3
    assert cfg2.seed == 9
    assert cfg.seed == 0  # original untouched


def test_overrides_with_list_values_stay_independent():
    base = from_dict(minimal(fault_plan={"corruptions": [{"node": 1, "step": 5, "kind": "RANDOMIZE-ALL"}]}))
    before = base.to_dict()
    skew = [{"node": 2, "step": 9, "kind": "WINDOW-SKEW"}]
    a = apply_overrides(base, {"fault_plan.corruptions": skew, "seed": 1})
    b = apply_overrides(base, {"fault_plan.corruptions": [], "broadcasts": [{"node": 3, "payload": "x"}]})
    skew.append({"node": 3, "step": 11, "kind": "NULL-PAYLOAD"})  # the caller's list, edited later
    assert a.fault_plan.corruptions == [(2, 9, "WINDOW-SKEW")]
    assert a.broadcasts == base.broadcasts == []
    assert b.fault_plan.corruptions == [] and [e.payload for e in b.broadcasts] == ["x"]
    assert base.to_dict() == before


def test_override_unknown_path_rejected():
    cfg = from_dict(minimal())
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"fault_plan.gremlins": 1})


def test_config_hash_stable_and_sensitive():
    a = from_dict(minimal(seed=1))
    b = from_dict(minimal(seed=1))
    c = from_dict(minimal(seed=2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_roundtrip_through_dict():
    cfg = from_dict(
        minimal(
            fifo_enabled=True,
            broadcasts=[{"node": 1, "payload": "x"}, {"node": 2, "step": 7, "payload": "y"}],
            fault_plan={
                "omission_prob": 0.1,
                "crashes": [{"node": 3, "step": 11}],
                "corruptions": [{"node": 2, "step": 5, "kind": "WINDOW-SKEW"}],
                "detection_latency": 4,
            },
        )
    )
    again = from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.config_hash() == cfg.config_hash()
