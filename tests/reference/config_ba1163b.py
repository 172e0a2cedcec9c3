"""The scenario reader as it was at commit ba1163b, a differential oracle.

A test-only reference for the differential reader test
(`tests/test_config_reference.py`): `src/ssurb/config.py` at ba1163b,
copied verbatim below this docstring, with the hand-written `to_dict`, the
`known` set of root fields, one `_require` call per field with its default
and one parse loop each for broadcasts, crashes and corruptions. Nothing
under `src/` imports it.

Original docstring:

Scenario configuration: dataclasses, JSON loading, validation, overrides.

One config plus its seed fully determines a run. Validation failures
raise `ConfigError` carrying the offending field path so the CLI can
report it and exit with the usage status.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

CORRUPTION_KINDS = (
    "RANDOMIZE-ALL",
    "DUPLICATE-RECORD",
    "NULL-PAYLOAD",
    "SEQ-REGRESSION",
    "WINDOW-SKEW",
    "NEXT-SKEW",
    "CHANNEL-GARBAGE",
)

SCHEDULER_PROFILES = ("uniform", "starve-one-node", "reorder-heavy")

STOP_MODES = ("complete-delivery", "stabilized", "max-steps")

ASAP = "asap"  # broadcast as soon as flow control allows

DEFAULT_MAXINT = 2**62


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass
class FaultPlan:
    omission_prob: float = 0.0
    duplication_prob: float = 0.0
    reorder_prob: float = 0.0
    crashes: list[tuple[int, int]] = field(default_factory=list)  # (node, step)
    corruptions: list[tuple[int, int, str]] = field(default_factory=list)  # (node, step, kind)
    detection_latency: int = 0


@dataclass
class BroadcastEntry:
    node: int
    step: int | str  # an int step, or ASAP
    payload: str


@dataclass
class ScenarioConfig:
    n: int
    buffer_unit_size: int = 4
    channel_capacity: int = 16
    fifo_enabled: bool = False
    bounded_mode: bool = False
    maxint: int = DEFAULT_MAXINT
    seed: int = 0
    max_steps: int = 10_000
    broadcasts: list[BroadcastEntry] = field(default_factory=list)
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    scheduler_profile: str = "uniform"
    snapshot_interval: int = 0  # 0: snapshots only at cycle boundaries
    quiescence_window_cycles: int = 5
    stop_mode: str = "complete-delivery"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "buffer_unit_size": self.buffer_unit_size,
            "channel_capacity": self.channel_capacity,
            "fifo_enabled": self.fifo_enabled,
            "bounded_mode": self.bounded_mode,
            "maxint": self.maxint,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "broadcasts": [
                {"node": e.node, "step": e.step, "payload": e.payload}
                for e in self.broadcasts
            ],
            "fault_plan": {
                "omission_prob": self.fault_plan.omission_prob,
                "duplication_prob": self.fault_plan.duplication_prob,
                "reorder_prob": self.fault_plan.reorder_prob,
                "crashes": [{"node": c[0], "step": c[1]} for c in self.fault_plan.crashes],
                "corruptions": [
                    {"node": c[0], "step": c[1], "kind": c[2]}
                    for c in self.fault_plan.corruptions
                ],
                "detection_latency": self.fault_plan.detection_latency,
            },
            "scheduler_profile": self.scheduler_profile,
            "snapshot_interval": self.snapshot_interval,
            "quiescence_window_cycles": self.quiescence_window_cycles,
            "stop_mode": self.stop_mode,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _require(raw: dict, key: str, typ, path: str, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"{path}{key}", "missing required field")
        return default
    value = raw[key]
    if typ is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ConfigError(f"{path}{key}", f"expected integer, got {value!r}")
    if typ is float and not isinstance(value, (int, float)):
        raise ConfigError(f"{path}{key}", f"expected number, got {value!r}")
    if typ is bool and not isinstance(value, bool):
        raise ConfigError(f"{path}{key}", f"expected boolean, got {value!r}")
    if typ is str and not isinstance(value, str):
        raise ConfigError(f"{path}{key}", f"expected string, got {value!r}")
    if typ is list and not isinstance(value, list):
        raise ConfigError(f"{path}{key}", f"expected list, got {value!r}")
    if typ is dict and not isinstance(value, dict):
        raise ConfigError(f"{path}{key}", f"expected object, got {value!r}")
    return float(value) if typ is float else value


def from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be an object")
    known = {
        "n", "buffer_unit_size", "channel_capacity", "fifo_enabled", "bounded_mode",
        "maxint", "seed", "max_steps", "broadcasts", "fault_plan",
        "scheduler_profile", "snapshot_interval", "quiescence_window_cycles", "stop_mode",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown field")

    n = _require(raw, "n", int, "", required=True)
    cfg = ScenarioConfig(
        n=n,
        buffer_unit_size=_require(raw, "buffer_unit_size", int, "", default=4),
        channel_capacity=_require(raw, "channel_capacity", int, "", default=16),
        fifo_enabled=_require(raw, "fifo_enabled", bool, "", default=False),
        bounded_mode=_require(raw, "bounded_mode", bool, "", default=False),
        maxint=_require(raw, "maxint", int, "", default=DEFAULT_MAXINT),
        seed=_require(raw, "seed", int, "", default=0),
        max_steps=_require(raw, "max_steps", int, "", default=10_000),
        scheduler_profile=_require(raw, "scheduler_profile", str, "", default="uniform"),
        snapshot_interval=_require(raw, "snapshot_interval", int, "", default=0),
        quiescence_window_cycles=_require(raw, "quiescence_window_cycles", int, "", default=5),
        stop_mode=_require(raw, "stop_mode", str, "", default="complete-delivery"),
    )

    for idx, entry in enumerate(_require(raw, "broadcasts", list, "", default=[])):
        path = f"broadcasts[{idx}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"broadcasts[{idx}]", "expected object")
        node = _require(entry, "node", int, path, required=True)
        step = entry.get("step", ASAP)
        if step != ASAP and (not isinstance(step, int) or isinstance(step, bool)):
            raise ConfigError(f"{path}step", f"expected integer or {ASAP!r}, got {step!r}")
        payload = _require(entry, "payload", str, path, required=True)
        cfg.broadcasts.append(BroadcastEntry(node=node, step=step, payload=payload))

    plan_raw = _require(raw, "fault_plan", dict, "", default={})
    plan = FaultPlan(
        omission_prob=_require(plan_raw, "omission_prob", float, "fault_plan.", default=0.0),
        duplication_prob=_require(plan_raw, "duplication_prob", float, "fault_plan.", default=0.0),
        reorder_prob=_require(plan_raw, "reorder_prob", float, "fault_plan.", default=0.0),
        detection_latency=_require(plan_raw, "detection_latency", int, "fault_plan.", default=0),
    )
    for idx, entry in enumerate(plan_raw.get("crashes", [])):
        path = f"fault_plan.crashes[{idx}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"fault_plan.crashes[{idx}]", "expected object")
        plan.crashes.append(
            (
                _require(entry, "node", int, path, required=True),
                _require(entry, "step", int, path, required=True),
            )
        )
    for idx, entry in enumerate(plan_raw.get("corruptions", [])):
        path = f"fault_plan.corruptions[{idx}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"fault_plan.corruptions[{idx}]", "expected object")
        plan.corruptions.append(
            (
                _require(entry, "node", int, path, required=True),
                _require(entry, "step", int, path, required=True),
                _require(entry, "kind", str, path, required=True),
            )
        )
    cfg.fault_plan = plan
    validate(cfg)
    return cfg


def validate(cfg: ScenarioConfig) -> None:
    if cfg.n < 1:
        raise ConfigError("n", "must be at least 1")
    if cfg.buffer_unit_size < 1:
        raise ConfigError("buffer_unit_size", "must be at least 1")
    if cfg.channel_capacity < 1:
        raise ConfigError("channel_capacity", "must be at least 1")
    if cfg.maxint <= cfg.buffer_unit_size:
        raise ConfigError("maxint", "must exceed buffer_unit_size")
    if cfg.max_steps < 1:
        raise ConfigError("max_steps", "must be at least 1")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed", "must fit in 64 bits")
    if cfg.snapshot_interval < 0:
        raise ConfigError("snapshot_interval", "must be non-negative")
    if cfg.quiescence_window_cycles < 1:
        raise ConfigError("quiescence_window_cycles", "must be at least 1")
    if cfg.scheduler_profile not in SCHEDULER_PROFILES:
        raise ConfigError("scheduler_profile", f"must be one of {SCHEDULER_PROFILES}")
    if cfg.stop_mode not in STOP_MODES:
        raise ConfigError("stop_mode", f"must be one of {STOP_MODES}")

    plan = cfg.fault_plan
    if not 0.0 <= plan.omission_prob < 1.0:
        raise ConfigError(
            "fault_plan.omission_prob", "must be in [0, 1): fair communication requires losses below certainty"
        )
    for name in ("duplication_prob", "reorder_prob"):
        value = getattr(plan, name)
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"fault_plan.{name}", "must be in [0, 1)")
    if plan.detection_latency < 0:
        raise ConfigError("fault_plan.detection_latency", "must be non-negative")

    for idx, entry in enumerate(cfg.broadcasts):
        if not 1 <= entry.node <= cfg.n:
            raise ConfigError(f"broadcasts[{idx}].node", f"must be in [1, {cfg.n}]")
        if isinstance(entry.step, int) and entry.step < 0:
            raise ConfigError(f"broadcasts[{idx}].step", "must be non-negative")
    for idx, (node, step) in enumerate(plan.crashes):
        if not 1 <= node <= cfg.n:
            raise ConfigError(f"fault_plan.crashes[{idx}].node", f"must be in [1, {cfg.n}]")
        if step < 0:
            raise ConfigError(f"fault_plan.crashes[{idx}].step", "must be non-negative")
    seen_crash = set()
    for idx, (node, _) in enumerate(plan.crashes):
        if node in seen_crash:
            raise ConfigError(f"fault_plan.crashes[{idx}].node", "node crashes twice")
        seen_crash.add(node)
    for idx, (node, step, kind) in enumerate(plan.corruptions):
        if not 1 <= node <= cfg.n:
            raise ConfigError(f"fault_plan.corruptions[{idx}].node", f"must be in [1, {cfg.n}]")
        if step < 0:
            raise ConfigError(f"fault_plan.corruptions[{idx}].step", "must be non-negative")
        if kind not in CORRUPTION_KINDS:
            raise ConfigError(
                f"fault_plan.corruptions[{idx}].kind", f"must be one of {CORRUPTION_KINDS}"
            )
        if kind == "NEXT-SKEW" and not cfg.fifo_enabled:
            raise ConfigError(
                f"fault_plan.corruptions[{idx}].kind", "NEXT-SKEW requires fifo_enabled"
            )


def load(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    return from_dict(raw)


def apply_overrides(cfg: ScenarioConfig, overrides: dict[str, Any]) -> ScenarioConfig:
    """Re-validate the config with dotted-path overrides applied, e.g.
    {"fault_plan.omission_prob": 0.2, "seed": 7}. `to_dict` builds fresh
    containers, so no override reaches `cfg`."""
    raw = cfg.to_dict()
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        target = raw
        for part in parts[:-1]:
            if not isinstance(target, dict) or part not in target:
                raise ConfigError(dotted, "unknown override path")
            target = target[part]
        if not isinstance(target, dict) or parts[-1] not in target:
            raise ConfigError(dotted, "unknown override path")
        target[parts[-1]] = value
    return from_dict(raw)
