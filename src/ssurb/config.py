"""Scenario configuration: dataclasses, JSON loading, validation, overrides.

One config plus its seed fully determines a run. The dataclasses are the
only place a field's name, type and default is written: tables built from
them at import drive `to_dict` and `_read`, the one reader of every level.
A failure raises `ConfigError` carrying the offending field path so the
CLI can report it and exit with the usage status.
"""

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Literal, NamedTuple, Union, get_args, get_origin

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
MAX_N = 256  # a run builds n^2 channels up front; the largest n the scaling experiments plan


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class Crash(NamedTuple):
    node: int
    step: int


class Corruption(NamedTuple):
    node: int
    step: int
    kind: str


@dataclass
class FaultPlan:
    omission_prob: float = 0.0
    duplication_prob: float = 0.0
    reorder_prob: float = 0.0
    crashes: list[Crash] = field(default_factory=list)
    corruptions: list[Corruption] = field(default_factory=list)
    detection_latency: int = 0


@dataclass(kw_only=True)
class BroadcastEntry:
    node: int
    step: int | Literal[ASAP] = ASAP
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

    # to_dict(): every field at every level, as `from_dict` reads it, in
    # fresh containers; compiled from the field tables below.

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_SCALARS = {int: "integer", float: "number", bool: "boolean", str: "string"}  # names in errors
_CLASSES = (ScenarioConfig, FaultPlan, BroadcastEntry, Crash, Corruption)


class _Field(NamedTuple):
    hint: Any  # a class of _CLASSES, a list of one, or a scalar type, a Literal or a union of them
    required: bool
    read: Callable[[Any, str], Any]  # (JSON value, its path) -> the field's value
    exact: tuple[type, ...] = ()  # `_read` holds a value of one of these types as it is,
    literals: tuple = ()  # and one of these values


def _field(hint, required: bool) -> _Field:
    if hint in _CLASSES:
        def read(value, path):
            return _read(hint, value, path + ".", "expected object, got {!r}")
        return _Field(hint, required, read)
    if get_origin(hint) is list:
        (item,) = get_args(hint)

        def read(value, path):
            if not isinstance(value, list):
                raise ConfigError(path, f"expected list, got {value!r}")
            return [_read(item, entry, f"{path}[{idx}].") for idx, entry in enumerate(value)]
        return _Field(hint, required, read)
    alternatives = get_args(hint) if get_origin(hint) is Union else (hint,)
    exact = tuple(h for h in alternatives if h in _SCALARS)
    literals = tuple(v for h in alternatives if h not in _SCALARS for v in get_args(h))
    name = " or ".join([_SCALARS[h] for h in exact] + [repr(v) for v in literals])

    def read(value, path):
        if type(value) in exact or value in literals:
            return value
        if hint is float and isinstance(value, (int, float)):  # a boolean too
            try:
                return float(value)
            except OverflowError:  # an integer past the largest float
                raise ConfigError(path, "integer too large for a float") from None
        if isinstance(value, exact) and not isinstance(value, bool):  # a subclass
            return value
        raise ConfigError(path, f"expected {name}, got {value!r}")
    return _Field(hint, required, read, exact, literals)


def _table(cls) -> dict[str, _Field]:
    """`cls`'s fields, in declaration order."""
    if not is_dataclass(cls):  # a NamedTuple: every field is required
        return {name: _field(hint, True) for name, hint in cls.__annotations__.items()}
    return {f.name: _field(f.type, f.default is MISSING is f.default_factory) for f in fields(cls)}


def _read(cls, raw, prefix: str, not_object: str = "expected object"):
    """A `cls` from the JSON value `raw`, whose fields' paths start with
    `prefix`. A value that is not an object (`not_object`, formatted with
    it), an unknown key or a value of the wrong type, the first in the
    document's order, then a missing required field, is a ConfigError
    naming its path."""
    if not isinstance(raw, dict):
        raise ConfigError(prefix[:-1], not_object.format(raw))
    table = _TABLES[cls]
    values = raw  # copied before the first value that is not held as it is
    for key, value in raw.items():
        f = table.get(key)
        if f is None:
            raise ConfigError(f"{prefix}{key}", "unknown field")
        if type(value) not in f.exact and value not in f.literals:
            if values is raw:
                values = dict(raw)
            values[key] = f.read(value, prefix + key)
    if len(raw) < len(table):  # a field is absent: a required one?
        for name in _REQUIRED[cls]:
            if name not in raw:
                raise ConfigError(prefix + name, "missing required field")
    if cls in _TUPLES:  # every field is present: build it by position, as a tuple
        return tuple.__new__(cls, map(values.__getitem__, cls._fields))
    return cls(**values)


def _display(cls, src: str) -> str:
    """The source of a dict display writing the `cls` held in `src` as JSON.
    A tuple's fields are read by position, so a plain tuple is written too."""
    parts = []
    for pos, (name, f) in enumerate(_TABLES[cls].items()):
        value = f"{src}[{pos}]" if cls in _TUPLES else f"{src}.{name}"
        if f.hint in _CLASSES:
            value = _display(f.hint, value)
        elif get_origin(f.hint) is list:  # `e` is the comprehension's own
            value = f"[{_display(get_args(f.hint)[0], 'e')} for e in {value}]"
        parts.append(f"{name!r}: {value}")
    return "{" + ", ".join(parts) + "}"


_TABLES = {cls: _table(cls) for cls in _CLASSES}
_REQUIRED = {cls: [name for name, f in table.items() if f.required] for cls, table in _TABLES.items()}
_TUPLES = frozenset(cls for cls in _CLASSES if issubclass(cls, tuple))
# Compiled once from the tables, as `dataclasses` compiles an `__init__`: the
# dict display a hand-written `to_dict` would hold, and as fast.
ScenarioConfig.to_dict = eval(f"lambda self: {_display(ScenarioConfig, 'self')}")


def from_dict(raw: dict) -> ScenarioConfig:
    cfg = _read(ScenarioConfig, raw, "", "config root must be an object")
    validate(cfg)
    return cfg


def check_fields(raw: dict, names) -> None:
    """Each of the `ScenarioConfig` fields `names` is in `raw` with a JSON
    value of its type, or a ConfigError names the first that is not."""
    for name in names:
        if name not in raw:
            raise ConfigError(name, "missing required field")
        _TABLES[ScenarioConfig][name].read(raw[name], name)


def validate(cfg: ScenarioConfig) -> None:
    for name in ("n", "buffer_unit_size", "channel_capacity", "max_steps", "quiescence_window_cycles"):
        if getattr(cfg, name) < 1:
            raise ConfigError(name, "must be at least 1")
    if cfg.n > MAX_N:
        raise ConfigError("n", f"must be at most {MAX_N}")
    if cfg.maxint <= cfg.buffer_unit_size:
        raise ConfigError("maxint", "must exceed buffer_unit_size")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed", "must fit in 64 bits")
    if cfg.snapshot_interval < 0:
        raise ConfigError("snapshot_interval", "must be non-negative")
    if cfg.scheduler_profile not in SCHEDULER_PROFILES:
        raise ConfigError("scheduler_profile", f"must be one of {SCHEDULER_PROFILES}")
    if cfg.stop_mode not in STOP_MODES:
        raise ConfigError("stop_mode", f"must be one of {STOP_MODES}")

    plan = cfg.fault_plan
    for name, why in (("omission_prob", ": fair communication requires losses below certainty"),
                      ("duplication_prob", ""), ("reorder_prob", "")):
        if not 0.0 <= getattr(plan, name) < 1.0:
            raise ConfigError(f"fault_plan.{name}", f"must be in [0, 1){why}")
    if plan.detection_latency < 0:
        raise ConfigError("fault_plan.detection_latency", "must be non-negative")

    for idx, entry in enumerate(cfg.broadcasts):
        if not 1 <= entry.node <= cfg.n:
            raise ConfigError(f"broadcasts[{idx}].node", f"must be in [1, {cfg.n}]")
        if isinstance(entry.step, int) and entry.step < 0:
            raise ConfigError(f"broadcasts[{idx}].step", "must be non-negative")
    crashed = set()
    for idx, (node, step) in enumerate(plan.crashes):
        if not 1 <= node <= cfg.n:
            raise ConfigError(f"fault_plan.crashes[{idx}].node", f"must be in [1, {cfg.n}]")
        if step < 0:
            raise ConfigError(f"fault_plan.crashes[{idx}].step", "must be non-negative")
        if node in crashed:
            raise ConfigError(f"fault_plan.crashes[{idx}].node", "node crashes twice")
        crashed.add(node)
    for idx, (node, step, kind) in enumerate(plan.corruptions):
        if not 1 <= node <= cfg.n:
            raise ConfigError(f"fault_plan.corruptions[{idx}].node", f"must be in [1, {cfg.n}]")
        if step < 0:
            raise ConfigError(f"fault_plan.corruptions[{idx}].step", "must be non-negative")
        if kind not in CORRUPTION_KINDS:
            raise ConfigError(f"fault_plan.corruptions[{idx}].kind", f"must be one of {CORRUPTION_KINDS}")
        if kind == "NEXT-SKEW" and not cfg.fifo_enabled:
            raise ConfigError(f"fault_plan.corruptions[{idx}].kind", "NEXT-SKEW requires fifo_enabled")


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
        *parents, last = dotted.split(".")
        target = raw
        for part in parents:
            target = target.get(part) if isinstance(target, dict) else None
        if not isinstance(target, dict) or last not in target:
            raise ConfigError(dotted, "unknown override path")
        target[last] = value
    return from_dict(raw)
