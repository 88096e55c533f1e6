"""Scenario files: parsing, validation, and round-tripping.

A scenario is a JSON document describing the network, the frame
layout, the traffic, and any injected faults. Validation is strict and
total: unknown keys are rejected, and every problem in the file is
collected and reported in one pass rather than bailing at the first.

The format is stated once. Each kind of object in the file, the six config
sections and the station, sector, flow and fault records, has one key
table: every key's check, and its default or that it is required, in the
order to_dict writes. One key walk reads an object against its table, and
dump writes it back from the same table. What a table cannot say, a rule
across keys such as "a cluster head needs a sector", is each record kind's
own code, run once its required keys are present.

Error codes are stable strings so tools and tests can match on them
rather than on message wording.
"""

from __future__ import annotations

import json
import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .engine import ChannelConfig, EnergyCosts
from .geometry import GridSpec, Point, Sector
from .mac import BackoffConfig, FrameLayout, MacConfig, MsgKind
from .routing import ProgressMode, RouteConfig
from .topology import Network, Station, StationKind
from .traffic import SERVICE_CLASSES, Flow, ServiceClass, ServiceMode, class_rule_breaches

FAULT_KINDS = tuple(m.value for m in MsgKind)


@dataclass(frozen=True)
class Issue:
    code: str
    path: str
    message: str

    def __str__(self):
        return f"{self.code} at {self.path}: {self.message}"


class ScenarioError(ValueError):
    """Carries every validation issue found in a scenario."""

    def __init__(self, issues: list[Issue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(frozen=True)
class FaultSpec:
    """Suppress one station's control message of one kind in one frame."""

    kind: str
    frame: int
    sender: int


@dataclass
class Scenario:
    stations: tuple[Station, ...]
    grid: GridSpec
    layout: FrameLayout = field(default_factory=FrameLayout)
    flows: tuple[Flow, ...] = ()
    faults: tuple[FaultSpec, ...] = ()
    horizon_frames: int = 100
    routing: RouteConfig = field(default_factory=RouteConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    energy: EnergyCosts = field(default_factory=EnergyCosts)
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    @property
    def sink(self) -> int:
        for s in self.stations:
            if s.kind is StationKind.BASE_STATION:
                return s.id
        raise ValueError("scenario has no base station")

    def build_network(self) -> Network:
        return Network(self.stations, sink=self.sink, grid_spec=self.grid)


# Every integer a scenario holds is exact as a float, a frame has at
# most MAX_SLOTS slots of each kind and a run at most MAX_FRAMES frames,
# so every run that validates can be played.
MAX_INTEGER = 2**53
MAX_SLOTS = 1024
MAX_FRAMES = 10**6


def _finite(v) -> bool:
    """A JSON number that is a finite float: not NaN or an infinity, which
    json.load also accepts, nor an integer past float range."""
    if type(v) is float:
        return math.isfinite(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


class _Reader:
    """One validation pass's shared state."""

    def __init__(self):
        self.issues: list[Issue] = []

    def flag(self, code: str, path: str, message: str) -> None:
        self.issues.append(Issue(code, path, message))


class _Invalid(ValueError):
    """A value its key's check rejects, with the issue code to flag."""

    def __init__(self, message: str, code: str = "E_BAD_VALUE"):
        super().__init__(message)
        self.code = code


# The checks. Each is handed a key's value, present in the file, and returns
# it, or what it stands for, or raises _Invalid.


def number(v):
    if _finite(v):
        return v
    raise _Invalid(f"expected a number, got {v!r}")


def integer(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Invalid(f"expected an integer, got {v!r}")
    if isinstance(v, float):
        if not v.is_integer():
            raise _Invalid(f"expected an integer, got {v!r}")
        v = int(v)
    if abs(v) > MAX_INTEGER:
        raise _Invalid(f"expected an integer within +-2**53, got one of {v.bit_length()} bits")
    return v


def integer_or_null(v):
    return None if v is None else integer(v)


def text(v):
    if isinstance(v, str):
        return v
    raise _Invalid(f"expected a string, got {v!r}")


def boolean(v):
    if isinstance(v, bool):
        return v
    raise _Invalid(f"expected a boolean, got {v!r}")


def point(v):
    if isinstance(v, (list, tuple)) and len(v) == 2 and _finite(v[0]) and _finite(v[1]):
        return Point(float(v[0]), float(v[1]))
    raise _Invalid("expected [x, y] coordinates", "E_SCHEMA")


def slot_count(v):
    v = integer(v)
    if v > MAX_SLOTS:
        raise _Invalid(f"must be at most {MAX_SLOTS}, got {v}")
    return v


def rp_modulus(v):
    v = integer(v)
    if v < 11:
        raise _Invalid(f"must be at least 11, got {v}", "E_RP_MODULUS")
    return v


def progress_mode(v):
    name = text(v)
    try:
        return ProgressMode(name)
    except ValueError:
        raise _Invalid(f"unknown progress mode {name!r}") from None


def horizon_frames(v):
    v = integer(v)
    if not 1 <= v <= MAX_FRAMES:
        raise _Invalid(f"must be from 1 to {MAX_FRAMES}, got {v}")
    return v


class _Object(NamedTuple):
    """An object's dataclass and key table. As the check of a key that holds
    one, it keeps the value as it is, for the owner to read: a section reads
    its nested objects at once, a station its sector only if it is a cluster
    head."""

    cls: type
    table: dict

    def __call__(self, v):
        return v


# A key table maps each key of one kind of object, in the order to_dict
# writes them, to (check, default). The default is REQUIRED, the value an
# absent key reads as, or None to leave the key to the dataclass's own
# default. A key whose value the check rejects reads as absent.
REQUIRED = object()


def _optional(**checks) -> dict:
    """A key table whose keys all default to the dataclass's defaults."""
    return {key: (check, None) for key, check in checks.items()}


# The six config sections.
_SECTIONS = {
    "grid": _Object(GridSpec, _optional(
        cell_width=number, cell_height=number, origin=point, rp_modulus=rp_modulus,
    )),
    "frame": _Object(FrameLayout, _optional(
        rp_slots=slot_count, cf_slots=slot_count, rp_slot_len_ms=number, cf_slot_len_ms=number,
    )),
    "routing": _Object(RouteConfig, _optional(
        progress_mode=progress_mode, hop_budget=integer_or_null, max_paths=integer,
        deviation_mode=boolean, deviation_angle=number,
    )),
    "mac": _Object(MacConfig, _optional(
        slotting_enabled=boolean, contention_window=integer,
        backoff=_Object(BackoffConfig, _optional(
            base_window=integer, max_window=integer, max_retries=integer,
        )),
    )),
    "energy": _Object(EnergyCosts, _optional(tx=number, rx=number, idle=number, sleep=number)),
    "channel": _Object(ChannelConfig, _optional(interference_multiplier=number)),
}

_SECTOR = {"theta": (number, REQUIRED), "alpha": (number, REQUIRED), "range": (number, REQUIRED)}
_STATION = {
    "id": (integer, REQUIRED),
    "kind": (text, REQUIRED),
    "position": (point, REQUIRED),
    "rf_range": (number, None),
    "sector": (_Object(Sector, _SECTOR), None),
}
_FLOW = {
    "id": (integer, REQUIRED),
    "src": (integer, REQUIRED),
    "dst": (integer, REQUIRED),
    "class": (text, REQUIRED),
    "mode": (text, ServiceMode.NONE.value),
    "rate_bps": (number, REQUIRED),
    "packet_size_bits": (integer, 1000),
    "burst_length": (integer, None),
    "start_frame": (integer, None),
    "stop_frame": (integer_or_null, None),
}
_FAULT = {"kind": (text, REQUIRED), "frame": (integer, REQUIRED), "sender": (integer, REQUIRED)}

# Where a name in the file is not its dataclass field's: the Scenario field
# holding a section, and a record's field holding a key's value.
_ATTRS = {"frame": "layout"}
_FIELDS = {"class": "service"}


def _mapping(r: _Reader, value, path: str, keys: AbstractSet[str]) -> dict | None:
    """value if it is an object, with each key that is not in keys flagged."""
    if not isinstance(value, dict):
        r.flag("E_SCHEMA", path, f"expected an object, got {type(value).__name__}")
        return None
    if not value.keys() <= keys:
        for k in sorted(value.keys() - keys):
            r.flag("E_UNKNOWN_KEY", f"{path}.{k}", "unknown key")
    return value


def walk(r: _Reader, value, path: str, table: dict) -> dict | None:
    """Read one JSON object against its key table, flagging what is wrong.
    Returns key -> checked value, holding each default the table names for
    a key that is absent or flagged; None if value is not an object or a
    required key is missing or flagged."""
    value = _mapping(r, value, path, table.keys())
    if value is None:
        return None
    kw = {}
    complete = True
    for key, (check, default) in table.items():
        if key in value:
            try:
                kw[key] = check(value[key])
                continue
            except _Invalid as bad:
                r.flag(bad.code, f"{path}.{key}", str(bad))
        elif default is REQUIRED:
            r.flag("E_SCHEMA", f"{path}.{key}", "missing required key")
        if default is REQUIRED:
            complete = False
        elif default is not None:
            kw[key] = default
    return kw if complete else None


def _build(r: _Reader, cls, kw: dict, path: str):
    """cls(**kw), or None with the dataclass's complaint flagged at path."""
    try:
        return cls(**kw)
    except (TypeError, ValueError) as exc:
        r.flag("E_BAD_VALUE", path, str(exc))
        return None


def read(r: _Reader, value, path: str, section: _Object):
    """Build one section; a value its dataclass rejects flags the section
    and yields the defaults."""
    kw = walk(r, value, path, section.table) or {}
    for key, (check, _) in section.table.items():
        if key in kw and isinstance(check, _Object):
            kw[key] = read(r, kw[key], f"{path}.{key}", check)
    obj = _build(r, section.cls, kw, path)
    return section.cls() if obj is None else obj


def dump(obj, table: dict) -> dict:
    """Inverse of walk, suitable for json.dump. A nested object that is None,
    the sector of a station other than a cluster head, is left out."""
    out = {}
    for key, (check, _) in table.items():
        v = getattr(obj, _FIELDS.get(key, key))
        if isinstance(check, _Object):
            if v is None:
                continue
            v = dump(v, check.table)
        elif isinstance(v, Enum):
            v = v.value
        elif isinstance(v, Point):
            v = [v.x, v.y]
        elif isinstance(v, ServiceClass):
            v = v.name
        out[key] = v
    return out


# The cross-field rules of each record kind. Each runs once the record's
# required keys are present and returns the record, or None if it flagged it.


def _station(r: _Reader, kw: dict, path: str, stations: dict[int, Station]) -> Station | None:
    try:
        kind = kw["kind"] = StationKind(kw["kind"])
    except ValueError:
        r.flag("E_BAD_KIND", f"{path}.kind", f"unknown station kind {kw['kind']!r}")
        return None
    if "sector" in kw:
        value = kw.pop("sector")
        if kind is not StationKind.CLUSTER_HEAD:
            r.flag(
                "E_SECTOR_FIELDS", f"{path}.sector",
                f"{kind.value} stations carry no steerable laser sector",
            )
        else:
            sector = walk(r, value, f"{path}.sector", _SECTOR)
            if sector is not None:
                sector["apex"] = kw["position"]
                kw["sector"] = _build(r, Sector, sector, f"{path}.sector")
    if kind is StationKind.CLUSTER_HEAD and kw.get("sector") is None:
        r.flag("E_MISSING_SECTOR", path, "cluster heads need a sector")
        return None
    return _build(r, Station, kw, path)


# The issue code for a breach of each class rule, by the flow field it names.
_CLASS_RULE_CODES = {"rate_bps": "E_RATE_OUT_OF_CLASS", "mode": "E_BAD_SERVICE_MODE"}


def _flow(r: _Reader, kw: dict, path: str, stations: dict[int, Station]) -> Flow | None:
    ok = True
    cls_name = kw.pop("class")
    service = kw["service"] = SERVICE_CLASSES.get(cls_name)
    if service is None:
        r.flag("E_UNKNOWN_CLASS", f"{path}.class", f"unknown service class {cls_name!r}")
        ok = False
    try:
        mode = kw["mode"] = ServiceMode(kw["mode"])
    except ValueError:
        r.flag("E_BAD_SERVICE_MODE", f"{path}.mode", f"unknown mode {kw['mode']!r}")
        mode = None
        ok = False

    src, dst = kw["src"], kw["dst"]
    for end, key in ((src, "src"), (dst, "dst")):
        if end not in stations:
            r.flag("E_UNKNOWN_STATION", f"{path}.{key}", f"no station with id {end}")
            ok = False
    if ok:
        if src == dst:
            r.flag("E_FLOW_ENDPOINTS", path, "src and dst must differ")
            ok = False
        else:
            if stations[src].kind is StationKind.BASE_STATION:
                r.flag("E_FLOW_ENDPOINTS", f"{path}.src", "base station cannot source a flow")
                ok = False
            elif not any(s.kind is StationKind.CLUSTER_HEAD for s in stations.values()):
                r.flag("E_FLOW_ENDPOINTS", f"{path}.src", "no cluster head for a sensor to attach to")
                ok = False
            if stations[dst].kind is StationKind.SENSOR_NODE:
                r.flag("E_FLOW_ENDPOINTS", f"{path}.dst", "sensors cannot terminate a flow")
                ok = False
    if service is not None:
        for key, message in class_rule_breaches(service, mode, kw["rate_bps"]):
            r.flag(_CLASS_RULE_CODES[key], f"{path}.{key}", message)
            ok = False
    return _build(r, Flow, kw, path) if ok else None


def _fault(r: _Reader, kw: dict, path: str, stations: dict[int, Station]) -> FaultSpec | None:
    ok = True
    if kw["kind"] not in FAULT_KINDS:
        r.flag(
            "E_BAD_FAULT_KIND", f"{path}.kind",
            f"{kw['kind']!r} is not one of {', '.join(FAULT_KINDS)}",
        )
        ok = False
    if kw["frame"] < 0:
        r.flag("E_BAD_VALUE", f"{path}.frame", "frame must be >= 0")
        ok = False
    sender = stations.get(kw["sender"])
    if sender is None:
        r.flag("E_UNKNOWN_STATION", f"{path}.sender", f"no station with id {kw['sender']}")
        ok = False
    elif sender.kind is not StationKind.CLUSTER_HEAD:
        # only cluster heads send control messages, so the fault never fires
        r.flag(
            "E_FAULT_SENDER", f"{path}.sender",
            f"a {sender.kind.value} sends no control messages to lose",
        )
        ok = False
    return FaultSpec(**kw) if ok else None


# The record lists in the order they are read: list -> (key table, the
# record kind's cross-field rules, issue code of a repeated id or None).
_LISTS = {
    "stations": (_STATION, _station, "E_DUP_STATION"),
    "flows": (_FLOW, _flow, "E_DUP_FLOW"),
    "faults": (_FAULT, _fault, None),
}


def _records(r: _Reader, items: list, name: str, stations: dict[int, Station]) -> list:
    """Read each record of one list; a record with an id already read is
    flagged and dropped."""
    table, rules, dup_code = _LISTS[name]
    out = []
    ids = set()
    for i, item in enumerate(items):
        path = f"{name}[{i}]"
        kw = walk(r, item, path, table)
        rec = None if kw is None else rules(r, kw, path, stations)
        if rec is None:
            continue
        if dup_code is not None:
            if rec.id in ids:
                r.flag(dup_code, f"{path}.id", f"duplicate {name[:-1]} id {rec.id}")
                continue
            ids.add(rec.id)
        out.append(rec)
    return out


# In the order to_dict writes them.
_TOP_KEYS = dict.fromkeys((
    "grid", "frame", "horizon_frames", "stations", "flows", "faults",
    "routing", "mac", "energy", "channel",
))


def from_dict(data: dict) -> Scenario:
    """Validate and build a scenario; raises ScenarioError listing every
    problem found."""
    r = _Reader()
    data = _mapping(r, data, "$", _TOP_KEYS.keys()) or {}

    cfg = {
        _ATTRS.get(name, name): read(r, data.get(name, {}), name, section)
        for name, section in _SECTIONS.items()
    }
    if cfg["mac"].slotting_enabled and cfg["grid"].rp_modulus > cfg["layout"].rp_slots:
        # rp_slot_of would hand some cells a slot the frame never plays
        r.flag(
            "E_RP_MODULUS", "grid.rp_modulus",
            f"{cfg['grid'].rp_modulus} exceeds frame.rp_slots "
            f"{cfg['layout'].rp_slots} while slotting is enabled",
        )
    try:
        horizon = horizon_frames(data.get("horizon_frames", 100))
    except _Invalid as bad:
        r.flag(bad.code, "$.horizon_frames", str(bad))
        horizon = 1

    raw_stations = data.get("stations")
    if not isinstance(raw_stations, list) or not raw_stations:
        r.flag("E_SCHEMA", "$.stations", "a non-empty station list is required")
        raw_stations = []
    stations = _records(r, raw_stations, "stations", {})
    bases = [s for s in stations if s.kind is StationKind.BASE_STATION]
    if raw_stations and not bases:
        r.flag("E_NO_BASE_STATION", "$.stations", "exactly one base station is required")
    elif len(bases) > 1:
        r.flag(
            "E_MULTI_BASE_STATION", "$.stations",
            f"expected one base station, found {len(bases)}",
        )

    by_id = {s.id: s for s in stations}
    lists = {}
    for name in ("flows", "faults"):
        items = data.get(name, [])
        if not isinstance(items, list):
            r.flag("E_SCHEMA", f"$.{name}", "expected a list")
            items = []
        lists[name] = tuple(_records(r, items, name, by_id))

    if r.issues:
        raise ScenarioError(r.issues)

    return Scenario(stations=tuple(stations), horizon_frames=horizon, **lists, **cfg)


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError([Issue("E_PARSE", path, str(exc))]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [Issue("E_PARSE", f"{path}:{exc.lineno}:{exc.colno}", exc.msg)]
        ) from exc
    return from_dict(data)


def to_dict(sc: Scenario) -> dict:
    """Inverse of from_dict, suitable for json.dump."""
    out: dict = {
        name: dump(getattr(sc, _ATTRS.get(name, name)), section.table)
        for name, section in _SECTIONS.items()
    }
    out["horizon_frames"] = sc.horizon_frames
    for name, (table, _, _) in _LISTS.items():
        out[name] = [dump(rec, table) for rec in getattr(sc, name)]
    return {key: out[key] for key in _TOP_KEYS}
