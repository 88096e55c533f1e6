"""Scenario files: parsing, validation, and round-tripping.

A scenario is a JSON document describing the network, the frame
layout, the traffic, and any injected faults. Validation is strict and
total: unknown keys are rejected, and every problem in the file is
collected and reported in one pass rather than bailing at the first.

Error codes are stable strings so tools and tests can match on them
rather than on message wording.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from dataclasses import dataclass, field
from enum import Enum

from .engine import ChannelConfig, EnergyCosts
from .geometry import GridSpec, Point, Sector
from .mac import BackoffConfig, FrameLayout, MacConfig, MsgKind
from .routing import ProgressMode, RouteConfig
from .topology import Network, Station, StationKind
from .traffic import SERVICE_CLASSES, Flow, ServiceMode, class_rule_breaches

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

    def mapping(self, value, path: str, allowed: Collection[str]) -> dict:
        if not isinstance(value, dict):
            self.flag("E_SCHEMA", path, f"expected an object, got {type(value).__name__}")
            return {}
        for k in sorted(value):
            if k not in allowed:
                self.flag("E_UNKNOWN_KEY", f"{path}.{k}", "unknown key")
        return value

    def num(self, d: dict, key: str, path: str, default=None, required=False):
        if key not in d:
            if required:
                self.flag("E_SCHEMA", f"{path}.{key}", "missing required key")
            return default
        v = d[key]
        if not _finite(v):
            self.flag("E_BAD_VALUE", f"{path}.{key}", f"expected a number, got {v!r}")
            return default
        return v

    def integer(
        self, d: dict, key: str, path: str, default=None, required=False,
        nullable=False,
    ):
        if key not in d:
            if required:
                self.flag("E_SCHEMA", f"{path}.{key}", "missing required key")
            return default
        v = d[key]
        if v is None and nullable:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.flag("E_BAD_VALUE", f"{path}.{key}", f"expected an integer, got {v!r}")
            return default
        if isinstance(v, float):
            if not v.is_integer():
                self.flag(
                    "E_BAD_VALUE", f"{path}.{key}", f"expected an integer, got {v!r}"
                )
                return default
            v = int(v)
        if abs(v) > MAX_INTEGER:
            self.flag(
                "E_BAD_VALUE", f"{path}.{key}",
                f"expected an integer within +-2**53, got one of {v.bit_length()} bits",
            )
            return default
        return v

    def text(self, d: dict, key: str, path: str, default=None, required=False):
        if key not in d:
            if required:
                self.flag("E_SCHEMA", f"{path}.{key}", "missing required key")
            return default
        v = d[key]
        if not isinstance(v, str):
            self.flag("E_BAD_VALUE", f"{path}.{key}", f"expected a string, got {v!r}")
            return default
        return v

    def boolean(self, d: dict, key: str, path: str, default=None):
        if key not in d:
            return default
        v = d[key]
        if not isinstance(v, bool):
            self.flag("E_BAD_VALUE", f"{path}.{key}", f"expected a boolean, got {v!r}")
            return default
        return v

    def point(self, d: dict, key: str, path: str):
        v = d.get(key)
        if (
            not isinstance(v, (list, tuple))
            or len(v) != 2
            or not all(_finite(c) for c in v)
        ):
            self.flag("E_SCHEMA", f"{path}.{key}", "expected [x, y] coordinates")
            return None
        return Point(float(v[0]), float(v[1]))


def slot_count(r: _Reader, d: dict, key: str, path: str):
    v = r.integer(d, key, path)
    if v is not None and v > MAX_SLOTS:
        r.flag("E_BAD_VALUE", f"{path}.{key}", f"must be at most {MAX_SLOTS}, got {v}")
        return None
    return v


def rp_modulus(r: _Reader, d: dict, key: str, path: str):
    v = r.integer(d, key, path)
    if v is not None and v < 11:
        r.flag("E_RP_MODULUS", f"{path}.{key}", f"must be at least 11, got {v}")
        return None
    return v


def progress_mode(r: _Reader, d: dict, key: str, path: str):
    name = r.text(d, key, path)
    if name is None:
        return None
    try:
        return ProgressMode(name)
    except ValueError:
        r.flag("E_BAD_VALUE", f"{path}.{key}", f"unknown progress mode {name!r}")
        return None


def hop_budget(r: _Reader, d: dict, key: str, path: str):
    return r.integer(d, key, path, nullable=True)


# The six config sections: section -> (its dataclass, key -> reader). A
# reader is a _Reader method or a function of the same signature and returns
# None for "use the dataclass default"; a (dataclass, readers) pair is a
# nested section. Key order is the order to_dict writes.
_SECTIONS = {
    "grid": (GridSpec, {
        "cell_width": _Reader.num,
        "cell_height": _Reader.num,
        "origin": _Reader.point,
        "rp_modulus": rp_modulus,
    }),
    "frame": (FrameLayout, {
        "rp_slots": slot_count,
        "cf_slots": slot_count,
        "rp_slot_len_ms": _Reader.num,
        "cf_slot_len_ms": _Reader.num,
    }),
    "routing": (RouteConfig, {
        "progress_mode": progress_mode,
        "hop_budget": hop_budget,
        "max_paths": _Reader.integer,
        "deviation_mode": _Reader.boolean,
        "deviation_angle": _Reader.num,
    }),
    "mac": (MacConfig, {
        "slotting_enabled": _Reader.boolean,
        "contention_window": _Reader.integer,
        "backoff": (BackoffConfig, {
            "base_window": _Reader.integer,
            "max_window": _Reader.integer,
            "max_retries": _Reader.integer,
        }),
    }),
    "energy": (EnergyCosts, {
        "tx": _Reader.num, "rx": _Reader.num, "idle": _Reader.num, "sleep": _Reader.num,
    }),
    "channel": (ChannelConfig, {"interference_multiplier": _Reader.num}),
}
# The Scenario attribute holding a section, where the two names differ.
_ATTRS = {"frame": "layout"}


def read(r: _Reader, value, path: str, cls, readers: dict):
    """Build one section; a value its dataclass rejects flags the section
    and yields the defaults."""
    d = r.mapping(value, path, readers)
    kw = {}
    for key, reader in readers.items():
        if key not in d:
            continue
        if isinstance(reader, tuple):
            v = read(r, d[key], f"{path}.{key}", *reader)
        else:
            v = reader(r, d, key, path)
        if v is not None:
            kw[key] = v
    try:
        return cls(**kw)
    except (TypeError, ValueError) as exc:
        r.flag("E_BAD_VALUE", path, str(exc))
        return cls()


def dump(obj, readers: dict) -> dict:
    """Inverse of read, suitable for json.dump."""
    out = {}
    for key, reader in readers.items():
        v = getattr(obj, key)
        if isinstance(reader, tuple):
            v = dump(v, reader[1])
        elif isinstance(v, Enum):
            v = v.value
        elif isinstance(v, Point):
            v = [v.x, v.y]
        out[key] = v
    return out


def _read_station(r: _Reader, item, path: str) -> Station | None:
    d = r.mapping(item, path, ("id", "kind", "position", "rf_range", "sector"))
    if not d:
        return None
    sid = r.integer(d, "id", path, required=True)
    kind_name = r.text(d, "kind", path, required=True)
    pos = r.point(d, "position", path)
    rf_range = r.num(d, "rf_range", path, default=0.0)
    if sid is None or kind_name is None or pos is None:
        return None
    try:
        kind = StationKind(kind_name)
    except ValueError:
        r.flag("E_BAD_KIND", f"{path}.kind", f"unknown station kind {kind_name!r}")
        return None

    sector = None
    if "sector" in d:
        if kind is not StationKind.CLUSTER_HEAD:
            r.flag(
                "E_SECTOR_FIELDS", f"{path}.sector",
                f"{kind.value} stations carry no steerable laser sector",
            )
        else:
            sd = r.mapping(d["sector"], f"{path}.sector", ("theta", "alpha", "range"))
            theta = r.num(sd, "theta", f"{path}.sector", required=True)
            alpha = r.num(sd, "alpha", f"{path}.sector", required=True)
            reach = r.num(sd, "range", f"{path}.sector", required=True)
            if None not in (theta, alpha, reach):
                try:
                    sector = Sector(apex=pos, theta=theta, alpha=alpha, range=reach)
                except (TypeError, ValueError) as exc:
                    r.flag("E_BAD_VALUE", f"{path}.sector", str(exc))
    if kind is StationKind.CLUSTER_HEAD and sector is None:
        r.flag("E_MISSING_SECTOR", path, "cluster heads need a sector")
        return None

    try:
        return Station(id=sid, kind=kind, position=pos, rf_range=rf_range, sector=sector)
    except (TypeError, ValueError) as exc:
        r.flag("E_BAD_VALUE", path, str(exc))
        return None


# The issue code for a breach of each class rule, by the flow field it names.
_CLASS_RULE_CODES = {"rate_bps": "E_RATE_OUT_OF_CLASS", "mode": "E_BAD_SERVICE_MODE"}


def _read_flow(r: _Reader, item, path: str, stations: dict[int, Station]) -> Flow | None:
    d = r.mapping(
        item, path,
        (
            "id", "src", "dst", "class", "mode", "rate_bps", "packet_size_bits",
            "burst_length", "start_frame", "stop_frame",
        ),
    )
    if not d:
        return None
    fid = r.integer(d, "id", path, required=True)
    src = r.integer(d, "src", path, required=True)
    dst = r.integer(d, "dst", path, required=True)
    cls_name = r.text(d, "class", path, required=True)
    mode_name = r.text(d, "mode", path, default="none")
    rate = r.num(d, "rate_bps", path, required=True)
    size = r.integer(d, "packet_size_bits", path, default=1000)
    burst = r.integer(d, "burst_length", path, default=8)
    start = r.integer(d, "start_frame", path, default=0)
    stop = r.integer(d, "stop_frame", path, default=None, nullable=True)
    if None in (fid, src, dst, cls_name, rate):
        return None

    ok = True
    service = SERVICE_CLASSES.get(cls_name)
    if service is None:
        r.flag("E_UNKNOWN_CLASS", f"{path}.class", f"unknown service class {cls_name!r}")
        ok = False
    try:
        mode = ServiceMode(mode_name)
    except ValueError:
        r.flag("E_BAD_SERVICE_MODE", f"{path}.mode", f"unknown mode {mode_name!r}")
        mode = None
        ok = False

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
            if stations[dst].kind is StationKind.SENSOR_NODE:
                r.flag("E_FLOW_ENDPOINTS", f"{path}.dst", "sensors cannot terminate a flow")
                ok = False
    if service is not None:
        for key, message in class_rule_breaches(service, mode, rate):
            r.flag(_CLASS_RULE_CODES[key], f"{path}.{key}", message)
            ok = False
    if not ok:
        return None
    try:
        return Flow(
            id=fid, src=src, dst=dst, service=service, mode=mode, rate_bps=rate,
            packet_size_bits=size, burst_length=burst, start_frame=start,
            stop_frame=stop,
        )
    except (TypeError, ValueError) as exc:
        r.flag("E_BAD_VALUE", path, str(exc))
        return None


def _read_fault(r: _Reader, item, path: str, stations: dict[int, Station]) -> FaultSpec | None:
    d = r.mapping(item, path, ("kind", "frame", "sender"))
    if not d:
        return None
    kind = r.text(d, "kind", path, required=True)
    frame = r.integer(d, "frame", path, required=True)
    sender = r.integer(d, "sender", path, required=True)
    if None in (kind, frame, sender):
        return None
    ok = True
    if kind not in FAULT_KINDS:
        r.flag(
            "E_BAD_FAULT_KIND", f"{path}.kind",
            f"{kind!r} is not one of {', '.join(FAULT_KINDS)}",
        )
        ok = False
    if frame < 0:
        r.flag("E_BAD_VALUE", f"{path}.frame", "frame must be >= 0")
        ok = False
    if sender not in stations:
        r.flag("E_UNKNOWN_STATION", f"{path}.sender", f"no station with id {sender}")
        ok = False
    return FaultSpec(kind=kind, frame=frame, sender=sender) if ok else None


# In the order to_dict writes them.
_TOP_KEYS = (
    "grid", "frame", "horizon_frames", "stations", "flows", "faults",
    "routing", "mac", "energy", "channel",
)


def from_dict(data: dict) -> Scenario:
    """Validate and build a scenario; raises ScenarioError listing every
    problem found."""
    r = _Reader()
    data = r.mapping(data, "$", _TOP_KEYS)

    cfg = {
        _ATTRS.get(name, name): read(r, data.get(name, {}), name, *spec)
        for name, spec in _SECTIONS.items()
    }
    if cfg["mac"].slotting_enabled and cfg["grid"].rp_modulus > cfg["layout"].rp_slots:
        # rp_slot_of would hand some cells a slot the frame never plays
        r.flag(
            "E_RP_MODULUS", "grid.rp_modulus",
            f"{cfg['grid'].rp_modulus} exceeds frame.rp_slots "
            f"{cfg['layout'].rp_slots} while slotting is enabled",
        )
    horizon = r.integer(data, "horizon_frames", "$", default=100)
    if horizon is not None and not 1 <= horizon <= MAX_FRAMES:
        r.flag(
            "E_BAD_VALUE", "$.horizon_frames",
            f"must be from 1 to {MAX_FRAMES}, got {horizon}",
        )
        horizon = 1

    raw_stations = data.get("stations")
    if not isinstance(raw_stations, list) or not raw_stations:
        r.flag("E_SCHEMA", "$.stations", "a non-empty station list is required")
        raw_stations = []
    stations: list[Station] = []
    by_id: dict[int, Station] = {}
    for i, item in enumerate(raw_stations):
        st = _read_station(r, item, f"stations[{i}]")
        if st is None:
            continue
        if st.id in by_id:
            r.flag("E_DUP_STATION", f"stations[{i}].id", f"duplicate station id {st.id}")
            continue
        by_id[st.id] = st
        stations.append(st)

    bases = [s for s in stations if s.kind is StationKind.BASE_STATION]
    if raw_stations and not bases:
        r.flag("E_NO_BASE_STATION", "$.stations", "exactly one base station is required")
    elif len(bases) > 1:
        r.flag(
            "E_MULTI_BASE_STATION", "$.stations",
            f"expected one base station, found {len(bases)}",
        )

    raw_flows = data.get("flows", [])
    if not isinstance(raw_flows, list):
        r.flag("E_SCHEMA", "$.flows", "expected a list")
        raw_flows = []
    flows: list[Flow] = []
    flow_ids: set[int] = set()
    for i, item in enumerate(raw_flows):
        fl = _read_flow(r, item, f"flows[{i}]", by_id)
        if fl is None:
            continue
        if fl.id in flow_ids:
            r.flag("E_DUP_FLOW", f"flows[{i}].id", f"duplicate flow id {fl.id}")
            continue
        flow_ids.add(fl.id)
        flows.append(fl)

    raw_faults = data.get("faults", [])
    if not isinstance(raw_faults, list):
        r.flag("E_SCHEMA", "$.faults", "expected a list")
        raw_faults = []
    faults = []
    for i, item in enumerate(raw_faults):
        fs = _read_fault(r, item, f"faults[{i}]", by_id)
        if fs is not None:
            faults.append(fs)

    if r.issues:
        raise ScenarioError(r.issues)

    return Scenario(
        stations=tuple(stations),
        flows=tuple(flows),
        faults=tuple(faults),
        horizon_frames=horizon,
        **cfg,
    )


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
        name: dump(getattr(sc, _ATTRS.get(name, name)), readers)
        for name, (_, readers) in _SECTIONS.items()
    }
    out["horizon_frames"] = sc.horizon_frames
    out["stations"] = []
    out["flows"] = []
    out["faults"] = [
        {"kind": f.kind, "frame": f.frame, "sender": f.sender} for f in sc.faults
    ]
    for s in sc.stations:
        d: dict = {
            "id": s.id,
            "kind": s.kind.value,
            "position": [s.position.x, s.position.y],
            "rf_range": s.rf_range,
        }
        if s.sector is not None:
            d["sector"] = {
                "theta": s.sector.theta,
                "alpha": s.sector.alpha,
                "range": s.sector.range,
            }
        out["stations"].append(d)
    for f in sc.flows:
        out["flows"].append(
            {
                "id": f.id,
                "src": f.src,
                "dst": f.dst,
                "class": f.service.name,
                "mode": f.mode.value,
                "rate_bps": f.rate_bps,
                "packet_size_bits": f.packet_size_bits,
                "burst_length": f.burst_length,
                "start_frame": f.start_frame,
                "stop_frame": f.stop_frame,
            }
        )
    return {key: out[key] for key in _TOP_KEYS}
