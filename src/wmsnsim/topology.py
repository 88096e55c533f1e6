"""Stations, the static network graph, and its link index.

Cluster heads carry a directional optical transmitter (a sector) plus an
omnidirectional photodetector and an omnidirectional radio, so optical
links are directional and may be asymmetric while radio links are plain
disk links. The base station is reached over dedicated optical uplinks
and takes no part in radio contention. Sensor nodes are abstracted to
traffic sources attached to their nearest cluster head (attach_point).

Positions never change, so `Network` answers every link question from
one lazily filled index: `rf_reach` (who hears a station's radio),
`beam` (whom a cluster head's laser hits), `data_links` (whom it can
send data to) and `rf_hops` (radio hop counts over mutual range). Both
reach relations take a `scale` that widens the range to an interference
footprint. The helper functions below are reads of that index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from .geometry import (
    GridCell,
    GridSpec,
    Point,
    Sector,
    distance,
    grid_of,
    sector_contains,
)


class UnknownStationError(KeyError):
    """Raised for a station id that is not part of the network."""


class NotClusterHeadError(ValueError):
    """Raised when an optical-transmit operation names a non cluster head."""


class StationKind(str, Enum):
    CLUSTER_HEAD = "cluster_head"
    SENSOR_NODE = "sensor_node"
    BASE_STATION = "base_station"


@dataclass(frozen=True)
class Station:
    id: int
    kind: StationKind
    position: Point
    rf_range: float = 0.0
    sector: Sector | None = None
    grid: GridCell | None = None

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"station id must be non-negative, got {self.id}")
        if self.rf_range < 0.0:
            raise ValueError(f"rf_range must be >= 0, got {self.rf_range}")
        if self.kind is StationKind.CLUSTER_HEAD:
            if self.sector is None:
                raise ValueError(f"cluster head {self.id} needs a sector")
            if self.sector.apex != self.position:
                raise ValueError(f"station {self.id}: sector apex off position")


class Network:
    """Immutable station set plus the grid layout, and the link index:
    neighborhoods are computed on first use and cached."""

    def __init__(self, stations, sink: int, grid_spec: GridSpec):
        by_id: dict[int, Station] = {}
        for st in sorted(stations, key=lambda s: s.id):
            if st.id in by_id:
                raise ValueError(f"duplicate station id {st.id}")
            by_id[st.id] = replace(st, grid=grid_of(st.position, grid_spec))
        if sink not in by_id:
            raise UnknownStationError(sink)
        if by_id[sink].kind is not StationKind.BASE_STATION:
            raise ValueError(f"sink {sink} is not a base station")
        bases = [s.id for s in by_id.values() if s.kind is StationKind.BASE_STATION]
        if len(bases) != 1:
            raise ValueError(f"exactly one base station required, got {bases}")
        self._stations = by_id
        self.sink = sink
        self.grid_spec = grid_spec
        self._rf_reach: dict[tuple[int, float], frozenset[int]] = {}
        self._beam: dict[tuple[int, float], frozenset[int]] = {}
        self._data_links: dict[int, tuple[int, ...]] = {}
        self._rf_hops: dict[int, dict[int, int]] = {}

    def station(self, sid: int) -> Station:
        try:
            return self._stations[sid]
        except KeyError:
            raise UnknownStationError(sid) from None

    def ids(self) -> tuple[int, ...]:
        return tuple(self._stations)

    def stations(self) -> tuple[Station, ...]:
        return tuple(self._stations.values())

    def cluster_heads(self) -> tuple[Station, ...]:
        return tuple(
            s for s in self._stations.values() if s.kind is StationKind.CLUSTER_HEAD
        )

    def __contains__(self, sid: int) -> bool:
        return sid in self._stations

    def rf_reach(self, x: int, scale: float = 1.0) -> frozenset[int]:
        """Stations within scale * x's radio range, of any kind, x excluded.
        Uses x's own range, so unequal ranges make this asymmetric."""
        key = (x, scale)
        heard = self._rf_reach.get(key)
        if heard is None:
            me = self.station(x)
            limit = me.rf_range * scale
            heard = self._rf_reach[key] = frozenset(
                s.id
                for s in self._stations.values()
                if s.id != x and distance(me.position, s.position) <= limit
            )
        return heard

    def beam(self, x: int, scale: float = 1.0) -> frozenset[int]:
        """Stations inside cluster head x's sector with its reach scaled,
        x excluded. Receive needs no aiming, so this is whom x's laser hits."""
        key = (x, scale)
        hit = self._beam.get(key)
        if hit is None:
            me = self.station(x)
            if me.kind is not StationKind.CLUSTER_HEAD:
                raise NotClusterHeadError(f"station {x} has no optical transmitter")
            sector = replace(me.sector, range=me.sector.range * scale)
            hit = self._beam[key] = frozenset(
                s.id
                for s in self._stations.values()
                if s.id != x and sector_contains(sector, s.position)
            )
        return hit

    def data_links(self, x: int) -> tuple[int, ...]:
        """Cluster heads inside cluster head x's beam and, for the
        handshake, in mutual radio range, ascending id. The base station, on
        dedicated uplinks with no radio contention, needs only the beam."""
        links = self._data_links.get(x)
        if links is None:
            hit, heard = self.beam(x), self.rf_reach(x)
            links = self._data_links[x] = tuple(
                w
                for w in sorted(hit)
                if w == self.sink
                or (self._stations[w].kind is StationKind.CLUSTER_HEAD
                    and w in heard and x in self.rf_reach(w))
            )
        return links

    def rf_hops(self, a: int) -> dict[int, int]:
        """Radio hop count from a to every station it can reach, by one BFS.
        An edge needs each endpoint inside the other's radio range. The
        dict is the cached one: read it, never modify it."""
        if a not in self._rf_hops:
            seen = {a: 0}
            queue = deque([a])
            while queue:
                cur = queue.popleft()
                for nxt in self.rf_reach(cur):
                    if nxt not in seen and cur in self.rf_reach(nxt):
                        seen[nxt] = seen[cur] + 1
                        queue.append(nxt)
            self._rf_hops[a] = seen
        return self._rf_hops[a]


def common_range(net: Network, x: int, y: int) -> frozenset[int]:
    """Stations audible to both x and y (neither endpoint included)."""
    return (net.rf_reach(x) & net.rf_reach(y)) - {x, y}


def fso_can_transmit(net: Network, frm: int, to: int) -> bool:
    """True iff the optical beam of `frm` covers station `to`.

    Only cluster heads transmit optically; receive needs no aiming because
    photodetectors are omnidirectional. Directionality makes this relation
    asymmetric in general.
    """
    hit = net.beam(frm)
    net.station(to)  # an unknown target is an error, not a miss
    return to in hit


def rf_hop_distance(net: Network, a: int, b: int) -> int | None:
    """Hop count of the shortest bidirectional radio path a..b, or None if
    disconnected. Edges require each endpoint inside the other's range."""
    if a == b:
        return 0
    net.station(a), net.station(b)
    return net.rf_hops(a).get(b)


def attach_point(net: Network, sid: int) -> int:
    """The cluster head where station sid's traffic enters the mesh: sid
    itself for a cluster head, otherwise the nearest one by (distance, id)."""
    me = net.station(sid)
    if me.kind is StationKind.CLUSTER_HEAD:
        return sid
    return min(
        (c.id for c in net.cluster_heads()),
        key=lambda c: (distance(me.position, net.station(c).position), c),
    )
