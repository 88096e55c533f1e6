"""Multipath route discovery over directional optical links.

The protocol floods a probe outward from the source under a
monotone-progress rule; every arrival at the sink records one path, and
the path whose intermediate stations deviate least from the straight
source-sink reference line wins. The flood is breadth-first with
candidates visited in ascending station id, so it returns arrivals
ordered by hop count, then lexicographically by hop sequence.

In GREEDY mode every hop is strictly closer to the sink, so the forwarding
relation is a DAG. Discovery there sends no probes: it enumerates the
DAG's source-sink paths in the flood's order and returns exactly the
flood's first `max_paths` arrivals. Its work is at most one beam test per
station pair plus a walk along the paths it returns. LITERAL mode is not
a DAG and still floods, with no bound on its work.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .geometry import (
    ANGLE_TOL,
    Point,
    angle_diff,
    bearing,
    distance,
    point_to_line_distance,
)
from .topology import Network, NotClusterHeadError, StationKind, fso_can_transmit

DEFAULT_MAX_PATHS = 16


class InvalidEndpointError(ValueError):
    """Raised for probe endpoints that cannot anchor a route."""


class EmptyPathSetError(ValueError):
    """Raised when a best path is requested from no paths."""


class ProgressMode(str, Enum):
    # GREEDY: next hop must be closer to the sink than the current holder.
    # LITERAL: next hop must merely be closer to the sink than the source.
    GREEDY = "greedy"
    LITERAL = "literal"


@dataclass(frozen=True)
class RouteConfig:
    progress_mode: ProgressMode = ProgressMode.GREEDY
    hop_budget: int | None = None  # None: station count at discovery time
    max_paths: int = DEFAULT_MAX_PATHS
    deviation_mode: bool = False
    deviation_angle: float = math.pi

    def __post_init__(self):
        if self.hop_budget is not None and self.hop_budget < 1:
            raise ValueError("hop_budget must be >= 1")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if self.deviation_angle <= 0.0:
            raise ValueError("deviation_angle must be positive")


@dataclass(frozen=True)
class ProbeMessage:
    """Route probe. source/sink/deviation_angle/hop_budget are fixed at
    creation; hop_count, previous_hop, position and the path vector update
    at every forward."""

    source: int
    sink: int
    deviation_angle: float
    hop_budget: int
    hop_count: int
    previous_hop: int
    position: Point
    path: tuple[int, ...]


@dataclass(frozen=True)
class Path:
    hops: tuple[int, ...]

    def __post_init__(self):
        if len(self.hops) < 2:
            raise ValueError("a path needs at least two stations")
        if len(set(self.hops)) != len(self.hops):
            raise ValueError(f"path revisits a station: {self.hops}")

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1


@dataclass(frozen=True)
class PathScore:
    path: Path
    mean_deviation: float
    intermediate_deviations: tuple[float, ...]


def make_probe(
    net: Network,
    source: int,
    sink: int,
    deviation_angle: float = math.pi,
    hop_budget: int | None = None,
) -> ProbeMessage:
    src = net.station(source)
    net.station(sink)
    if src.kind is not StationKind.CLUSTER_HEAD:
        raise InvalidEndpointError(f"source {source} is not a cluster head")
    if source == sink:
        raise InvalidEndpointError("source and sink must differ")
    if hop_budget is None:
        hop_budget = len(net.ids())
    if hop_budget < 1:
        raise InvalidEndpointError(f"hop budget must be >= 1, got {hop_budget}")
    return ProbeMessage(
        source=source,
        sink=sink,
        deviation_angle=deviation_angle,
        hop_budget=hop_budget,
        hop_count=0,
        previous_hop=source,
        position=src.position,
        path=(source,),
    )


def forward_probe(net: Network, probe: ProbeMessage, to: int) -> ProbeMessage:
    """Copy of the probe as station `to` would re-broadcast it."""
    st = net.station(to)
    return ProbeMessage(
        source=probe.source,
        sink=probe.sink,
        deviation_angle=probe.deviation_angle,
        hop_budget=probe.hop_budget,
        hop_count=probe.hop_count + 1,
        previous_hop=probe.path[-1],
        position=st.position,
        path=probe.path + (to,),
    )


def next_hop_candidates(
    net: Network,
    holder: int,
    probe: ProbeMessage,
    progress_mode: ProgressMode = ProgressMode.GREEDY,
    deviation_mode: bool = False,
) -> list[int]:
    """Stations the probe may be forwarded to, ascending id.

    A candidate must sit inside the holder's beam, make progress toward
    the sink, not already be on the path, and fit the hop budget. Only
    cluster heads relay; the sink itself is always a legal target.
    """
    holder_st = net.station(holder)
    if holder_st.kind is not StationKind.CLUSTER_HEAD:
        raise NotClusterHeadError(f"probe holder {holder} cannot transmit")
    if probe.hop_count >= probe.hop_budget:
        return []

    sink_pos = net.station(probe.sink).position
    src_pos = net.station(probe.source).position
    if progress_mode is ProgressMode.GREEDY:
        reference = distance(holder_st.position, sink_pos)
    else:
        reference = distance(src_pos, sink_pos)
    if deviation_mode:
        axis = bearing(src_pos, sink_pos)

    out = []
    for st in net.stations():
        if st.id == holder or st.id in probe.path:
            continue
        if st.kind is not StationKind.CLUSTER_HEAD and st.id != probe.sink:
            continue
        if not fso_can_transmit(net, holder, st.id):
            continue
        if not distance(st.position, sink_pos) < reference:
            continue
        if deviation_mode and not _in_corridor(
            st.position, src_pos, axis, probe.deviation_angle
        ):
            continue
        out.append(st.id)
    return out


def _in_corridor(pos: Point, src_pos: Point, axis: float, angle: float) -> bool:
    """Deviation filter: the bearing from the source to `pos` lies within
    `angle` of the source-sink axis. A station at the source's position
    has no bearing and always passes."""
    if pos == src_pos:
        return True
    return abs(angle_diff(bearing(src_pos, pos), axis)) <= angle + ANGLE_TOL


def collect_paths(
    net: Network,
    source: int,
    sink: int,
    config: RouteConfig = RouteConfig(),
) -> list[Path]:
    """The probe flood's sink arrivals, in arrival order (hop count, then
    hop sequence), capped at config.max_paths.

    GREEDY mode enumerates the progress DAG and sends no probes; LITERAL
    mode runs the flood itself.
    """
    if config.progress_mode is ProgressMode.LITERAL:
        return _flood_paths(net, source, sink, config)
    probe = make_probe(
        net,
        source,
        sink,
        deviation_angle=config.deviation_angle,
        hop_budget=config.hop_budget,
    )
    paths = _greedy_paths(net, probe, config.deviation_mode)
    return list(islice(paths, config.max_paths))


def _greedy_paths(
    net: Network, probe: ProbeMessage, deviation_mode: bool
) -> Iterator[Path]:
    """Source-sink paths of the GREEDY progress DAG, by hop count, then
    lexicographically, up to the probe's hop budget. With `deviation_mode`
    every station must also lie within the probe's deviation angle."""
    source, sink = probe.source, probe.sink
    sink_pos = net.station(sink).position
    src_pos = net.station(source).position
    axis = bearing(src_pos, sink_pos)
    dist = {
        st.id: distance(st.position, sink_pos)
        for st in net.stations()
        if st.kind is StationKind.CLUSTER_HEAD or st.id == sink
    }
    # every hop is strictly closer to the sink than its holder, so only
    # stations closer than the source can follow it; the deviation filter
    # depends on the candidate alone, so it thins the station set up front
    nodes = [source] + [
        v
        for v in dist
        if dist[v] < dist[source]
        and (
            not deviation_mode
            or _in_corridor(
                net.station(v).position, src_pos, axis, probe.deviation_angle
            )
        )
    ]
    # the sink sits at distance 0, so it gets no successors and is never
    # asked to transmit
    succ = {
        v: [w for w in nodes if dist[w] < dist[v] and fso_can_transmit(net, v, w)]
        for v in nodes
    }
    # bit j of reach[v] is set iff some v->sink path has exactly j hops;
    # successors are closer to the sink, so ascending distance visits
    # them first
    reach = {}
    for v in sorted(nodes, key=dist.__getitem__):
        reach[v] = 1 if v == sink else 0
        for w in succ[v]:
            reach[v] |= reach[w] << 1

    for k in range(1, min(probe.hop_budget, len(nodes) - 1) + 1):
        if not reach[source] >> k & 1:
            continue
        # depth-first in ascending id, entering only stations that can
        # still reach the sink in exactly the hops left
        path = [source]
        stack = [iter(succ[source])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                path.pop()
                continue
            left = k - len(path)
            if not reach[w] >> left & 1:
                continue
            if left == 0:
                yield Path((*path, w))
            else:
                path.append(w)
                stack.append(iter(succ[w]))


def _flood_paths(
    net: Network,
    source: int,
    sink: int,
    config: RouteConfig = RouteConfig(),
) -> list[Path]:
    """Breadth-first probe expansion; one Path per probe arrival at the
    sink, in discovery order, capped at config.max_paths. Probes that
    never reach the sink are forwarded too, so the work can grow
    exponentially with the network."""
    probe = make_probe(
        net,
        source,
        sink,
        deviation_angle=config.deviation_angle,
        hop_budget=config.hop_budget,
    )
    found: list[Path] = []
    queue = deque([probe])
    while queue:
        cur = queue.popleft()
        for cand in next_hop_candidates(
            net,
            cur.path[-1],
            cur,
            progress_mode=config.progress_mode,
            deviation_mode=config.deviation_mode,
        ):
            child = forward_probe(net, cur, cand)
            if cand == sink:
                found.append(Path(child.path))
                if len(found) >= config.max_paths:
                    return found
            else:
                queue.append(child)
    return found


def score_path(net: Network, path: Path) -> PathScore:
    """Mean perpendicular deviation of the intermediate stations from the
    source-sink reference line. Direct paths score 0.0."""
    src = net.station(path.hops[0]).position
    dst = net.station(path.hops[-1]).position
    devs = tuple(
        point_to_line_distance(net.station(h).position, src, dst)
        for h in path.hops[1:-1]
    )
    if devs:
        mean = sum(devs) / (path.hop_count - 1)
    else:
        mean = 0.0
    return PathScore(path=path, mean_deviation=mean, intermediate_deviations=devs)


def select_best_path(scores: list[PathScore]) -> PathScore:
    """Lowest mean deviation wins; ties break to fewer hops, then to the
    lexicographically smallest hop sequence."""
    if not scores:
        raise EmptyPathSetError("no candidate paths")
    return min(scores, key=lambda s: (s.mean_deviation, s.path.hop_count, s.path.hops))


def discover(
    net: Network,
    source: int,
    sink: int,
    config: RouteConfig = RouteConfig(),
) -> PathScore | None:
    """Convenience wrapper: collect, score, select. None if unroutable."""
    paths = collect_paths(net, source, sink, config)
    if not paths:
        return None
    return select_best_path([score_path(net, p) for p in paths])
