"""Multipath route discovery over directional optical links.

The protocol floods a probe outward from the source under a
monotone-progress rule; every arrival at the sink records one path, and
the path whose intermediate stations deviate least from the straight
source-sink reference line wins. The flood is breadth-first with
candidates visited in ascending station id, so it returns arrivals
ordered by hop count, then lexicographically by hop sequence.

A hop follows a data link (`Network.data_links`: inside the holder's
beam and in mutual radio range). Discovery sends no probes in either
progress mode: it enumerates the simple source-sink paths of the
forwarding relation in the flood's order and returns exactly the flood's
first `max_paths` arrivals. Its work is one read of each relay's data
links plus a depth-first walk pruned by which hop counts can still reach
the sink. The per-hop probe API (`make_probe`, `forward_probe`,
`next_hop_candidates`) takes its successors from the same rule, one
holder at a time.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
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
from .topology import Network, StationKind
# not called here: perfbench/tracing.py wraps routing.fso_can_transmit
from .topology import fso_can_transmit  # noqa: F401

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

    A candidate must be a data link of the holder, make progress toward
    the sink, not already be on the path, and fit the hop budget. Only
    cluster heads relay; the sink itself is always a legal target. A
    holder that is no cluster head raises NotClusterHeadError.
    """
    _, successors = _forwarding_rule(
        net,
        probe.source,
        probe.sink,
        progress_mode,
        deviation_mode,
        probe.deviation_angle,
    )
    succ = successors(holder)
    if probe.hop_count >= probe.hop_budget:
        return []
    return [w for w in succ if w not in probe.path]


def _forwarding_rule(
    net: Network,
    source: int,
    sink: int,
    progress_mode: ProgressMode,
    deviation_mode: bool,
    deviation_angle: float,
) -> tuple[dict[int, float], Callable[[int], list[int]]]:
    """Who may relay a probe from `source`, and whom each holder may pass it to.

    Returns the relays, the stations that may follow the source (cluster
    heads and the sink, closer to the sink than the source and, with
    `deviation_mode`, inside the corridor), in ascending id, each with its
    distance to the sink; and a holder's successors: its data links among
    the relays that beat the distance to the sink the hop needs, the
    holder's own in GREEDY mode, the source's in LITERAL mode.
    """
    sink_pos = net.station(sink).position
    src_pos = net.station(source).position
    axis = bearing(src_pos, sink_pos)
    bound = distance(src_pos, sink_pos)
    relays = {}
    for st in net.stations():  # ascending id
        if st.kind is StationKind.CLUSTER_HEAD or st.id == sink:
            d = distance(st.position, sink_pos)
            if d < bound and (
                not deviation_mode
                or _in_corridor(st.position, src_pos, axis, deviation_angle)
            ):
                relays[st.id] = d
    greedy = progress_mode is ProgressMode.GREEDY

    def successors(holder: int) -> list[int]:
        limit = distance(net.station(holder).position, sink_pos) if greedy else bound
        return [w for w in net.data_links(holder) if w in relays and relays[w] < limit]

    return relays, successors


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

    Both progress modes enumerate the forwarding relation's simple paths
    instead of sending probes.
    """
    probe = make_probe(
        net,
        source,
        sink,
        deviation_angle=config.deviation_angle,
        hop_budget=config.hop_budget,
    )
    paths = _enumerate_paths(net, probe, config.progress_mode, config.deviation_mode)
    return list(islice(paths, config.max_paths))


def _enumerate_paths(
    net: Network,
    probe: ProbeMessage,
    progress_mode: ProgressMode,
    deviation_mode: bool,
) -> Iterator[Path]:
    """Simple source-sink paths of the forwarding relation, by hop count,
    then lexicographically, up to the probe's hop budget."""
    source, sink = probe.source, probe.sink
    relays, successors = _forwarding_rule(
        net, source, sink, progress_mode, deviation_mode, probe.deviation_angle
    )
    nodes = [source, *relays]
    # an arrival at the sink ends the probe, so the sink never transmits
    succ = {v: [] if v == sink else successors(v) for v in nodes}
    top = min(probe.hop_budget, len(nodes) - 1)
    # bit j of reach[v] is set iff some walk of exactly j <= top hops
    # leads from v to the sink. Every simple path is a walk, so a clear
    # bit rules a prefix out. Masks only grow and are bounded, so the
    # fixpoint terminates; on GREEDY's DAG successors are closer to the
    # sink, so ascending distance settles it in one pass.
    mask = (1 << top + 1) - 1
    reach = {v: int(v == sink) for v in nodes}
    order = sorted(relays, key=relays.__getitem__) + [source]  # the source is farthest
    changed = True
    while changed:
        changed = False
        for v in order:
            r = reach[v]
            for w in succ[v]:
                r |= reach[w] << 1
            r &= mask
            if r != reach[v]:
                reach[v] = r
                changed = True

    for k in range(1, top + 1):
        if not reach[source] >> k & 1:
            continue
        # depth-first in ascending id, entering only stations off the path
        # that can still reach the sink in exactly the hops left
        path = [source]
        stack = [iter(succ[source])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                path.pop()
                continue
            left = k - len(path)
            if not reach[w] >> left & 1 or w in path:
                continue
            if left == 0:
                yield Path((*path, w))
            else:
                path.append(w)
                stack.append(iter(succ[w]))


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


def selection_key(score: PathScore) -> tuple[float, int, tuple[int, ...]]:
    """Route preference, best first: lowest mean deviation, then fewer
    hops, then the lexicographically smallest hop sequence."""
    return (score.mean_deviation, score.path.hop_count, score.path.hops)


def select_best_path(scores: list[PathScore]) -> PathScore:
    """The first path by `selection_key`."""
    if not scores:
        raise EmptyPathSetError("no candidate paths")
    return min(scores, key=selection_key)


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
