"""Stations, network construction, the link index, and the two
connectivity relations."""

import math
import random

import pytest

from wmsnsim import (
    GridSpec,
    Network,
    NotClusterHeadError,
    Point,
    Sector,
    Station,
    StationKind,
    UnknownStationError,
    attach_point,
    common_range,
    distance,
    fso_can_transmit,
    rf_hop_distance,
    sector_contains,
)

HALF_PI = math.pi / 2
GRID = GridSpec(cell_width=10.0, cell_height=10.0)


def make_net(stations, sink):
    return Network(stations, sink=sink, grid_spec=GRID)


def make_ch(i, x, y, theta=0.0, alpha=HALF_PI, reach=15.0, rf=10.0):
    return Station(
        id=i,
        kind=StationKind.CLUSTER_HEAD,
        position=Point(x, y),
        rf_range=rf,
        sector=Sector(Point(x, y), theta=theta, alpha=alpha, range=reach),
    )


def make_bs(i, x, y):
    return Station(id=i, kind=StationKind.BASE_STATION, position=Point(x, y))


def make_sensor(i, x, y, rf=5.0):
    return Station(id=i, kind=StationKind.SENSOR_NODE, position=Point(x, y), rf_range=rf)


def small_net():
    return make_net(
        [
            make_ch(0, 0, 0),
            make_ch(1, 8, 0, theta=math.pi),
            make_ch(2, 20, 0),
            make_bs(9, 30, 0),
            make_sensor(5, 1, 2),
        ],
        sink=9,
    )


def test_station_validation():
    with pytest.raises(ValueError):
        Station(id=-1, kind=StationKind.SENSOR_NODE, position=Point(0, 0))
    with pytest.raises(ValueError):
        Station(id=0, kind=StationKind.SENSOR_NODE, position=Point(0, 0), rf_range=-1)
    # a cluster head needs a sector anchored at its own position
    with pytest.raises(ValueError):
        Station(id=0, kind=StationKind.CLUSTER_HEAD, position=Point(0, 0), rf_range=1)
    with pytest.raises(ValueError):
        Station(
            id=0,
            kind=StationKind.CLUSTER_HEAD,
            position=Point(0, 0),
            rf_range=1,
            sector=Sector(Point(1, 0), theta=0, alpha=1, range=5),
        )


def test_network_construction_and_lookup():
    net = small_net()
    assert net.ids() == (0, 1, 2, 5, 9)
    assert net.sink == 9
    assert 5 in net and 7 not in net
    assert tuple(s.id for s in net.cluster_heads()) == (0, 1, 2)
    assert net.station(2).position == Point(20, 0)
    assert net.station(2).grid is not None
    with pytest.raises(UnknownStationError):
        net.station(7)


def test_network_rejects_duplicates_and_bad_sinks():
    with pytest.raises(ValueError):
        make_net([make_ch(0, 0, 0), make_ch(0, 5, 5), make_bs(9, 9, 9)], sink=9)
    with pytest.raises(UnknownStationError):
        make_net([make_ch(0, 0, 0), make_ch(1, 5, 5)], sink=9)
    # the sink must be the single base station
    with pytest.raises(ValueError):
        make_net([make_ch(0, 0, 0), make_bs(9, 9, 9)], sink=0)
    with pytest.raises(ValueError):
        make_net([make_bs(0, 0, 0), make_bs(9, 5, 5)], sink=9)


def test_rf_neighbors_uses_sender_range():
    net = small_net()
    # station 0 has rf 10: reaches 1 (d=8) and sensor 5, not 2 or 9
    assert net.rf_reach(0) == frozenset({1, 5})
    # the base station has rf 0: hears nothing over RF
    assert net.rf_reach(9) == frozenset()


def test_common_range_excludes_endpoints():
    net = small_net()
    got = common_range(net, 0, 1)
    assert 0 not in got and 1 not in got
    assert got == frozenset({5})


def test_fso_is_directional_and_asymmetric():
    net = small_net()
    # 0 beams east and reaches 1; 1 beams west, so the reverse also holds
    assert fso_can_transmit(net, 0, 1)
    assert fso_can_transmit(net, 1, 0)
    # 2 beams east toward the sink
    assert fso_can_transmit(net, 2, 9)
    # a station never links to itself
    assert not fso_can_transmit(net, 0, 0)
    # sensors and the sink cannot originate a laser link
    with pytest.raises(NotClusterHeadError):
        fso_can_transmit(net, 5, 0)
    with pytest.raises(NotClusterHeadError):
        fso_can_transmit(net, 9, 2)


def test_fso_matches_sector_oracle_on_random_layouts():
    rng = random.Random(57)
    for _ in range(60):
        n = rng.randint(3, 8)
        stations = [
            make_ch(
                i,
                rng.uniform(0, 40),
                rng.uniform(0, 40),
                theta=rng.uniform(0, 2 * math.pi),
                alpha=rng.uniform(0.3, 2 * math.pi),
                reach=rng.uniform(5, 35),
            )
            for i in range(n)
        ]
        stations.append(make_bs(99, rng.uniform(0, 40), rng.uniform(0, 40)))
        net = make_net(stations, sink=99)
        for s in stations[:-1]:
            for t in stations:
                if s.id == t.id:
                    assert not fso_can_transmit(net, s.id, t.id)
                else:
                    want = sector_contains(s.sector, t.position)
                    assert fso_can_transmit(net, s.id, t.id) == want


def test_link_index_matches_brute_force_geometry():
    rng = random.Random(83)
    for _ in range(40):
        stations = [
            make_ch(
                i,
                rng.uniform(0, 40),
                rng.uniform(0, 40),
                theta=rng.uniform(0, 2 * math.pi),
                alpha=rng.uniform(0.3, 2 * math.pi),
                reach=rng.uniform(5, 35),
                rf=rng.uniform(4, 25),
            )
            for i in range(rng.randint(2, 6))
        ]
        stations += [
            make_sensor(
                10 + i, rng.uniform(0, 40), rng.uniform(0, 40), rf=rng.uniform(1, 15)
            )
            for i in range(rng.randint(1, 4))
        ]
        stations.append(make_bs(99, rng.uniform(0, 40), rng.uniform(0, 40)))
        net = make_net(stations, sink=99)
        for scale in (1.0, 1.5):
            for s in stations:
                heard, hit = set(), set()
                for t in stations:
                    if t.id == s.id:
                        continue
                    dx, dy = t.position.x - s.position.x, t.position.y - s.position.y
                    if math.hypot(dx, dy) <= s.rf_range * scale:
                        heard.add(t.id)
                    if s.kind is StationKind.CLUSTER_HEAD:
                        off = (math.atan2(dy, dx) - s.sector.theta) % (2 * math.pi)
                        off = min(off, 2 * math.pi - off)
                        if (
                            math.hypot(dx, dy) <= s.sector.range * scale
                            and off <= s.sector.alpha / 2 + 1e-9
                        ):
                            hit.add(t.id)
                assert net.rf_reach(s.id, scale) == heard
                if s.kind is StationKind.CLUSTER_HEAD:
                    assert net.beam(s.id, scale) == hit
                else:
                    with pytest.raises(NotClusterHeadError):
                        net.beam(s.id, scale)


def test_attach_point_is_the_nearest_cluster_head_by_distance_then_id():
    stations = [make_ch(3, 0, 0), make_ch(1, 20, 0), make_ch(2, 10, 30)]
    stations += [make_sensor(5, 10, 0), make_sensor(6, 12, 0), make_bs(9, 50, 50)]
    net = make_net(stations, sink=9)
    assert attach_point(net, 2) == 2  # a cluster head is its own attach point
    assert attach_point(net, 5) == 1  # equidistant from 3 and 1: lower id wins
    assert attach_point(net, 6) == 1


def test_rf_hop_distance_requires_mutual_range():
    # a hears b but not vice versa: no usable edge
    a = make_ch(0, 0, 0, rf=10)
    b = make_ch(1, 8, 0, rf=5)
    net = make_net([a, b, make_bs(9, 100, 100)], sink=9)
    assert rf_hop_distance(net, 0, 1) is None


def test_rf_hop_distance_matches_bfs_oracle():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(3, 9)
        stations = [
            make_ch(i, rng.uniform(0, 30), rng.uniform(0, 30), rf=rng.uniform(4, 18))
            for i in range(n)
        ]
        stations.append(make_bs(99, 200, 200))
        net = make_net(stations, sink=99)
        # oracle: Floyd-Warshall over the mutual-range graph
        ids = [s.id for s in stations]
        INF = float("inf")
        dist = {(a, b): (0 if a == b else INF) for a in ids for b in ids}
        for s in stations:
            for t in stations:
                if s.id == t.id:
                    continue
                d = distance(s.position, t.position)
                if d <= s.rf_range and d <= t.rf_range:
                    dist[(s.id, t.id)] = 1
        for k in ids:
            for a in ids:
                for b in ids:
                    via = dist[(a, k)] + dist[(k, b)]
                    if via < dist[(a, b)]:
                        dist[(a, b)] = via
        for a in ids:
            for b in ids:
                want = dist[(a, b)]
                got = rf_hop_distance(net, a, b)
                assert got == (None if want == INF else want)
