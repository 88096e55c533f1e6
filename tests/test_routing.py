"""Probe-based multipath discovery and path scoring."""

import math
import random
from collections import deque

import pytest

from wmsnsim import (
    EmptyPathSetError,
    GridSpec,
    InvalidEndpointError,
    Network,
    Path,
    Point,
    ProgressMode,
    RouteConfig,
    Sector,
    Station,
    StationKind,
    collect_paths,
    discover,
    forward_probe,
    make_probe,
    next_hop_candidates,
    score_path,
    select_best_path,
)

GRID = GridSpec(cell_width=10.0, cell_height=10.0)
TWO_PI = 2 * math.pi


def omni_ch(i, x, y, reach):
    # full-circle sector: pure range-limited broadcast
    return Station(
        id=i,
        kind=StationKind.CLUSTER_HEAD,
        position=Point(x, y),
        rf_range=reach,
        sector=Sector(Point(x, y), theta=0.0, alpha=TWO_PI, range=reach),
    )


def make_bs(i, x, y):
    return Station(id=i, kind=StationKind.BASE_STATION, position=Point(x, y))


def aimed_ch(i, x, y, theta, alpha=0.8, reach=12.0):
    return Station(
        id=i,
        kind=StationKind.CLUSTER_HEAD,
        position=Point(x, y),
        rf_range=reach,
        sector=Sector(Point(x, y), theta=theta, alpha=alpha, range=reach),
    )


def two_chain_net():
    """Source 0, sink 9, an upper relay chain (1, 2) and a lower one
    (3, 4). Narrow beams aimed along each chain leave exactly two sink
    paths."""
    return Network(
        [
            aimed_ch(0, 0, 0, theta=-0.0875),  # beam spans both chain heads
            aimed_ch(1, 10, 3, theta=0.0),
            aimed_ch(2, 20, 3, theta=math.atan2(-3, 10)),
            aimed_ch(3, 10, -5, theta=0.0),
            aimed_ch(4, 20, -5, theta=math.atan2(5, 10)),
            make_bs(9, 30, 0),
        ],
        sink=9,
        grid_spec=GRID,
    )


def test_make_probe_validation():
    net = two_chain_net()
    with pytest.raises(InvalidEndpointError):
        make_probe(net, 9, 0)  # base station cannot source a probe
    with pytest.raises(InvalidEndpointError):
        make_probe(net, 0, 0)
    with pytest.raises(InvalidEndpointError):
        make_probe(net, 0, 9, hop_budget=0)
    p = make_probe(net, 0, 9)
    assert p.hop_budget == len(net.ids())
    assert p.path == (0,)
    assert p.hop_count == 0


def test_forward_probe_updates_vector():
    net = two_chain_net()
    p = make_probe(net, 0, 9)
    q = forward_probe(net, p, 1)
    assert q.path == (0, 1)
    assert q.hop_count == 1
    assert q.previous_hop == 0
    assert q.position == net.station(1).position
    # the original probe is untouched
    assert p.path == (0,)


def test_two_chain_paths_and_scores():
    net = two_chain_net()
    paths = collect_paths(net, 0, 9)
    assert {p.hops for p in paths} == {(0, 1, 2, 9), (0, 3, 4, 9)}
    scores = {s.path.hops: s for s in map(lambda p: score_path(net, p), paths)}
    # relays sit 3 and 5 off the y=0 reference line
    assert scores[(0, 1, 2, 9)].mean_deviation == pytest.approx(3.0)
    assert scores[(0, 3, 4, 9)].mean_deviation == pytest.approx(5.0)
    assert scores[(0, 1, 2, 9)].intermediate_deviations == pytest.approx((3.0, 3.0))
    best = select_best_path(list(scores.values()))
    assert best.path.hops == (0, 1, 2, 9)
    got = discover(net, 0, 9)
    assert got is not None and got.path.hops == (0, 1, 2, 9)


def test_direct_path_scores_zero():
    net = two_chain_net()
    assert score_path(net, Path((0, 9))).mean_deviation == 0.0


def test_select_best_path_tiebreaks():
    net = two_chain_net()
    a = score_path(net, Path((0, 1, 2, 9)))
    assert select_best_path([a, a]).path.hops == a.path.hops
    # equal deviation, fewer hops wins
    flat = Network(
        [
            omni_ch(0, 0, 0, 40),
            omni_ch(1, 10, 0, 40),
            omni_ch(2, 20, 0, 40),
            make_bs(9, 30, 0),
        ],
        sink=9,
        grid_spec=GRID,
    )
    short = score_path(flat, Path((0, 1, 9)))
    long = score_path(flat, Path((0, 1, 2, 9)))
    assert select_best_path([long, short]).path is short.path
    with pytest.raises(EmptyPathSetError):
        select_best_path([])


def test_progress_mode_greedy_vs_literal():
    # B is farther from the sink than A but still closer than the source:
    # LITERAL admits the A->B hop, GREEDY rejects it
    net = Network(
        [
            omni_ch(0, 0, 0, 15),
            omni_ch(1, 10, 0, 15),  # A
            omni_ch(2, 11, 5, 15),  # B
            make_bs(9, 20, 0),
        ],
        sink=9,
        grid_spec=GRID,
    )
    probe = forward_probe(net, make_probe(net, 0, 9), 1)
    greedy = next_hop_candidates(net, 1, probe, progress_mode=ProgressMode.GREEDY)
    literal = next_hop_candidates(net, 1, probe, progress_mode=ProgressMode.LITERAL)
    assert 2 not in greedy
    assert 2 in literal
    assert 9 in greedy and 9 in literal


def test_hop_budget_limits_depth():
    net = two_chain_net()
    assert collect_paths(net, 0, 9, RouteConfig(hop_budget=2)) == []
    assert len(collect_paths(net, 0, 9, RouteConfig(hop_budget=3))) == 2


def test_max_paths_caps_collection():
    net = two_chain_net()
    paths = collect_paths(net, 0, 9, RouteConfig(max_paths=1))
    assert len(paths) == 1


def test_deviation_mode_prunes_wide_angles():
    net = two_chain_net()
    # relay 3 sits at atan2(-5, 10) ~ 26.6 degrees off the source-sink
    # axis; a 20 degree corridor keeps only the upper chain
    cfg = RouteConfig(deviation_mode=True, deviation_angle=math.radians(20))
    paths = collect_paths(net, 0, 9, cfg)
    assert {p.hops for p in paths} == {(0, 1, 2, 9)}
    # a 30 degree corridor readmits it
    cfg = RouteConfig(deviation_mode=True, deviation_angle=math.radians(30))
    assert len(collect_paths(net, 0, 9, cfg)) == 2


def test_candidates_exclude_path_and_non_relays():
    net = two_chain_net()
    probe = forward_probe(net, make_probe(net, 0, 9), 1)
    cands = next_hop_candidates(net, 1, probe)
    assert 0 not in cands  # already on the path
    assert 1 not in cands  # holder itself
    assert cands == sorted(cands)


def test_route_config_validation():
    with pytest.raises(ValueError):
        RouteConfig(hop_budget=0)
    with pytest.raises(ValueError):
        RouteConfig(max_paths=0)
    with pytest.raises(ValueError):
        RouteConfig(deviation_angle=0.0)


def random_net(rng, draw_rf=False):
    """4 to 12 cluster heads with random beams and a sink in a 300 m
    square. Radios reach 1000 m, past every station, unless draw_rf
    draws each one's range too."""
    n = rng.randint(4, 12)
    stations = []
    for i in range(n):
        x, y = rng.uniform(0, 300), rng.uniform(0, 300)
        alpha = TWO_PI if rng.random() < 0.3 else rng.uniform(0.6, TWO_PI)
        stations.append(
            Station(
                id=i,
                kind=StationKind.CLUSTER_HEAD,
                position=Point(x, y),
                rf_range=rng.uniform(80, 260) if draw_rf else 1000.0,
                sector=Sector(
                    Point(x, y),
                    theta=rng.uniform(0, TWO_PI),
                    alpha=alpha,
                    range=rng.uniform(80, 260),
                ),
            )
        )
    stations.append(make_bs(99, rng.uniform(0, 300), rng.uniform(0, 300)))
    return Network(stations, sink=99, grid_spec=GRID)


def oracle_paths(net, source, sink, budget, mode, radio=True):
    """Exhaustive DFS with the forwarding rule restated from scratch. With
    radio, a hop to a cluster head also needs mutual radio range."""
    sink_pos = net.station(sink).position
    src_pos = net.station(source).position
    out = []

    def legal(holder, path):
        holder_st = net.station(holder)
        res = []
        for st in net.stations():
            if st.id in path:
                continue
            if st.id != sink and st.kind is not StationKind.CLUSTER_HEAD:
                continue
            d = math.hypot(
                st.position.x - holder_st.position.x,
                st.position.y - holder_st.position.y,
            )
            if d > holder_st.sector.range:
                continue
            if radio and st.id != sink and d > min(holder_st.rf_range, st.rf_range):
                continue
            if d > 0:
                off = (
                    math.atan2(
                        st.position.y - holder_st.position.y,
                        st.position.x - holder_st.position.x,
                    )
                    - holder_st.sector.theta
                )
                off = math.atan2(math.sin(off), math.cos(off))
                if abs(off) > holder_st.sector.alpha / 2 + 1e-9:
                    continue
            here = math.hypot(
                sink_pos.x - st.position.x, sink_pos.y - st.position.y
            )
            if mode is ProgressMode.GREEDY:
                ref = math.hypot(
                    sink_pos.x - holder_st.position.x,
                    sink_pos.y - holder_st.position.y,
                )
            else:
                ref = math.hypot(sink_pos.x - src_pos.x, sink_pos.y - src_pos.y)
            if not here < ref:
                continue
            res.append(st.id)
        return res

    def walk(path):
        if len(path) - 1 >= budget:
            return
        for nxt in legal(path[-1], path):
            if nxt == sink:
                out.append(path + (nxt,))
            else:
                walk(path + (nxt,))

    walk((source,))
    return set(out)


def test_collect_paths_matches_dfs_oracle():
    rng = random.Random(73)
    for _ in range(60):
        net = random_net(rng)
        mode = rng.choice([ProgressMode.GREEDY, ProgressMode.LITERAL])
        cfg = RouteConfig(progress_mode=mode, max_paths=10_000)
        got = {p.hops for p in collect_paths(net, 0, 99, cfg)}
        want = oracle_paths(net, 0, 99, len(net.ids()), mode)
        assert got == want


def test_collect_paths_matches_dfs_oracle_with_radio_range():
    rng = random.Random(83)
    range_cut = 0
    for _ in range(60):
        net = random_net(rng, draw_rf=True)
        mode = rng.choice([ProgressMode.GREEDY, ProgressMode.LITERAL])
        cfg = RouteConfig(progress_mode=mode, max_paths=10_000)
        got = {p.hops for p in collect_paths(net, 0, 99, cfg)}
        want = oracle_paths(net, 0, 99, len(net.ids()), mode)
        assert got == want
        range_cut += want != oracle_paths(net, 0, 99, len(net.ids()), mode, radio=False)
    assert range_cut > 5  # the range test must actually remove paths


def test_discover_picks_global_minimum():
    rng = random.Random(79)
    found_some = 0
    for _ in range(40):
        net = random_net(rng)
        cfg = RouteConfig(max_paths=10_000)
        best = discover(net, 0, 99, cfg)
        all_paths = oracle_paths(net, 0, 99, len(net.ids()), ProgressMode.GREEDY)
        if not all_paths:
            assert best is None
            continue
        found_some += 1
        scored = [score_path(net, Path(h)) for h in sorted(all_paths)]
        want = min(
            scored, key=lambda s: (s.mean_deviation, s.path.hop_count, s.path.hops)
        )
        assert best.path.hops == want.path.hops
        assert best.mean_deviation == pytest.approx(want.mean_deviation)
    assert found_some > 5  # the layouts must actually exercise selection


def flood_paths(net, source, sink, config):
    """The protocol itself: a breadth-first probe flood with one Path per
    arrival at the sink, in arrival order, capped at config.max_paths."""
    probe = make_probe(
        net,
        source,
        sink,
        deviation_angle=config.deviation_angle,
        hop_budget=config.hop_budget,
    )
    found = []
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


@pytest.mark.parametrize("mode", list(ProgressMode))
def test_discovery_matches_the_flood_in_order(mode):
    rng = random.Random(97)
    corridors = [
        {},
        {"deviation_mode": True, "deviation_angle": 0.3},
        {"deviation_mode": True, "deviation_angle": 1.5},
    ]
    cases = 0
    for _ in range(50):
        net = random_net(rng)
        for src in (s.id for s in net.cluster_heads()):
            for max_paths in (1, 4, 16):
                for hop_budget in (1, 2, 3, None):
                    for corridor in corridors:
                        cfg = RouteConfig(
                            progress_mode=mode,
                            max_paths=max_paths,
                            hop_budget=hop_budget,
                            **corridor,
                        )
                        got = collect_paths(net, src, 99, cfg)
                        assert got == flood_paths(net, src, 99, cfg)
                        cases += bool(got)
    assert cases > 4000  # most cases must find paths to compare


def grid_net(k):
    """k x k cluster heads on a 100 m pitch, beams east with reach 150,
    sink 1000 east of the middle row."""
    stations = []
    for gy in range(k):
        for gx in range(k):
            x, y = 50.0 + 100.0 * gx, 50.0 + 100.0 * gy
            stations.append(
                Station(
                    id=k * gy + gx,
                    kind=StationKind.CLUSTER_HEAD,
                    position=Point(x, y),
                    rf_range=200.0,
                    sector=Sector(
                        Point(x, y), theta=0.0, alpha=math.pi / 2, range=150.0
                    ),
                )
            )
    stations.append(make_bs(1000, 50.0 + 100.0 * k, 50.0 + 100.0 * (k // 2)))
    grid = GridSpec(cell_width=100.0, cell_height=100.0)
    return Network(stations, sink=1000, grid_spec=grid)


@pytest.mark.parametrize("mode", list(ProgressMode))
def test_discovery_work_is_bounded_on_grid12(monkeypatch, mode):
    # the probe flood made over half a million beam tests per flow on the
    # 10 x 10 grid in either mode, and more on this one; discovery now
    # examines each relay's data links once
    net = grid_net(12)
    n = len(net.ids())
    examined = 0
    data_links = net.data_links

    def counted(x):
        nonlocal examined
        links = data_links(x)
        examined += len(links)
        return links

    monkeypatch.setattr(net, "data_links", counted)
    for gy in range(12):
        examined = 0
        paths = collect_paths(net, 12 * gy, 1000, RouteConfig(progress_mode=mode))
        assert 0 < examined <= n * n
        assert len(paths) == RouteConfig().max_paths
        assert paths == sorted(paths, key=lambda p: (p.hop_count, p.hops))
        assert len({p.hops for p in paths}) == len(paths)
