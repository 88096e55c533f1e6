"""Scenario dicts for the benchmark workloads.

Each entry of WORKLOADS returns a JSON-shaped scenario dict, the input
`wmsnsim run --scenario` reads; the run's seed goes to `Simulation`, not
into the scenario. Every workload uses 100 m grid cells, 11 RP slots,
20 CF slots and, where CBR is named, 1000-bit packets at 64 kb/s.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import math

HALF_PI = math.pi / 2.0
SINK = 1000

GRID6_FRAMES = 1000
GRID10_FRAMES = 60
LINE_FRAMES = 600
LINE_LEN = 8


def _ch(sid, x, y, reach=150.0, rf=200.0):
    return {
        "id": sid,
        "kind": "cluster_head",
        "position": [x, y],
        "rf_range": rf,
        "sector": {"theta": 0.0, "alpha": HALF_PI, "range": reach},
    }


def _sensor(sid, x, y):
    return {"id": sid, "kind": "sensor_node", "position": [x, y], "rf_range": 0.0}


def _sink(x, y):
    return {"id": SINK, "kind": "base_station", "position": [x, y], "rf_range": 0.0}


def _flow(fid, src, cls="CBR", mode="bonded", rate=64000, size=1000, **kw):
    d = {
        "id": fid, "src": src, "dst": SINK, "class": cls, "mode": mode,
        "rate_bps": rate, "packet_size_bits": size,
    }
    d.update(kw)
    return d


def _scenario(stations, flows, horizon, faults=()):
    return {
        "grid": {"cell_width": 100.0, "cell_height": 100.0, "rp_modulus": 11},
        "frame": {"rp_slots": 11, "cf_slots": 20},
        "horizon_frames": horizon,
        "stations": list(stations),
        "flows": list(flows),
        "faults": list(faults),
    }


def grid_cbr(k: int, horizon: int) -> dict:
    """k x k cluster heads on a 100 m pitch, beams east, sink east of the
    middle row, one bonded CBR flow out of each left-column station."""
    stations = [
        _ch(k * gy + gx, 50.0 + 100.0 * gx, 50.0 + 100.0 * gy)
        for gy in range(k)
        for gx in range(k)
    ]
    stations.append(_sink(50.0 + 100.0 * k, 50.0 + 100.0 * (k // 2)))
    flows = [_flow(gy + 1, k * gy) for gy in range(k)]
    return _scenario(stations, flows, horizon)


def line_mixed(horizon: int) -> dict:
    """A line of cluster heads with all five classes, sensor sources and
    injected control-message faults; offered load exceeds slot capacity."""
    stations = [_ch(i, 50.0 + 100.0 * i, 50.0) for i in range(LINE_LEN)]
    stations += [_sensor(100, 40.0, 80.0), _sensor(101, 260.0, 20.0)]
    stations.append(_sink(50.0 + 100.0 * LINE_LEN, 50.0))
    half = horizon // 2
    flows = [
        _flow(1, 0, cls="ABR", mode="none", rate=1_000_000, size=2000,
              burst_length=4),
        _flow(2, 100, cls="UBR", mode="none", rate=1_000_000, size=2000,
              burst_length=3),
        _flow(3, 3, cls="nrtVBR", mode="none", rate=1_000_000, size=2000,
              burst_length=2),
        _flow(4, 1, cls="rtVBR", rate=160000, size=2000),
        _flow(5, 0, stop_frame=half),
        _flow(6, 101, mode="semi_bonded", start_frame=horizon // 6,
              stop_frame=horizon - horizon // 6),
    ]
    faults = (
        [{"kind": "SRB", "frame": f, "sender": s} for f, s in ((3, 0), (40, 2), (90, 4))]
        + [{"kind": "CA", "frame": f, "sender": s} for f, s in ((5, 1), (61, 3), (120, 5))]
        + [{"kind": "CC", "frame": half + d, "sender": 2} for d in range(5)]
    )
    return _scenario(stations, flows, horizon, faults)


WORKLOADS = {
    "grid6-cbr": lambda: grid_cbr(6, GRID6_FRAMES),
    "grid10-route": lambda: grid_cbr(10, GRID10_FRAMES),
    "line-mixed": lambda: line_mixed(LINE_FRAMES),
}
