"""Scenario builders shared across the test modules, plus a counter of
serialised trace events.

Each builder returns a plain JSON-shaped dict so tests can tweak any
field before handing it to from_dict().
"""

import math

from wmsnsim import engine

HALF_PI = math.pi / 2.0


def ch(i, x, y, theta=0.0, alpha=HALF_PI, reach=150.0, rf=120.0):
    return {
        "id": i,
        "kind": "cluster_head",
        "position": [x, y],
        "rf_range": rf,
        "sector": {"theta": theta, "alpha": alpha, "range": reach},
    }


def bs(i, x, y):
    return {"id": i, "kind": "base_station", "position": [x, y], "rf_range": 0.0}


def sensor(i, x, y):
    return {"id": i, "kind": "sensor_node", "position": [x, y], "rf_range": 0.0}


def flow(i, src, dst, cls="CBR", mode="bonded", rate=64000, size=1000, **kw):
    d = {
        "id": i, "src": src, "dst": dst, "class": cls, "mode": mode,
        "rate_bps": rate, "packet_size_bits": size,
    }
    d.update(kw)
    return d


def base(stations, flows=(), horizon=200, faults=(), **top):
    data = {
        "grid": {"cell_width": 100.0, "cell_height": 100.0, "rp_modulus": 11},
        "frame": {"rp_slots": 11, "cf_slots": 20},
        "horizon_frames": horizon,
        "stations": list(stations),
        "flows": list(flows),
        "faults": list(faults),
    }
    data.update(top)
    return data


def two_hop(horizon=200, stop_frame=None, faults=(), mode="bonded", rate=64000):
    """One CBR flow over CH 1 -> CH 2 -> base station 9, straight line."""
    f = flow(1, 1, 9, mode=mode, rate=rate)
    if stop_frame is not None:
        f["stop_frame"] = stop_frame
    stations = [ch(1, 50, 50), ch(2, 150, 50), bs(9, 250, 50)]
    return base(stations, [f], horizon=horizon, faults=faults)


def sensor_without_cluster_head():
    """A sensor flow 1 -> base station 9 with no cluster head to carry it."""
    return base([sensor(1, 50, 50), bs(9, 150, 50)], [flow(1, 1, 9)], horizon=5)


def mixed_traffic(horizon=120):
    """Real-time, plain real-time, and datagram flows sharing one hop."""
    stations = [ch(1, 50, 50), ch(2, 150, 50), bs(9, 250, 50)]
    flows = [
        flow(1, 1, 9, cls="rtVBR", mode="bonded", rate=160000, size=2000),
        flow(2, 1, 9, cls="CBR", mode="none", rate=64000),
        flow(3, 1, 9, cls="ABR", mode="none", rate=1_000_000, size=4000,
             burst_length=8),
    ]
    return base(stations, flows, horizon=horizon)


def grid(n=5, flows=(), horizon=200, slotting=True, faults=(), rf=150.0, reach=150.0):
    """n x n cluster heads at cell centers, base station east of the
    middle row. Station id is n*gy + gx; the base station is id 100.

    With rf 150 cells sharing a schedule slot sit at least
    sqrt(10)*100 ~ 316 apart, well past the interference radius, so
    compliant slotting cannot produce control collisions here.
    """
    stations = [
        ch(n * gy + gx, 50.0 + 100.0 * gx, 50.0 + 100.0 * gy, rf=rf, reach=reach)
        for gy in range(n)
        for gx in range(n)
    ]
    stations.append(bs(100, 50.0 + 100.0 * n, 50.0 + 100.0 * (n // 2)))
    data = base(stations, flows, horizon=horizon, faults=faults)
    if not slotting:
        data["mac"] = {"slotting_enabled": False}
    return data


def grid_flows(n=5, count=3, rate=64000):
    """CBR flows out of column 0, one per row starting at row 0."""
    return [
        flow(k + 1, n * k, 100, mode="bonded", rate=rate) for k in range(count)
    ]


def hidden_receiver_grid(horizon=60):
    """Grid-6 with rf = reach = 150: a bystander that overhears a
    receiver's accept but not the initiator's broadcast never marks the
    slot, and data packets collide there."""
    return grid(6, flows=grid_flows(6, 6), horizon=horizon, rf=150.0, reach=150.0)


def wide_footprint_grid(horizon=40):
    """Grid-4 whose lasers disturb 1.5 x their reach, past what the
    reservation broadcast covers: bonded reservations collide."""
    data = grid(4, flows=grid_flows(4, 3), horizon=horizon, rf=220.0)
    data["channel"] = {"interference_multiplier": 1.5}
    return data


def short_radio_grid(horizon=100):
    """Grid-6 with six flows whose beams reach the 141 m diagonals but
    whose radios reach only 120 m: a diagonal is no data link."""
    return grid(6, flows=grid_flows(6, count=6), horizon=horizon, rf=120.0, reach=150.0)


def hidden_terminal(horizon=60):
    """a and b sit in distant cells that share RP slot 5 (3*3+2*1+5 = 16
    = 5 mod 11), both within decode range of r but hidden from each
    other. Their first requests go out in the same slot of the same
    frame and collide at r."""
    a_theta = math.atan2(50.0, 150.0)  # a aims at r
    b_theta = math.atan2(-50.0, -150.0)  # b aims back at r
    stations = [
        ch(1, 50, 50, theta=a_theta, reach=170, rf=170),
        ch(2, 350, 150, theta=b_theta, reach=170, rf=170),
        ch(3, 200, 100, theta=HALF_PI, reach=210, rf=170),
        bs(9, 200, 300),
    ]
    flows = [flow(1, 1, 9), flow(2, 2, 9)]
    return base(stations, flows, horizon=horizon)


def contention(horizon=50):
    """Two cluster heads in the same grid cell, both with traffic toward
    the same relay: carrier sensing and seeded backoff decide who goes
    first."""
    stations = [
        ch(1, 30, 50),
        ch(2, 70, 50),
        ch(3, 150, 50),
        bs(9, 250, 50),
    ]
    flows = [flow(1, 1, 9), flow(2, 2, 9)]
    return base(stations, flows, horizon=horizon)


def churn(horizon=80):
    """Cluster heads 1-4 on a line toward base station 9, head 5 in head
    1's grid cell, sensors 20 and 21: every class at once. Datagram
    bursts reserve and expire every frame, same-cell contention and a
    lost CA force backoff, the CBR flow out of head 1 stops and its
    cancel is lost once, sensor 20's rtVBR flow overloads its slot and
    misses deadlines, and the last hop is the polled uplink."""
    stations = [ch(i, 50.0 + 100.0 * (i - 1), 50.0, rf=200.0) for i in range(1, 5)]
    stations += [
        ch(5, 80.0, 60.0, rf=200.0),
        sensor(20, 40.0, 80.0),
        sensor(21, 160.0, 20.0),
        bs(9, 450.0, 50.0),
    ]
    flows = [
        flow(1, 1, 9, stop_frame=40),
        flow(2, 20, 9, cls="rtVBR", rate=400000, size=2000),
        flow(3, 5, 9, cls="ABR", mode="none", rate=1_000_000, size=2000, burst_length=4),
        flow(4, 21, 9, cls="UBR", mode="none", rate=1_000_000, size=2000, burst_length=3),
        flow(5, 2, 9, mode="semi_bonded", start_frame=10, stop_frame=50),
    ]
    faults = [
        {"kind": "CA", "frame": 3, "sender": 2},
        {"kind": "CC", "frame": 42, "sender": 1},
    ]
    return base(stations, flows, horizon=horizon, faults=faults)


def record_trace_lines(monkeypatch):
    """Records every event line the engine makes from now on, in order;
    returns the list it fills. Each kind in engine._SHAPES has its own
    emitter, Simulation._emit_<kind>, which makes its event's line, and
    engine._line makes every other: those of Simulation._emit and of
    engine._trace_lines, and an emitter's line when the kind's template
    does not fit. A _line call inside an emitter makes that emitter's
    line, so it is recorded once."""
    made = []
    inside = [False]
    real_line = engine._line

    def line(*args):
        text = real_line(*args)
        if not inside[0]:
            made.append(text)
        return text

    def recorded(emit):
        def emitter(self, *args, **detail):
            inside[0] = True
            try:
                emit(self, *args, **detail)
            finally:
                inside[0] = False
            made.append(self._lines[-1])
        return emitter

    monkeypatch.setattr(engine, "_line", line)
    for kind in engine._SHAPES:
        name = f"_emit_{kind}"
        monkeypatch.setattr(engine.Simulation, name, recorded(getattr(engine.Simulation, name)))
    return made
