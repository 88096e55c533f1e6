"""End-to-end engine behavior: channel resolution, scheduling, energy,
faults, determinism."""

import hashlib
import json
import pickle
import random
from enum import Enum

import pytest

import helpers
from wmsnsim import (
    EnergyCosts,
    EnergyMeter,
    Simulation,
    Transmission,
    from_dict,
    resolve_slot,
    run_audits,
    run_simulation,
    serialize_trace,
    trace_digest,
)
from wmsnsim import engine


def run(data, seed=0):
    return run_simulation(from_dict(data), seed=seed)


def audited(data, seed=0):
    sc = from_dict(data)
    sim = Simulation(sc, seed=seed)
    report, trace = sim.run()
    audit = run_audits(
        trace,
        sim.net,
        rp_slot_map=sim.rp_slot_map,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )
    return report, trace, audit


def events(trace, name, station=None):
    out = [e for e in trace if e["event"] == name]
    if station is not None:
        out = [e for e in out if e["station"] == station]
    return out


def tx(sender, comm, interf, payload=None):
    return Transmission(
        sender=sender, payload=payload, comm=frozenset(comm), interf=frozenset(interf)
    )


def test_resolve_slot_single_clean_delivery():
    t1 = tx(1, comm={10}, interf={10, 11})
    delivered, collisions = resolve_slot([t1], {10, 11, 12})
    assert delivered == {10: t1}
    assert collisions == {}


def test_resolve_slot_collision_and_noise():
    t1 = tx(1, comm={10}, interf={10, 11})
    t2 = tx(2, comm={12}, interf={11, 12, 13})
    delivered, collisions = resolve_slot([t1, t2], {10, 11, 12, 13, 14})
    assert delivered == {10: t1, 12: t2}
    # both footprints land on 11: corrupted there, for both senders
    assert collisions == {11: [1, 2]}
    # 13 is inside interference but outside decode range: hears noise only
    assert 13 not in delivered and 13 not in collisions


def test_resolve_slot_transmitters_hear_nothing():
    t1 = tx(10, comm={10, 11}, interf={10, 11})
    t2 = tx(12, comm={10}, interf={10})
    delivered, collisions = resolve_slot([t1, t2], {10, 11})
    assert delivered == {11: t1}
    assert 10 not in delivered and 10 not in collisions


def scan_resolve(transmissions, listeners):
    """resolve_slot as it was written before it walked the senders'
    footprints: every listener against every transmission."""
    senders = {t.sender for t in transmissions}
    delivered, collisions = {}, {}
    for rho in sorted(listeners):
        if rho in senders:
            continue
        touching = [t for t in transmissions if rho in t.interf]
        if not touching:
            continue
        if len(touching) == 1:
            if rho in touching[0].comm:
                delivered[rho] = touching[0]
        else:
            collisions[rho] = sorted(t.sender for t in touching)
    return delivered, collisions


def test_resolve_slot_matches_the_listener_scan():
    rng = random.Random(11)
    deaf_senders = 0
    for case in range(600):
        ids = range(rng.randint(1, 12))
        txs = []
        for sender in rng.sample(ids, rng.randint(0, min(4, len(ids)))):
            interf = {x for x in ids if rng.random() < 0.5}
            comm = {x for x in ids if x in interf or rng.random() < 0.1}
            txs.append(tx(sender, comm, interf, payload=case))
        listeners = {x for x in ids if rng.random() < 0.6}
        got, want = resolve_slot(txs, listeners), scan_resolve(txs, listeners)
        # same entries, keyed in the same ascending order
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
        deaf_senders += any(
            t.sender in listeners and t.sender in u.interf for t in txs for u in txs
        )
    assert deaf_senders > 100  # transmitters in the listener set are covered
    assert resolve_slot([], {1, 2}) == ({}, {})
    assert resolve_slot([tx(1, {2}, {2})], set()) == ({}, {})


def test_energy_meter_accounting():
    m = EnergyMeter([1, 2], EnergyCosts())
    for _ in range(3):
        m.add(1, "tx")
    m.add(1, "sleep")
    m.add(2, "idle")
    assert m.consumed(1) == pytest.approx(3 * 1.0 + 0.01)
    assert m.consumed(2) == pytest.approx(0.5)
    assert m.duty_cycle(1) == pytest.approx(3 / 4)
    # a bulk booking fills what is not counted yet
    m.add(2, "rx", 2)
    m.fill(2, "sleep", 10)
    assert m.counts[2] == {"tx": 0, "rx": 2, "idle": 1, "sleep": 7}


def test_two_hop_flow_delivers_inside_deadline():
    report, trace = run(helpers.two_hop(horizon=200))
    fs = report.flows[1]
    assert fs.generated >= 150
    assert fs.delivery_ratio >= 0.99
    assert fs.dropped_deadline == 0
    assert fs.dropped_collision == 0
    assert fs.dropped_overflow == 0
    assert fs.delivered + fs.queued_at_end == fs.generated
    assert 0 < fs.mean_delay_ms <= fs.max_delay_ms <= 60.0
    assert report.routes[1] == (1, 2, 9)
    # both forwarding styles appear: a reserved hop and a polled uplink
    assert events(trace, "data_tx") and events(trace, "uplink_tx")


def test_energy_states_partition_every_slot():
    data = helpers.two_hop(horizon=37)
    report, _ = run(data)
    slots_per_frame = 11 + 20
    for sid, st in report.stations.items():
        total = st.tx_slots + st.rx_slots + st.idle_slots + st.sleep_slots
        assert total == slots_per_frame * 37, f"station {sid}"
        want = (
            st.tx_slots * 1.0
            + st.rx_slots * 0.8
            + st.idle_slots * 0.5
            + st.sleep_slots * 0.01
        )
        assert st.energy == pytest.approx(want)


def test_idle_cluster_head_duty_cycle_is_exact():
    data = helpers.grid(2, flows=[], horizon=50)
    report, _ = run(data)
    for sid, st in report.stations.items():
        if sid == 100:
            # the base station idles through RP and sleeps the whole CFP
            assert st.idle_slots == 11 * 50
            assert st.sleep_slots == 20 * 50
            continue
        assert st.sleep_slots == 20 * 50
        assert st.duty_cycle == 11 / 31  # exact, not approximate


def test_same_seed_reproduces_identical_traces():
    a_report, a_trace = run(helpers.contention(), seed=4)
    b_report, b_trace = run(helpers.contention(), seed=4)
    assert serialize_trace(a_trace) == serialize_trace(b_trace)
    assert a_report.trace_digest == b_report.trace_digest
    assert a_report.trace_digest == trace_digest(b_trace)


def test_seeds_shift_contention_outcomes():
    digests = set()
    backoff_seqs = set()
    for seed in range(10):
        report, trace = run(helpers.contention(), seed=seed)
        digests.add(report.trace_digest)
        backoff_seqs.add(
            tuple(
                (e["frame"], e["station"], e["detail"]["retry_frame"])
                for e in events(trace, "backoff")
            )
        )
        # whoever wins, both flows eventually deliver
        assert report.flows[1].delivered > 0
        assert report.flows[2].delivered > 0
    assert len(digests) > 1
    assert len(backoff_seqs) > 1


def test_hidden_terminal_collides_but_respects_hop_bound():
    report, trace, audit = audited(helpers.hidden_terminal())
    assert report.control_collisions >= 1
    collided = events(trace, "control_collision", station=3)
    assert collided and collided[0]["detail"]["senders"] == [1, 2]
    # every collision is between stations 1-4 radio hops apart
    assert audit.interferer_hop_bound.passed
    assert audit.interferer_hop_bound.checked >= 1
    # the slotted schedule alone could not prevent this collision
    assert not audit.control_collision_free.passed
    assert not audit.headline_passed
    # backoff desynchronizes the pair and traffic still gets through
    assert report.flows[1].delivered > 0
    assert report.flows[2].delivered > 0


def test_clean_runs_pass_every_audit():
    for data in (
        helpers.two_hop(horizon=60),
        helpers.mixed_traffic(horizon=60),
        helpers.grid(3, flows=helpers.grid_flows(3, 3), horizon=60),
    ):
        report, trace, audit = audited(data)
        assert audit.all_passed, [
            (v.name, v.violations[:2]) for v in audit.verdicts() if not v.passed
        ]
        assert report.control_collisions == 0


def test_srb_fault_breaks_table_agreement_at_that_frame():
    flows = [helpers.flow(1, 3, 100)]
    clean = helpers.grid(3, flows=flows, horizon=30)
    _, _, audit = audited(clean)
    assert audit.table_agreement.passed

    faulty = helpers.grid(
        3,
        flows=flows,
        horizon=30,
        faults=[{"kind": "SRB", "frame": 0, "sender": 3}],
    )
    report, trace, audit = audited(faulty)
    assert events(trace, "control_fault_drop", station=3)
    assert not audit.table_agreement.passed
    assert audit.table_agreement.violation_count > 0
    assert {v["frame"] for v in audit.table_agreement.violations} == {0}
    # the endpoints still agree, so data keeps flowing
    assert report.flows[1].delivered > 0


def test_cc_ack_fault_forces_idempotent_cancel_retry():
    faults = [{"kind": "CC_ACK", "frame": f, "sender": 2} for f in range(20)]
    data = helpers.two_hop(horizon=40, stop_frame=6, faults=faults)
    report, trace, audit = audited(data)
    ccs = [
        e for e in events(trace, "control_tx", station=1)
        if e["detail"]["kind"] == "CC"
    ]
    assert len(ccs) >= 2  # first cancel lost its ack, had to retry
    done = events(trace, "cancel_complete", station=1)
    assert len(done) == 1
    assert done[0]["frame"] >= 20  # only after the fault window closes
    assert audit.all_passed, [v.name for v in audit.verdicts() if not v.passed]


def test_datagram_requests_wait_for_a_full_burst():
    stations = [helpers.ch(1, 50, 50), helpers.ch(2, 150, 50), helpers.bs(9, 250, 50)]
    flows = [
        helpers.flow(
            1, 1, 9, cls="ABR", mode="none", rate=1_000_000, size=4000,
            burst_length=8,
        )
    ]
    data = helpers.base(stations, flows, horizon=40)
    report, trace, audit = audited(data)
    crs = [
        e for e in events(trace, "control_tx", station=1)
        if e["detail"]["kind"] == "CR"
    ]
    assert crs, "the datagram flow never requested slots"
    gen = events(trace, "packet_gen")
    first_cr_frame = crs[0]["frame"]
    backlog = sum(1 for e in gen if e["frame"] <= first_cr_frame)
    assert backlog >= 8
    # no earlier frame had a full burst waiting
    for f in range(first_cr_frame):
        assert sum(1 for e in gen if e["frame"] <= f) < 8
    # datagram reservations never outlive their frame
    assert audit.datagram_expiry.passed
    expired = [
        e for e in events(trace, "rt_delete")
        if e["detail"]["reason"] == "expire"
    ]
    assert expired and all(e["detail"]["kind"] == "datagram" for e in expired)
    assert report.flows[1].delivered > 0


def test_mixed_traffic_classes_coexist():
    report, trace, audit = audited(helpers.mixed_traffic())
    assert audit.datagram_expiry.passed
    assert audit.realtime_persistence.passed
    assert audit.table_agreement.passed
    kinds = {e["detail"]["kind"] for e in events(trace, "handshake_complete")}
    assert kinds == {"real_time", "datagram"}
    for fid in (1, 2, 3):
        assert report.flows[fid].delivered > 0, fid
    # the real-time flows hold their delay bounds in a clean run
    assert report.flows[1].max_delay_ms <= 90.0
    assert report.flows[2].max_delay_ms <= 60.0


def test_wasted_reserved_slots_are_counted():
    data = helpers.two_hop(horizon=20, stop_frame=18)
    report, trace = run(data)
    assert report.wasted_slots > 0
    assert events(trace, "wasted_slot")
    # the reservation is cancelled once the queue drains
    assert events(trace, "cancel_complete")


def test_unroutable_flow_drops_everything():
    stations = [helpers.ch(1, 50, 50), helpers.bs(9, 250, 50)]
    data = helpers.base(stations, [helpers.flow(1, 1, 9)], horizon=10)
    report, trace = run(data)
    assert report.routes[1] is None
    assert report.flows[1].delivered == 0
    assert report.flows[1].generated > 0
    drops = events(trace, "packet_drop")
    assert drops and all(e["detail"]["reason"] == "unrouted" for e in drops)


def test_routes_follow_data_links_only():
    # routes over the diagonals delivered 0 of 474 packets, all audits passing
    sim = Simulation(from_dict(helpers.short_radio_grid()), seed=0)
    report, trace = sim.run()
    unrouted = set()
    for e in events(trace, "route"):
        if e["detail"].get("unrouted"):
            unrouted.add(e["detail"]["flow"])
            continue
        hops = e["detail"]["path"]
        for a, b in zip(hops, hops[1:]):
            assert b in sim.net.data_links(a)
    assert unrouted == {1, 2, 6}
    assert sum(fs.delivered for fs in report.flows.values()) == 228
    assert sum(fs.generated for fs in report.flows.values()) == 474
    assert report.trace_digest == (
        "03034d7e38e6cd3e186cf5506381e3728d63968a1ff2bb7a879c41d96157e19a"
    )


def test_semi_bonded_clean_run_has_no_gaps():
    data = helpers.two_hop(mode="semi_bonded", horizon=60)
    report, _ = run(data)
    fs = report.flows[1]
    assert fs.delivered > 0
    assert fs.session_gap_frames == 0


def test_simulation_runs_once():
    sim = Simulation(from_dict(helpers.two_hop(horizon=5)))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_wide_interference_footprint_pins_its_digest():
    # at multiplier 1.0 both runs give other digests: with rf 220 the wider
    # laser footprints collide 28 data packets, and without slotting the
    # wider radio footprints raise control collisions from 7 to 24
    for rf, slotting, digest in (
        (220.0, True, "11e0580e8d7148aa70fd5c2e4e46e99c5349263c73215142e675fb456ff49653"),
        (150.0, False, "ad611d6c22049cc00bc04fa043990327a63b095bcb78934a952b0413c8f537fe"),
    ):
        data = helpers.grid(
            4, flows=helpers.grid_flows(4, 3), horizon=40, slotting=slotting, rf=rf
        )
        data["channel"] = {"interference_multiplier": 1.5}
        report, _ = run(data)
        assert report.trace_digest == digest


def test_pickled_simulation_runs_like_the_original():
    data = helpers.grid(4, flows=helpers.grid_flows(4, 3), horizon=40, rf=220.0)
    data["channel"] = {"interference_multiplier": 1.5}
    sim = Simulation(from_dict(data), seed=2)
    copy = pickle.loads(pickle.dumps(sim))
    assert copy.run()[0].trace_digest == sim.run()[0].trace_digest


class ScheduleChecked(Simulation):
    """Checks the cached CF schedule against every table before each CF
    slot is played."""

    slots_checked = 0

    def _cf_slot(self, frame, s):
        want = []
        for sid in self.ch_ids:
            e = self.sts[sid].mac.rt.get(s)
            if e is not None and sid in (e.tx, e.rx):
                want.append((sid, e))
        assert self._schedule()[s] == want, (frame, s)
        self.slots_checked += 1
        super()._cf_slot(frame, s)


@pytest.mark.parametrize(
    "data, inserts",
    [
        # tables change all through the run: bursts, expiry, a cancel
        (helpers.churn(), 4000),
        # a cancel is the only change of its frame
        (helpers.two_hop(horizon=30, stop_frame=18), 2),
    ],
)
def test_cached_cf_schedule_matches_every_table_at_every_cf_slot(data, inserts):
    sc = from_dict(data)
    sim = ScheduleChecked(sc, seed=0)
    report, trace = sim.run()
    assert sim.slots_checked == sc.horizon_frames * 20
    assert len(events(trace, "rt_insert")) >= inserts
    assert events(trace, "cancel_complete")
    assert report.trace_digest == Simulation(sc, seed=0).run()[0].trace_digest


@pytest.mark.parametrize(
    "n, reach, seed, delivered, generated",
    [(6, 150.0, 0, 572, 708), (8, 160.0, 1, 552, 944)],
)
def test_a_foreign_data_packet_is_noise_at_a_listener(n, reach, seed, delivered, generated):
    # with rf 150 a beam reaches listeners it does not address; such a
    # packet once reached _forward at a station off its path and raised
    # KeyError (14 on grid-6, 10 on grid-8)
    data = helpers.grid(
        n, flows=helpers.grid_flows(n, n), horizon=150, rf=150.0, reach=reach
    )
    report, trace = run(data, seed=seed)
    to = {
        (e["frame"], e["slot"], e["station"]): e["detail"]["to"]
        for e in events(trace, "data_tx")
    }
    for e in events(trace, "data_rx"):
        assert e["station"] == to[e["frame"], e["slot"], e["detail"]["sender"]]
    got = [(e["detail"]["flow"], e["detail"]["seq"]) for e in events(trace, "data_delivered")]
    assert len(got) == len(set(got))
    assert sum(fs.delivered for fs in report.flows.values()) == delivered
    assert sum(fs.generated for fs in report.flows.values()) == generated


def slot_counts(report):
    return {
        sid: (st.tx_slots, st.rx_slots, st.idle_slots, st.sleep_slots)
        for sid, st in report.stations.items()
    }


def verdict_pins(audit):
    return [(v.name, v.passed, v.checked, v.violation_count) for v in audit.verdicts()]


def test_short_grid6_cbr_run_pins_its_digest_and_slot_counts():
    # the bench grid6-cbr layout for 60 frames; the digest and counts were
    # taken before the frame loop went per reservation
    data = helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0)
    report, _, audit = audited(data)
    assert report.trace_digest == (
        "5d9cfc3019ad1e18be50ebcd92bb524de5c163610d0f5763d68ddd166b85872e"
    )
    # taken before the per-frame audit checks were memoised
    assert verdict_pins(audit) == [
        ("interferer_hop_bound", True, 0, 0),
        ("control_collision_free", True, 0, 0),
        ("table_agreement", True, 222, 0),
        ("rp_slot_discipline", True, 60, 0),
        ("rt_consistency", True, 632, 0),
        ("datagram_expiry", True, 60, 0),
        ("realtime_persistence", True, 3430, 0),
    ]
    assert slot_counts(report) == {
        0: (48, 5, 654, 1153), 1: (98, 102, 674, 986), 2: (0, 14, 646, 1200),
        3: (0, 14, 646, 1200), 4: (0, 5, 655, 1200), 5: (0, 1, 659, 1200),
        6: (48, 11, 648, 1153), 7: (49, 61, 657, 1093), 8: (194, 200, 687, 779),
        9: (48, 62, 654, 1096), 10: (0, 20, 640, 1200), 11: (0, 9, 651, 1200),
        12: (48, 8, 651, 1153), 13: (49, 66, 652, 1093), 14: (48, 67, 650, 1095),
        15: (141, 159, 663, 897), 16: (93, 106, 663, 998), 17: (46, 59, 656, 1099),
        18: (48, 8, 651, 1153), 19: (49, 56, 662, 1093), 20: (48, 69, 648, 1095),
        21: (48, 65, 651, 1096), 22: (183, 190, 683, 804), 23: (224, 227, 698, 711),
        24: (48, 5, 654, 1153), 25: (49, 53, 665, 1093), 26: (0, 8, 652, 1200),
        27: (47, 60, 656, 1097), 28: (0, 14, 646, 1200), 29: (0, 11, 649, 1200),
        30: (48, 3, 656, 1153), 31: (0, 4, 656, 1200), 32: (0, 4, 656, 1200),
        33: (0, 4, 656, 1200), 34: (0, 9, 651, 1200), 35: (0, 5, 655, 1200),
        100: (0, 264, 660, 936),
    }


def test_mixed_run_pins_its_digest_and_slot_counts():
    # taken before the frame loop went per reservation, like the grid pin
    report, trace, audit = audited(helpers.churn())
    assert report.trace_digest == (
        "67b6746460916ebe6c3837a2945405b2becc10be441f84e02a2901cb47c0b080"
    )
    assert verdict_pins(audit) == [
        ("interferer_hop_bound", True, 2, 0),
        ("control_collision_free", False, 2, 2),
        ("table_agreement", True, 3583, 0),
        ("rp_slot_discipline", True, 468, 0),
        ("rt_consistency", True, 1479, 0),
        ("datagram_expiry", True, 80, 0),
        ("realtime_persistence", True, 1182, 0),
    ]
    assert slot_counts(report) == {
        1: (116, 231, 644, 1489), 2: (577, 477, 678, 748), 3: (530, 497, 754, 699),
        4: (449, 527, 794, 710), 5: (362, 161, 645, 1312), 9: (0, 371, 880, 1229),
        20: (0, 0, 0, 2480), 21: (0, 0, 0, 2480),
    }
    # what the run is meant to cover
    reasons = {e["detail"]["reason"] for e in events(trace, "packet_drop")}
    assert {"deadline", "overflow"} <= reasons
    assert {e["detail"]["reason"] for e in events(trace, "backoff")} == {
        "busy", "no_accept", "no_cancel_ack"
    }
    assert events(trace, "cancel_complete") and events(trace, "uplink_tx")
    # sensors 20 and 21 attach at their nearest cluster heads
    assert report.routes[2][0] == 1 and report.routes[4][0] == 2


def canonical(events):
    return "".join(
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events
    )


def synthetic_events(n, seed=0):
    """n seeded trace-shaped events whose details hold what JSON must
    escape or format with care, plus two dicts that are not envelopes."""
    rng = random.Random(seed)
    texts = ["", "plain", 'quo"te', "back\\slash", "new\nline", "tab\t\x00\x1f",
             "caf\u00e9", "\u6e2c\u8a66", "\U0001f4e1", "\u2028"]
    scalars = [True, False, None, 0, -1, 2**63, 0.1, 1e-7, 1e16, -0.0, 3.25,
               float("inf")]

    def value(depth):
        pick = rng.randrange(4 if depth < 2 else 2)
        if pick == 0:
            return rng.choice(texts)
        if pick == 1:
            return rng.choice(scalars)
        if pick == 2:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        return {rng.choice(texts): value(depth + 1) for _ in range(rng.randrange(3))}

    events = [
        {
            "station": rng.randrange(-1, 200),
            "detail": {rng.choice(texts): value(0) for _ in range(rng.randrange(5))},
            "event": rng.choice(texts),
            "slot": rng.randrange(20),
            "phase": rng.choice(["RP", "CFP"]),
            "frame": rng.randrange(10**6),
        }
        for _ in range(n)
    ]
    events[0]["detail"] = {}
    events.append({"frame": 1, "detail": {"x": 1}})
    events.append(dict(events[1], extra=[1.5, "\\"]))
    return events


def test_serialize_trace_is_one_canonical_json_line_per_event():
    _, churn = run(helpers.churn())
    _, grid = run(helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0))
    made = synthetic_events(200)
    for trace in (churn, grid, made):
        assert serialize_trace(trace) == canonical(trace)
    assert serialize_trace([]) == ""
    for trace in ([], made[:1], made):
        want = hashlib.sha256(serialize_trace(trace).encode("utf-8")).hexdigest()
        assert trace_digest(trace) == want


def test_a_failed_serialization_leaves_the_next_one_canonical():
    detail = {"x": [object()]}
    event = {"frame": 0, "slot": 0, "phase": "RP", "station": 1, "event": "e", "detail": detail}
    with pytest.raises(TypeError):
        serialize_trace([event])
    detail["x"] = [1]
    assert serialize_trace([event]) == canonical([event])


def test_engine_events_are_json_ready_and_unshared():
    report, trace = run(helpers.churn())
    lines = serialize_trace(trace).split("\n")
    assert lines.pop() == "" and len(lines) == len(trace)
    lists = set()
    for e, line in zip(trace, lines):
        assert json.loads(line) == e
        stack = list(e["detail"].values())
        while stack:
            v = stack.pop()
            assert not isinstance(v, (Enum, tuple)), e
            if isinstance(v, list):
                assert id(v) not in lists, e  # one list in two events
                lists.add(id(v))
                stack.extend(v)
    # a list the engine changed after emitting it would move the digest
    assert report.trace_digest == trace_digest(trace)


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_a_run_serialises_each_event_once(monkeypatch):
    made = helpers.count_trace_lines(monkeypatch)
    report, trace = run(helpers.churn())
    assert serialize_trace(trace) == canonical(trace)
    assert trace_digest(trace) == report.trace_digest
    assert made[0] == len(trace)


def test_a_trace_keeps_its_text_only_while_no_event_is_added():
    report, trace = run(helpers.churn())
    assert isinstance(trace, list)
    want = canonical(trace)
    assert sha256_hex(want) == report.trace_digest
    # a pickled finished trace and a plain list copy give the same text
    copy = pickle.loads(pickle.dumps(trace))
    assert list(copy) == trace
    assert serialize_trace(copy) == want and trace_digest(copy) == report.trace_digest
    assert serialize_trace(list(trace)) == want
    # an event appended after the run's digest (the bytes are kept) ...
    trace.append({"frame": 99, "slot": 0, "phase": "RP", "station": 1,
                  "event": "x", "detail": {"a": [1.5, "\u00e9"]}})
    assert trace_digest(trace) == sha256_hex(canonical(trace))
    assert serialize_trace(trace) == canonical(trace)
    # ... and after serialize_trace (the str is kept)
    trace.append(dict(trace[0]))
    assert trace_digest(trace) == sha256_hex(canonical(trace))
    assert serialize_trace(trace) == canonical(trace)
    assert serialize_trace(pickle.loads(pickle.dumps(trace))) == canonical(trace)


def test_run_takes_its_digest_through_the_module_trace_digest(monkeypatch):
    # the benchmark's engine.trace_digest span and its tampered-digest
    # check wrap this module attribute
    monkeypatch.setattr(engine, "trace_digest", lambda events: "sentinel")
    report, _ = run(helpers.two_hop(horizon=10))
    assert report.trace_digest == "sentinel"
