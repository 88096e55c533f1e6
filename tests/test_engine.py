"""End-to-end engine behavior: channel resolution, scheduling, energy,
faults, determinism."""

import gc
import hashlib
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

import helpers
from wmsnsim import (
    EnergyCosts,
    EnergyMeter,
    FlowStats,
    Simulation,
    Transmission,
    from_dict,
    resolve_slot,
    run_audits,
    run_simulation,
    serialize_trace,
    trace_digest,
)
from wmsnsim import engine, trace as trace_mod
from wmsnsim.mac import ReservationKind
from wmsnsim.scenario import FAULT_KINDS, ScenarioError
from wmsnsim.traffic import SERVICE_CLASSES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, line_mixed  # noqa: E402


def run(data, seed=0):
    return run_simulation(from_dict(data), seed=seed)


def audited(data, seed=0):
    sc = from_dict(data)
    sim = Simulation(sc, seed=seed)
    report, trace = sim.run()
    audit = run_audits(
        trace,
        sim.net,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )
    return report, trace, audit


def events(trace, name, station=None):
    out = [e for e in trace if e["event"] == name]
    if station is not None:
        out = [e for e in out if e["station"] == station]
    return out


def tx(sender, comm, interf, payload=None, to=None):
    return Transmission(
        sender=sender, payload=payload, comm=frozenset(comm), interf=frozenset(interf), to=to
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


def test_resolve_slot_gives_a_data_packet_to_its_addressee_only():
    # a lone data packet over a listener it is not addressed to is noise
    # there, neither delivered nor a collision; a control message (to
    # None) reaches every listener in its decode range
    data = tx(1, comm={10, 11}, interf={10, 11, 12}, to=11)
    assert resolve_slot([data], {10, 11, 12}) == ({11: data}, {})
    control = tx(1, comm={10, 11}, interf={10, 11, 12})
    assert resolve_slot([control], {10, 11, 12}) == ({10: control, 11: control}, {})
    # an addressee outside decode range hears noise too
    assert resolve_slot([tx(1, comm={10}, interf={10, 11}, to=11)], {10, 11}) == ({}, {})
    # addressed packets still collide wherever two footprints meet
    other = tx(2, comm={12}, interf={11, 12}, to=12)
    assert resolve_slot([data, other], {10, 11, 12}) == ({}, {11: [1, 2], 12: [1, 2]})


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
            if rho in touching[0].comm and touching[0].to in (None, rho):
                delivered[rho] = touching[0]
        else:
            collisions[rho] = sorted(t.sender for t in touching)
    return delivered, collisions


def test_resolve_slot_matches_the_listener_scan():
    rng, to_rng = random.Random(11), random.Random(12)
    deaf_senders = misaddressed = 0
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
        # the same channel with some of its packets addressed, drawn from
        # a stream of their own so the cases above stay as they were
        addressed = [
            replace(t, to=to_rng.choice(ids)) if to_rng.random() < 0.6 else t for t in txs
        ]
        got = resolve_slot(addressed, listeners)
        want = scan_resolve(addressed, listeners)
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
        misaddressed += len(got[0]) < len(resolve_slot(txs, listeners)[0])
    assert deaf_senders > 100  # transmitters in the listener set are covered
    assert misaddressed > 100  # so are lone packets at a listener not addressed
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


# one fault of each kind in the first handshake or in the cancel of
# two_hop's flow: (frame, sender, the initiator's backoff reason or None,
# the handshake's frame and slots, the cancel's frame)
FAULT_CASES = {
    "CR": (0, 1, "no_accept", 1, [0], 6),
    "CA": (0, 2, "no_accept", 1, [1], 6),
    "SRB": (0, 1, None, 0, [0], 6),
    "CC": (6, 1, "no_cancel_ack", 0, [0], 7),
    "CC_ACK": (6, 2, "no_cancel_ack", 0, [0], 7),
}


def lost_once(kind, frame, sender):
    return helpers.two_hop(
        horizon=20, stop_frame=6,
        faults=[{"kind": kind, "frame": frame, "sender": sender}],
    )


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_each_lost_control_message_costs_its_initiator_at_most_one_retry(kind):
    frame, sender, reason, hs_frame, slots, cc_frame = FAULT_CASES[kind]
    report, trace = run(lost_once(kind, frame, sender))
    assert [
        (e["frame"], e["station"], e["detail"]["kind"])
        for e in events(trace, "control_fault_drop")
    ] == [(frame, sender, kind)]
    assert [
        (e["frame"], e["station"], e["detail"]["reason"]) for e in events(trace, "backoff")
    ] == ([(frame, 1, reason)] if reason else [])
    assert [
        (e["frame"], e["station"], e["detail"]["slots"])
        for e in events(trace, "handshake_complete")
    ] == [(hs_frame, 1, slots)]
    assert [
        (e["frame"], e["station"], e["detail"]["slots"])
        for e in events(trace, "cancel_complete")
    ] == [(cc_frame, 1, slots)]
    assert report.flows[1].generated == report.flows[1].delivered == 5


@pytest.mark.xfail(strict=True, reason="D11: the responder keeps the entry of a lost accept")
def test_a_lost_accept_leaves_no_reservation_behind():
    sim = Simulation(from_dict(lost_once("CA", 0, 2)), seed=0)
    sim.run()
    assert [sim.sts[sid].mac.entries() for sid in (1, 2)] == [[], []]


def test_a_bystander_drops_a_reservation_on_hearing_its_cancel():
    # station 3 hears both endpoints, so it learns the reservation from
    # the broadcast and drops it on the cancel, before station 1 hears
    # the ack
    data = helpers.two_hop(horizon=20, stop_frame=6)
    data["stations"].append(helpers.ch(3, 100, 100))
    sim = Simulation(from_dict(data), seed=0)
    report, trace = sim.run()
    assert [(e["frame"], e["slot"]) for e in events(trace, "rt_insert", station=3)] == [(0, 5)]
    step = {"control_tx": "kind", "rt_delete": "reason"}
    assert [
        (e["station"], e["event"], e["detail"][step[e["event"]]])
        for e in trace
        if e["frame"] == 6 and e["phase"] == "RP" and e["event"] in step
    ] == [
        (1, "control_tx", "CC"),
        (2, "rt_delete", "cancel"),
        (2, "control_tx", "CC_ACK"),
        (3, "rt_delete", "cancel"),
        (1, "rt_delete", "cancel"),
    ]
    assert len(events(trace, "rt_delete", station=3)) == 1
    assert sim.sts[3].mac.entries() == []
    assert report.flows[1].delivered == 5


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


def test_one_station_signals_bonded_first_lower_flow_next_and_cancels_last():
    # cluster head 1 forwards a datagram flow (the lowest id) and two
    # bonded CBR flows to peer 2. It owns one RP slot a frame, so each
    # frame it signals for one flow, and the order of its handshakes is
    # its ranking. Flow 2 stops at frame 5, but its datagram neighbour
    # keeps a burst queued until frame 29.
    report, trace, audit = audited(helpers.signalling_order())
    assert audit.all_passed
    done = [
        (e["frame"], e["event"], e["detail"]["flow"]) for e in trace
        if e["station"] == 1 and e["event"] in ("handshake_complete", "cancel_complete")
    ]
    # bonded real-time before datagram, and flow 2 before flow 3 of its class
    assert done[:3] == [
        (0, "handshake_complete", 2), (1, "handshake_complete", 3),
        (2, "handshake_complete", 1),
    ]
    # from frame 2 on the datagram flow establishes every frame until its
    # backlog is gone, and flow 2's cancel goes out only in the next frame,
    # although flow 2 was over with an empty queue long before
    datagram = [f for f, _, fid in done if fid == 1]
    assert datagram == list(range(2, datagram[-1] + 1))
    assert done[len(datagram) + 2:] == [(datagram[-1] + 1, "cancel_complete", 2)]
    last_sent = max(e["frame"] for e in events(trace, "data_tx", station=1)
                    if e["detail"]["flow"] == 2)
    assert last_sent < 5 < datagram[-1] - 10
    assert report.flows[2].delivered == report.flows[2].generated


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
    # CH 2 turned away from the sink: these drops were once counted as
    # dropped_overflow while the trace said unrouted
    data = helpers.two_hop(horizon=20)
    data["stations"][1]["sector"]["theta"] = math.pi
    report, trace = run(data)
    fs = report.flows[1]
    assert (fs.generated, fs.dropped_unrouted, fs.dropped_overflow) == (16, 16, 0)
    assert fs.loss_rate == 1.0
    assert {e["detail"]["reason"] for e in events(trace, "packet_drop")} == {"unrouted"}


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
    """Checks the cached CF plan, its senders with their addressees and
    flows and its listeners, against every table before each CF slot is
    played. A sender's flow is that of the last handshake_complete at the
    station whose slots include the slot, read from the trace."""

    slots_checked = 0

    def __init__(self, scenario, seed=0):
        super().__init__(scenario, seed)
        self.granted, self.events_read = {}, 0

    def _cf_slot(self, frame, s):
        granted = self.granted
        for e in self.trace[self.events_read:]:
            if e["event"] == "handshake_complete":
                for slot in e["detail"]["slots"]:
                    granted[e["station"], slot] = e["detail"]["flow"]
        self.events_read = len(self.trace)
        senders, listeners = [], set()
        for sid in self.ch_ids:
            e = self.sts[sid].mac.table.get(s)
            if e is not None and e.tx == sid:
                senders.append((sid, e.rx, granted[sid, s]))
            elif e is not None and e.rx == sid:
                listeners.add(sid)
        plan = self._schedule()[s]
        assert [(sid, to, hop.flow.id) for sid, to, hop in plan[0]] == senders, (frame, s)
        assert plan[1] == listeners, (frame, s)
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


class HopSlotsChecked(Simulation):
    """After each frame boundary, checks both ways that the hops' slots
    and the tables' transmit entries are one record: every hop holding
    slots is real-time and each of its slots is a transmit entry of its
    station's table addressed to the hop's peer, and every transmit entry
    of a station's table is the slot of exactly one of its hops."""

    frames_checked = 0
    slots_checked = 0

    def _end_frame(self, frame):
        super()._end_frame(frame)
        for sid, st in self.sts.items():
            for fid, hop in st.hops.items():
                assert hop.flow.id == fid
                if hop.slots is None:
                    continue
                assert hop.flow.real_time, (frame, sid, fid)
                for s in hop.slots:
                    e = st.mac.table.get(s)
                    assert e is not None, (frame, sid, fid, s)
                    assert (e.tx, e.rx) == (sid, hop.peer), (frame, sid, fid, s)
                    self.slots_checked += 1
            for e in st.mac.entries():
                if e.tx == sid:
                    owners = [h for h in st.hops.values() if e.cf_slot in (h.slots or ())]
                    assert len(owners) == 1, (frame, sid, e.cf_slot)
        self.frames_checked += 1


@pytest.mark.parametrize(
    "data, seed",
    [
        (helpers.churn(), 0),
        (helpers.two_hop(horizon=30, stop_frame=18), 0),
        (line_mixed(60), 3),
    ],
    ids=["churn", "two-hop-cancel", "line-mixed"],
)
def test_flow_slots_hold_only_real_time_transmit_entries_after_each_frame(data, seed):
    sc = from_dict(data)
    sim = HopSlotsChecked(sc, seed=seed)
    report, trace = sim.run()
    assert sim.frames_checked == sc.horizon_frames
    assert sim.slots_checked > 0
    assert report.trace_digest == Simulation(sc, seed=seed).run()[0].trace_digest


class TablesReplayed(Simulation):
    """Replays every rt_insert and rt_delete onto tables of its own and,
    after each RP slot and each frame boundary, checks that they equal
    every station's table entry for entry. A table change that goes
    unreported, or is reported with other values, shows as a difference;
    an insert must find its slot empty in the replay, and a delete must
    name the entry the replay holds there."""

    def __init__(self, scenario, seed=0):
        super().__init__(scenario, seed)
        self.replayed = {sid: {} for sid in self.ch_ids}
        self.events_read = 0
        self.checks = 0

    def _compare(self, where):
        for e in self.trace[self.events_read:]:
            d, table = e["detail"], self.replayed.get(e["station"])
            if e["event"] == "rt_insert":
                assert d["slot_index"] not in table, (where, e)
                table[d["slot_index"]] = (
                    d["slot_index"], d["tx"], d["rx"], d["kind"], d["established_frame"]
                )
            elif e["event"] == "rt_delete":
                held = table.pop(d["slot_index"], None)
                assert held is not None and held[1:4] == (d["tx"], d["rx"], d["kind"]), (
                    where, e
                )
        self.events_read = len(self.trace)
        for sid in self.ch_ids:
            table = {
                s: (e.cf_slot, e.tx, e.rx, e.kind._value_, e.established_frame)
                for s, e in self.sts[sid].mac.table.items()
            }
            assert table == self.replayed[sid], (where, sid)
        self.checks += 1

    def _rp_slot(self, frame, r):
        super()._rp_slot(frame, r)
        self._compare((frame, r))

    def _end_frame(self, frame):
        super()._end_frame(frame)
        self._compare((frame, "end"))


@pytest.mark.parametrize(
    "data, seed", [(helpers.churn(), 0), (line_mixed(60), 3)], ids=["churn", "line-mixed"]
)
def test_replayed_table_events_match_every_table_after_each_rp_slot_and_frame(data, seed):
    sc = from_dict(data)
    sim = TablesReplayed(sc, seed=seed)
    report, trace = sim.run()
    assert sim.checks == sc.horizon_frames * (sc.layout.rp_slots + 1)
    reasons = {e["detail"]["reason"] for e in events(trace, "rt_delete")}
    assert {"expire", "cancel"} <= reasons
    assert report.trace_digest == Simulation(sc, seed=seed).run()[0].trace_digest


class GrantsShared(Simulation):
    """After each RP slot, checks every handshake completed in it: the
    initiator and the responder hold the same entry object in each
    granted slot, with the handshake's values, and every station whose
    table holds an entry equal to it holds that object."""

    def __init__(self, scenario, seed=0):
        super().__init__(scenario, seed)
        self.events_read = 0
        self.endpoints_checked = self.bystanders_checked = 0

    def _rp_slot(self, frame, r):
        super()._rp_slot(frame, r)
        for ev in self.trace[self.events_read:]:
            if ev["event"] != "handshake_complete":
                continue
            x, d = ev["station"], ev["detail"]
            for s in d["slots"]:
                e = self.sts[x].mac.table[s]
                assert (e.cf_slot, e.tx, e.rx, e.kind._value_, e.established_frame) == (
                    s, x, d["peer"], d["kind"], frame
                )
                assert self.sts[d["peer"]].mac.table[s] is e, (frame, r, x, s)
                self.endpoints_checked += 1
                for sid in self.ch_ids:
                    held = self.sts[sid].mac.table.get(s)
                    if sid not in (x, d["peer"]) and held == e:
                        assert held is e, (frame, r, sid, s)
                        self.bystanders_checked += 1
                with pytest.raises(FrozenInstanceError):
                    e.tx = e.rx
        self.events_read = len(self.trace)


def test_every_hearer_of_a_handshake_stores_the_same_entries():
    sc = from_dict(helpers.churn())
    sim = GrantsShared(sc, seed=0)
    report, trace = sim.run()
    assert sim.endpoints_checked > 0 and sim.bystanders_checked > 0
    assert report.trace_digest == Simulation(sc, seed=0).run()[0].trace_digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("grid6-cbr", "5b96a6516a316bd7ed5385426d2eabf8cf76c5464cd036074ba72a7f899540aa"),
        ("grid10-route", "cc857f4c4a7615f4f7959e1b3b83a38bf95de0bb8b0009c06324bea4b175c918"),
        ("line-mixed", "c2fc205ac940608a9a10d7eda02b6e7b535cc3fdba33d00fedb9312c72157ef7"),
    ],
    ids=["grid6-cbr", "grid10-route", "line-mixed"],
)
def test_bench_workloads_keep_their_recorded_digests_at_seed_0(name, digest):
    # the full-horizon benchmark workloads; perfbench/README.md records
    # these digests, taken at the commit that added the benchmark
    report, _ = run(WORKLOADS[name](), seed=0)
    assert report.trace_digest == digest


def test_line_mixed_pins_every_flow_stat():
    # taken before flow_slots became the only slot-to-flow map; flows 5
    # and 6 each starve for one frame at some hop
    report, _ = run(line_mixed(60), seed=3)
    assert report.trace_digest == (
        "b280409a7f9f0d633ddf220556db11d5de0db76b7d491ed57e15f79a3a81ea0c"
    )
    assert report.flows == {
        1: FlowStats(
            1, "ABR", generated=347, delivered=120, dropped_overflow=80,
            queued_at_end=147, mean_delay_ms=280.51295610004996,
            max_delay_ms=447.9589348906331,
        ),
        2: FlowStats(
            2, "UBR", generated=372, delivered=3, dropped_overflow=305,
            queued_at_end=64, mean_delay_ms=152.6933118841993,
            max_delay_ms=152.98260699177504,
        ),
        3: FlowStats(
            3, "nrtVBR", generated=366, delivered=20, dropped_overflow=260,
            queued_at_end=86, mean_delay_ms=381.63, max_delay_ms=689.0,
        ),
        4: FlowStats(
            4, "rtVBR", generated=52, delivered=49, queued_at_end=3,
            mean_delay_ms=46.10561224489796, max_delay_ms=64.2,
        ),
        5: FlowStats(
            5, "CBR", generated=24, delivered=18, dropped_deadline=6,
            mean_delay_ms=46.109722222222196, max_delay_ms=57.849999999999966,
            session_gap_frames=1,
        ),
        6: FlowStats(
            6, "CBR", generated=32, delivered=32, mean_delay_ms=34.67499999999998,
            max_delay_ms=53.99999999999997, session_gap_frames=1,
        ),
    }


# runs line_mixed(60) at seed 0 and prints its digest and audit verdicts
_ONE_RUN = """
import dataclasses, sys
from workloads import line_mixed
from wmsnsim import Simulation, from_dict, run_audits
sc = from_dict(line_mixed(60))
sim = Simulation(sc, seed=0)
report, trace = sim.run()
audit = run_audits(
    trace, sim.net, slotting_enabled=sc.mac.slotting_enabled,
    interference_multiplier=sc.channel.interference_multiplier,
)
print(report.trace_digest)
print([dataclasses.asdict(v) for v in audit.verdicts()])
"""


def test_a_run_gives_the_same_trace_and_verdicts_under_any_string_hash_seed():
    # str hashes, and with them the order of a set of strs, change with
    # PYTHONHASHSEED; nothing a run writes may depend on them
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    out = [
        subprocess.run(
            [sys.executable, "-c", _ONE_RUN], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        ).stdout
        for seed in ("0", "12345")
    ]
    assert out[0] == out[1] and out[0].count("\n") == 2
    assert out[0].split("\n")[0] == run(line_mixed(60), seed=0)[0].trace_digest


class OutcomeChecked(Simulation):
    """After each CF slot, re-resolves the slot's full transmission list,
    built from the slot's data_tx events and the tables, and checks the
    channel outcome the run keeps for those senders and listeners against
    it. A slot with no sender and no listener may keep none: its fresh
    outcome must be empty, and it must have emitted no reception or
    collision."""

    slots_checked = 0
    collisions_checked = 0

    def _cf_slot(self, frame, s):
        first = len(self.trace)
        super()._cf_slot(frame, s)
        channel, listeners = [], set()
        for e in self.trace[first:]:
            if e["event"] == "data_tx":
                sid = e["station"]
                to = self.sts[sid].mac.table[s].rx
                assert e["detail"]["to"] == to
                channel.append(Transmission(
                    sender=sid, payload=len(channel),
                    comm=self.fso_comm[sid], interf=self.fso_intf[sid], to=to,
                ))
        for sid in self.ch_ids:
            e = self.sts[sid].mac.table.get(s)
            if e is not None and e.rx == sid:
                listeners.add(sid)
        delivered, collisions = resolve_slot(channel, listeners)
        want = (
            [(rho, t.payload) for rho, t in delivered.items() if t.to == rho],
            sorted(collisions.items()),
        )
        key = (tuple((t.sender, t.to) for t in channel), frozenset(listeners))
        if channel or listeners:
            assert self._outcomes[key] == want, (frame, s)
        else:
            assert want == ([], []) and self._outcomes.get(key, want) == want, (frame, s)
            assert not [
                e for e in self.trace[first:] if e["event"] in ("data_rx", "data_collision")
            ], (frame, s)
        self.slots_checked += 1
        self.collisions_checked += len(collisions)


@pytest.mark.parametrize(
    "data, seed, digest",
    [
        (helpers.churn(), 0, "67b6746460916ebe6c3837a2945405b2becc10be441f84e02a2901cb47c0b080"),
        (helpers.hidden_receiver_grid(), 0,
         "a772a3e3041b4b82609515238fe552f489b26b772a3434d06a11a345ae7ee2c5"),
        (helpers.wide_footprint_grid(), 0,
         "11e0580e8d7148aa70fd5c2e4e46e99c5349263c73215142e675fb456ff49653"),
        # the two foreign-addressee grids below
        (helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=150, rf=150.0,
                      reach=150.0), 0,
         "4b8c3e671e8dfc43f48ccab6b7cf16ac372950ffae87a46bdd1412fc387098be"),
        (helpers.grid(8, flows=helpers.grid_flows(8, 8), horizon=150, rf=150.0,
                      reach=160.0), 1,
         "e850f6c3a2e35ca87828e1ef00ff10e390f98d0bb5a6408cb8ad87cd952a459b"),
    ],
    ids=["churn", "d2-grid6", "d7-grid4", "d1-grid6", "d1-grid8"],
)
def test_kept_cf_outcomes_match_a_fresh_resolve_at_every_cf_slot(data, seed, digest):
    # the digests were taken before CF outcomes were kept in the plan
    sc = from_dict(data)
    sim = OutcomeChecked(sc, seed=seed)
    report, trace = sim.run()
    assert sim.slots_checked == sc.horizon_frames * 20
    assert sim.collisions_checked == report.data_collisions
    assert report.trace_digest == digest


def cf_resolves(monkeypatch, data, seed=0):
    """Run data; return (report, CF slots played, resolve_slot calls made
    inside them)."""
    in_cf, calls = [False], [0]
    real = engine.resolve_slot

    def counted(transmissions, listeners):
        calls[0] += in_cf[0]
        return real(transmissions, listeners)

    class Counted(Simulation):
        slots = 0

        def _cf_slot(self, frame, s):
            self.slots += 1
            in_cf[0] = True
            super()._cf_slot(frame, s)
            in_cf[0] = False

    monkeypatch.setattr(engine, "resolve_slot", counted)
    sim = Counted(from_dict(data), seed=seed)
    report, _ = sim.run()
    return report, sim.slots, calls[0]


def test_cf_slots_resolve_the_channel_once_per_plan_and_sender_set(monkeypatch):
    # the 60-frame grid-6 pin below: persistent reservations give most CF
    # slots the same plan and the same senders frame after frame, where
    # every CF slot once resolved its channel anew (1,200 calls)
    data = helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0)
    report, slots, calls = cf_resolves(monkeypatch, data)
    assert slots == 1200
    assert 0 < calls <= 300
    assert report.trace_digest == (
        "5d9cfc3019ad1e18be50ebcd92bb524de5c163610d0f5763d68ddd166b85872e"
    )


def test_cf_outcomes_outlive_table_changes(monkeypatch):
    # churn's datagram entries change some table every frame, which once
    # threw every kept outcome away (1,600 calls); an outcome is kept by
    # the senders with their addressees and the listeners instead. The
    # eighth is the empty channel with no listener
    report, slots, calls = cf_resolves(monkeypatch, helpers.churn())
    assert slots == 1600
    assert calls == 8
    assert report.trace_digest == (
        "67b6746460916ebe6c3837a2945405b2becc10be441f84e02a2901cb47c0b080"
    )


class ControlChecked(Simulation):
    """Re-resolves every RP channel from fresh Transmissions and checks the
    messages delivered and the collisions emitted, which the run takes
    from the outcome it keeps for the channel's senders."""

    channels_checked = 0
    collisions_checked = 0

    def _resolve_control(self, frame, r, channel):
        first = len(self.trace)
        got = super()._resolve_control(frame, r, channel)
        fresh = [
            Transmission(sender=sid, payload=msg, comm=self.rf_comm[sid], interf=self.rf_intf[sid])
            for sid, msg in channel
        ]
        delivered, collisions = resolve_slot(fresh, self.ch_set)
        assert [(rho, id(msg)) for rho, msg in got] == [
            (rho, id(t.payload)) for rho, t in delivered.items()
        ], (frame, r)
        assert [(e["event"], e["station"], e["detail"]["senders"]) for e in self.trace[first:]] == [
            ("control_collision", rho, senders) for rho, senders in collisions.items()
        ], (frame, r)
        self.channels_checked += 1
        self.collisions_checked += len(collisions)
        return got


@pytest.mark.parametrize(
    "data, digest, collisions, resolved",
    [
        (helpers.churn(), "67b6746460916ebe6c3837a2945405b2becc10be441f84e02a2901cb47c0b080",
         2, (6, 700)),
        (helpers.hidden_terminal(),
         "175ac0dbbf8c912401be8623bd73bcdd30533955dcb360884b7aef468c0d8832", 2, (4, 8)),
        (line_mixed(60), "dbd7d1b593357c4d85d3d14ef6ad77a21e34703b2291fe90f9c2f01e2c3af971",
         0, (8, 1130)),
        # D3: control collisions under compliant slotting
        (WORKLOADS["grid10-route"](),
         "cc857f4c4a7615f4f7959e1b3b83a38bf95de0bb8b0009c06324bea4b175c918", 8, (56, 261)),
    ],
    ids=["churn", "hidden_terminal", "line_mixed60", "grid10-route"],
)
def test_kept_control_outcomes_match_a_fresh_resolve_at_every_rp_channel(
    data, digest, collisions, resolved
):
    # the digests were taken before RP outcomes were kept, when every
    # channel was resolved anew
    sim = ControlChecked(from_dict(data), seed=0)
    report, _ = sim.run()
    assert report.control_collisions == sim.collisions_checked == collisions
    # (sender tuples resolved, channels played): an RP channel's outcome
    # is kept with senders whose addressees are all None
    kept = [sent for sent, _ in sim._outcomes if sent and all(to is None for _, to in sent)]
    assert (len(kept), sim.channels_checked) == resolved
    assert report.trace_digest == digest


class SkipChecked(Simulation):
    """Before each RP slot, asks every owner of the slot what it would
    signal; after it, checks that each owner the run did not ask would
    have signalled nothing. In a frame whose RP is skipped, every owner
    is asked at the frame's start, after its packets are generated: no
    state changes within a skipped RP, so that is what each would have
    signalled there, and it must be nothing."""

    asked = 0
    skipped = 0

    def _pick_action(self, sid, frame):
        self._asked.add(sid)
        return super()._pick_action(sid, frame)

    def _generate(self, frame):
        super()._generate(frame)
        self._at_start = {
            sid: Simulation._pick_action(self, sid, frame)
            for owners in self.rp_owners for sid in owners
        }
        self._rp_played = False

    def _end_frame(self, frame):
        if not self._rp_played:
            for sid, act in self._at_start.items():
                assert act is None, (frame, sid)
                self.skipped += 1
        super()._end_frame(frame)

    def _rp_slot(self, frame, r):
        self._rp_played = True
        would = {sid: Simulation._pick_action(self, sid, frame) for sid in self.rp_owners[r]}
        self._asked = set()
        super()._rp_slot(frame, r)
        for sid, act in would.items():
            if sid not in self._asked:
                assert act is None, (frame, r, sid)
                self.skipped += 1
        self.asked += len(self._asked)


@pytest.mark.parametrize(
    "data, digest, asked",
    [
        (helpers.churn(), "67b6746460916ebe6c3837a2945405b2becc10be441f84e02a2901cb47c0b080",
         282),
        (line_mixed(60), "dbd7d1b593357c4d85d3d14ef6ad77a21e34703b2291fe90f9c2f01e2c3af971",
         420),
        # the 60-frame grid-6 pin: each of its 36 cluster heads owns one RP
        # slot a frame and was once asked in every one (2,160 asks); once
        # its hops hold slots, a station is asked only after a real-time
        # flow stops
        (helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0),
         "5d9cfc3019ad1e18be50ebcd92bb524de5c163610d0f5763d68ddd166b85872e", 65),
        (helpers.signalling_order(),
         "5f6f5822eca5280b98bd73543a5cc3213634ff4e98f5de13c40db85c8edd0d8d", 60),
    ],
    ids=["churn", "line_mixed60", "grid6", "signalling_order"],
)
def test_an_rp_owner_is_skipped_only_when_it_has_nothing_to_signal(data, digest, asked):
    # the digests were taken before owners were skipped
    sc = from_dict(data)
    sim = SkipChecked(sc, seed=0)
    report, _ = sim.run()
    assert sim.asked == asked
    assert sim.asked + sim.skipped == len(sim.ch_ids) * sc.horizon_frames
    assert report.trace_digest == digest


def test_a_skipped_rp_is_played_again_from_a_real_time_flows_stop_frame():
    # two_hop's one bonded flow holds its slots from its first frames, so
    # the RP is skipped until the flow stops at frame 40, and only then
    # can its hop cancel; the digest was taken before any RP was skipped
    sim = SkipChecked(from_dict(helpers.two_hop(horizon=60, stop_frame=40)), seed=0)
    report, trace = sim.run()
    assert (sim.asked, sim.skipped) == (21, 99)
    assert [e["frame"] for e in trace if e["event"] == "cancel_complete"] == [41]
    assert report.trace_digest == (
        "54158529bd3d3c1dcc7f6fafe7e656d499b51456bf8e343258a2e360f7bb0ded"
    )


def test_a_frame_in_which_no_station_can_signal_skips_its_rp(monkeypatch):
    # the 60-frame grid-6 pin: once every hop holds slots, no RP owner has
    # anything to signal until a real-time flow stops, and the whole RP of
    # such a frame is skipped: 9 of its 60 frames play their 11 RP slots,
    # where every frame once did (660 calls)
    calls = [0]
    real = Simulation._rp_slot

    def counted(self, frame, r):
        calls[0] += 1
        real(self, frame, r)

    monkeypatch.setattr(Simulation, "_rp_slot", counted)
    report, _ = run(helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0))
    assert calls[0] == 99
    assert report.trace_digest == (
        "5d9cfc3019ad1e18be50ebcd92bb524de5c163610d0f5763d68ddd166b85872e"
    )


class OutcomeAndControlChecked(OutcomeChecked, ControlChecked):
    """Checks every kept CF and RP channel outcome."""


def random_layout(rng):
    """A small jittered grid of cluster heads with sectors aimed roughly
    east, a base station east of it, a few sensors, and flows of every
    class at rates inside the class's band, with random faults, sometimes
    without slotting or with a wider interference footprint."""
    nx, ny = rng.randint(2, 4), rng.randint(1, 3)
    stations = [
        helpers.ch(
            nx * gy + gx, 50.0 + 100.0 * gx + rng.uniform(-30, 30),
            50.0 + 100.0 * gy + rng.uniform(-30, 30), theta=rng.gauss(0.0, 0.4),
            alpha=rng.uniform(1.0, 2.4), reach=rng.uniform(110.0, 230.0),
            rf=rng.uniform(90.0, 250.0),
        )
        for gy in range(ny)
        for gx in range(nx)
    ]
    heads = [st["id"] for st in stations]
    stations.append(helpers.bs(100, 50.0 + 100.0 * nx, rng.uniform(0.0, 100.0 * ny)))
    sensors = [200 + i for i in range(rng.randint(0, 2))]
    stations += [
        helpers.sensor(i, rng.uniform(0.0, 100.0 * nx), rng.uniform(0.0, 100.0 * ny))
        for i in sensors
    ]
    horizon = rng.randint(10, 60)
    flows = []
    for fid in range(1, rng.randint(1, 6) + 1):
        cls = rng.choice(sorted(SERVICE_CLASSES))
        service = SERVICE_CLASSES[cls]
        src = rng.choice(heads + sensors)
        f = helpers.flow(
            fid, src, rng.choice([100, 100] + [h for h in heads if h != src]), cls=cls,
            mode=rng.choice(["bonded", "semi_bonded", "none"]) if service.real_time else "none",
            rate=rng.uniform(service.bandwidth_min, service.bandwidth_max),
            size=rng.randint(1000, 64000), burst_length=rng.randint(1, 6),
        )
        if rng.random() < 0.3:
            f["start_frame"] = rng.randint(0, 3)
            f["stop_frame"] = f["start_frame"] + rng.randint(1, horizon)
        flows.append(f)
    faults = [
        {"kind": rng.choice(sorted(FAULT_KINDS)), "frame": rng.randint(0, horizon - 1),
         "sender": rng.choice(heads)}
        for _ in range(rng.randint(0, 2))
    ]
    data = helpers.base(stations, flows, horizon=horizon, faults=faults)
    if rng.random() < 0.3:
        data["mac"] = {"slotting_enabled": False}
    if rng.random() < 0.3:
        data["channel"] = {"interference_multiplier": rng.uniform(1.0, 1.6)}
    return data


def test_a_random_layout_validates_runs_and_serialises_canonically():
    # validation refuses a scenario only with a ScenarioError, a scenario
    # it accepts never makes a run raise, and the trace's kept text is its
    # events' JSON lines. One case in four breaks one rule on purpose.
    rng = random.Random(30)
    broken = [
        lambda d: d["flows"][0].update(rate_bps=-1.0),
        lambda d: d["flows"][0].update(dst=999),
        lambda d: d["flows"][0].update(src=d["flows"][0]["dst"]),
        lambda d: d["stations"].append(dict(d["stations"][0])),
        lambda d: d.update(horizon_frames=0),
        lambda d: d["faults"].append({"kind": "CR", "frame": 0, "sender": 100}),
    ]
    ran = refused = cf_slots = rp_channels = 0
    for case in range(30):
        data = random_layout(rng)
        if case % 4 == 3:
            rng.choice(broken)(data)
        try:
            sc = from_dict(data)
        except ScenarioError:
            refused += 1
            continue
        # the kept channel outcomes are checked against fresh resolves
        # too, with slotting off and wider footprints among the draws
        sim = OutcomeAndControlChecked(sc, seed=case)
        report, trace = sim.run()
        assert serialize_trace(trace) == canonical(list(trace)), case
        assert report.trace_digest == sha256_hex(canonical(list(trace))), case
        assert sim.collisions_checked == report.control_collisions + report.data_collisions
        cf_slots += sim.slots_checked
        rp_channels += sim.channels_checked
        ran += 1
    assert (ran, refused) == (23, 7)
    assert (cf_slots, rp_channels) == (17520, 551)


def test_slot_times_are_exact_with_slot_lengths_that_do_not_sum_exactly():
    # 0.3 and 0.7 ms are not binary fractions, so a slot time summed in
    # another order drifts by an ulp; the delays were taken when every CF
    # slot's start and end came from FrameLayout
    data = helpers.churn()
    data["frame"] = {
        "rp_slots": 11, "cf_slots": 20, "rp_slot_len_ms": 0.3, "cf_slot_len_ms": 0.7,
    }
    report, _ = run(data)
    assert {fid: (fs.mean_delay_ms, fs.max_delay_ms) for fid, fs in report.flows.items()} == {
        1: (50.43750000000002, 59.82500000000002),
        2: (71.46666666666667, 84.0),
        3: (279.18854996387887, 337.5560149200079),
        4: (312.1967139234449, 826.6818223609288),
        5: (45.07053571428573, 59.27499999999998),
    }


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


# the tier-1 pin scenarios, churn, and a flow that finds no free slot
LINE_CORPUS = [
    helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0),
    helpers.churn(),
    helpers.wide_footprint_grid(),
    dict(
        helpers.grid(4, flows=helpers.grid_flows(4, 3), horizon=40, slotting=False, rf=150.0),
        channel={"interference_multiplier": 1.5},
    ),
    helpers.one_cf_slot(),
]


def test_every_emitted_line_is_its_events_canonical_json(monkeypatch):
    made, encoded = helpers.record_trace_lines(monkeypatch), [0]
    recorded_line = trace_mod._line

    def counted(event):
        encoded[0] += 1
        return recorded_line(event)

    monkeypatch.setattr(trace_mod, "_line", counted)
    kinds = set()
    for data in LINE_CORPUS:
        made.clear()
        encoded[0] = 0
        report, trace = run(data)
        assert made == [canonical([e]) for e in trace]
        assert sha256_hex("".join(made)) == report.trace_digest
        # every kind but route has a template, and every value fits it
        assert encoded[0] == sum(e["event"] == "route" for e in trace) > 0
        kinds.update(e["event"] for e in trace)
    assert kinds == set(trace_mod._SHAPES) | {"route"}


def test_a_flow_that_finds_no_free_slot_backs_off_for_that_reason():
    _, trace = run(helpers.one_cf_slot())
    at = [i for i, e in enumerate(trace) if e["event"] == "no_free_slots"]
    assert at
    for i in at:
        e, nxt = trace[i], trace[i + 1]
        assert nxt["event"] == "backoff" and nxt["detail"]["reason"] == "no_free_slots"
        assert nxt["detail"]["flow"] == e["detail"]["flow"] == 2
        assert [nxt[k] for k in ("frame", "slot", "station")] == [
            e[k] for k in ("frame", "slot", "station")
        ]


def test_readme_lists_every_event_kind_with_its_detail_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| event | detail keys |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[2:]:
        event, keys = row.split("|")[1:3]
        listed[event.strip().strip("`")] = [
            re.findall(r"`(\w+)`", shape) for shape in keys.split("; or ")
        ]
    declared = {event: [[k for k, _ in shape]] for event, shape in trace_mod._SHAPES.items()}
    declared["route"] = [["flow", "unrouted"], ["flow", "mean_deviation", "path"]]
    assert listed == declared


def test_templates_quote_only_strings_json_leaves_as_they_are():
    assert {"RP", "CFP", "cancel", "overwrite", "expire", "unrouted"} <= trace_mod._QUOTABLE
    for v in trace_mod._QUOTABLE:
        assert encode_basestring_ascii(v) == f'"{v}"'


def test_an_event_off_its_kinds_shape_still_comes_out_canonical():
    nan, inf = float("nan"), float("inf")
    made = [
        # keys out of order, missing or extra
        ("data_tx", {"to": 4, "seq": 2, "flow": 1}),
        ("data_tx", {"flow": 1, "seq": 2}),
        ("data_tx", {"flow": 1, "seq": 2, "to": 4, "x": 0}),
        ("wasted_slot", {}),
        # None, True, a float where an int goes, a string
        ("data_tx", {"flow": None, "seq": 2, "to": 4}),
        ("data_rx", {"flow": 1, "sender": True, "seq": 2}),
        ("uplink_tx", {"flow": 1, "seq": 2.5}),
        ("wasted_slot", {"flow": "1"}),
        ("rt_insert", {"established_frame": False, "kind": "datagram", "rx": 3,
                       "slot_index": 1.0, "tx": 2}),
        # a string JSON must escape, or one of another type
        ("rt_delete", {"kind": "datagram", "reason": 'quo"te', "rx": 3, "slot_index": 1,
                       "tx": 2}),
        ("packet_drop", {"flow": 1, "reason": "caf\u00e9", "seq": 2}),
        ("rt_delete", {"kind": ["datagram"], "reason": "expire", "rx": 3, "slot_index": 1,
                       "tx": 2}),
        ("packet_drop", {"flow": 1, "reason": ReservationKind.DATAGRAM, "seq": 2}),
        # floats that are not finite, an int where a float goes, and
        # floats the template does take
        ("packet_gen", {"created_ms": nan, "flow": 1, "seq": 2}),
        ("data_delivered", {"delay_ms": -inf, "flow": 1, "seq": 2}),
        ("packet_gen", {"created_ms": 7, "flow": 1, "seq": 2}),
        ("packet_gen", {"created_ms": None, "flow": 1, "seq": 2}),
        ("data_delivered", {"delay_ms": -0.0, "flow": 1, "seq": 2**63}),
        ("data_delivered", {"delay_ms": 1e16, "flow": 1, "seq": 2}),
        ("data_delivered", {"delay_ms": inf, "flow": 1, "seq": 2}),
    ]
    # every case with its kind's keys also goes through the kind's emitter,
    # as does, for each value of each kind, one off that value alone: True
    # (an int that %d, %r and "%s" all write otherwise than JSON), a string
    # JSON must escape, NaN, an empty list (its key is left out), a tuple,
    # a list of something other than ints, and None where it may go
    emitted = [(e, d) for e, d in made if sorted(d) == [k for k, _ in trace_mod._SHAPES[e]]]
    good = {int: 1, float: 1.5, str: "cancel", list[int]: [1, 2], int | None: 3}
    off = {
        int: [True], float: [True, nan], str: [True, 'quo"te'],
        list[int]: [[], (1, 2), [True], [1.0], ["1"], [[1]]], int | None: [True, 1.0, None],
    }
    for event, shape in trace_mod._SHAPES.items():
        for key, t in shape:
            emitted += [(event, dict({k: good[u] for k, u in shape}, **{key: v})) for v in off[t]]
    envelopes = [(True, 1, "CFP", 2), (0, 2.0, "CFP", 2), (0, 1, "CFP", None),
                 (0, 1, True, 2), (0, 1, 'C"FP', 2), (0, True, "RP", 2), (0, 1, "CFP", True)]
    sim = Simulation(from_dict(helpers.two_hop(horizon=2)), seed=0)
    for event, detail in made:
        sim.trace.emit(0, 1, "CFP", 2, event, **detail)
    sim.trace.emit(0, 1, 'C"FP', 2, "wasted_slot", flow=1)  # a phase JSON must escape
    for event, detail in emitted:
        getattr(sim.trace, event)(0, 1, "CFP", 2, **detail)
    for event, shape in trace_mod._SHAPES.items():
        for envelope in envelopes:
            getattr(sim.trace, event)(*envelope, **{k: good[t] for k, t in shape})
    report, trace = sim.run()
    assert [e["detail"] for e in trace[:len(made)]] == [d for _, d in made]
    start = len(made) + 1
    assert len(emitted) > len(made)
    assert [(e["event"], e["detail"]) for e in trace[start:start + len(emitted)]] == [
        (event, {k: v for k, v in detail.items() if v != []}) for event, detail in emitted
    ]
    assert serialize_trace(trace) == canonical(trace)
    assert report.trace_digest == sha256_hex(canonical(trace))
    # in a trace read back: a detail key that is an envelope key, an
    # envelope value of another type, six keys that are not the envelope's
    e = trace[-1]
    read = [
        dict(e, event="frame_end", detail={"frame": 3}),
        dict(e, frame=True), dict(e, slot=2.0), dict(e, station=None), dict(e, event=7),
        {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6},
    ]
    assert serialize_trace(read) == canonical(read)


def test_templates_write_floats_big_ints_and_slot_lists_as_json_does(monkeypatch):
    # each line is its kind's bytes template, never _line: %a writes a
    # finite float as its repr, which json.dumps writes too, and %d any
    # int, however large
    fallback = []
    monkeypatch.setattr(trace_mod, "_line", fallback.append)
    sim = Simulation(from_dict(helpers.two_hop(horizon=2)), seed=0)
    for x in [0.1 + 0.2, 1e16, 1e-7, 5e-324, -0.0, 2.0**53]:
        sim.trace.packet_gen(0, 0, "RP", 1, created_ms=x, flow=1, seq=2**63 + 1)
        sim.trace.data_delivered(3, 4, "CFP", 2, delay_ms=x, flow=2, seq=2**64)
    sim.trace.control_tx(5, 6, "RP", 1, kind="CR", slots=[0, 2**70, 3], to=None)
    sim.trace.handshake_complete(5, 6, "RP", 1, flow=1, kind="datagram", peer=2, slots=[2**65])
    assert fallback == []
    assert [line.decode() for line in sim.trace._lines] == [
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in sim.trace
    ]
    assert len(sim.trace) == 14


def test_run_pauses_the_collector_over_its_frames_and_restores_the_callers_setting():
    seen = []

    class Watched(Simulation):
        def _end_frame(self, frame):
            seen.append(gc.isenabled())
            super()._end_frame(frame)

    class Failing(Simulation):
        def _cf_slot(self, frame, s):
            raise RuntimeError("cf slot")

    sc = from_dict(helpers.two_hop(horizon=5))
    was = gc.isenabled()
    try:
        gc.enable()
        Watched(sc, seed=0).run()
        assert gc.isenabled() and seen == [False] * 5
        gc.disable()
        Watched(sc, seed=0).run()
        assert not gc.isenabled()
        gc.enable()
        with pytest.raises(RuntimeError, match="cf slot"):
            Failing(sc, seed=0).run()
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_a_run_leaves_no_reference_cycles():
    # why run() may pause the collector: a pass after it finds nothing
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for data in LINE_CORPUS:
            run(data)
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_a_run_serialises_each_event_once(monkeypatch):
    made = helpers.record_trace_lines(monkeypatch)
    report, trace = run(helpers.churn())
    assert serialize_trace(trace) == canonical(trace)
    assert trace_digest(trace) == report.trace_digest
    assert len(made) == len(trace)


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
    # list methods that copy the items themselves, records included
    for items in (trace.copy(), trace + [], list(reversed(trace))[::-1]):
        assert type(items[-1]) is tuple
        assert serialize_trace(items) == want and trace_digest(items) == report.trace_digest
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


def test_a_trace_read_or_appended_to_during_a_run_keeps_its_text():
    # the frame's fold adds its lines to text kept by a digest or a
    # serialisation, and folds none once an event came in without a line
    class Reading(Simulation):
        def _end_frame(self, frame):
            super()._end_frame(frame)
            if frame == 1:
                trace_digest(self.trace)
            elif frame == 2:
                serialize_trace(self.trace)
            elif frame == 3:
                self.trace.append({"frame": 3, "event": "x", "detail": {}})

    report, trace = Reading(from_dict(helpers.two_hop(horizon=6)), seed=0).run()
    assert serialize_trace(trace) == canonical(trace)
    assert report.trace_digest == sha256_hex(canonical(trace))


def test_a_trace_holds_records_and_reads_as_event_dicts():
    report, trace = run(helpers.churn())
    items = list(list.__iter__(trace))
    kinds = [e["event"] for e in trace]
    assert "route" in kinds
    assert [type(item) for item in items] == [dict if k == "route" else tuple for k in kinds]
    events = [json.loads(line) for line in serialize_trace(trace).splitlines()]
    assert trace[-1] == events[-1] and trace[2:5] == events[2:5]
    assert list(trace) == events and trace == list(trace) and trace == events
    assert not trace != events and trace != events[1:]
    # a plain list of its own items, and membership, count and index,
    # read events too
    assert trace == trace.copy() and trace.copy() == trace and not trace != trace.copy()
    assert trace[3] in trace and trace.count(trace[3]) == 1 and trace.index(trace[3]) == 3
    copy = pickle.loads(pickle.dumps(trace))
    assert isinstance(copy, list) and copy == events
    # an empty list stays in its record, and its key is left out of the
    # event the record reads as
    empty = [i for i, item in enumerate(items) if type(item) is tuple and [] in item[5:]]
    assert empty
    for i in empty:
        assert items[i][0] in ("control_tx", "control_fault_drop")
        assert "slots" not in trace[i]["detail"] and trace[i] == events[i]


def test_a_trace_compares_unequal_to_tuples_that_are_no_records():
    # a tuple whose first item is no event kind is compared as it is
    trace = trace_mod.Trace([{"a": 1}])
    for other in ([(1, 2)], [()], [([1], 2)], [("no_such_kind", 0)]):
        assert not trace == other and trace != other
    assert trace_mod.Trace([(1, 2)]) == [(1, 2)]


@pytest.mark.parametrize("data", LINE_CORPUS + [line_mixed(60)])
def test_the_auditor_reads_records_and_event_dicts_alike(data):
    # it reads a record's fields by position, from a key table of its own,
    # and turns an event dict into a record through that same table: a
    # table that drifts from trace._SHAPES gives other verdicts here
    sc = from_dict(data)
    sim = Simulation(sc, seed=0)
    _, trace = sim.run()
    settings = dict(
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )
    from_records = run_audits(trace, sim.net, **settings)
    from_dicts = run_audits([dict(e) for e in trace], sim.net, **settings)
    assert [repr(v) for v in from_records.verdicts()] == [
        repr(v) for v in from_dicts.verdicts()
    ]
    # the replay read handshakes and control messages, not an empty stream
    assert from_records.table_agreement.checked and from_records.rp_slot_discipline.checked


def test_run_takes_its_digest_through_the_module_trace_digest(monkeypatch):
    # the benchmark's engine.trace_digest span and its tampered-digest
    # check wrap this module attribute
    monkeypatch.setattr(engine, "trace_digest", lambda events: "sentinel")
    report, _ = run(helpers.two_hop(horizon=10))
    assert report.trace_digest == "sentinel"
