"""The auditor must catch doctored traces, not just bless clean ones.

Each test runs a clean scenario, tampers with the recorded trace, and
checks that exactly the right verdict trips.
"""

import ast
import copy
from pathlib import Path

import pytest

import helpers
from wmsnsim import Simulation, audit as audit_mod, from_dict, run_audits
from wmsnsim.audit import AuditReport, Verdict
from wmsnsim.geometry import Sector, sector_contains


def clean_run(data, seed=0):
    sc = from_dict(data)
    sim = Simulation(sc, seed=seed)
    _, trace = sim.run()
    return sc, sim, trace


def audit(sim, sc, trace):
    """run_audits on the trace, checked against full_recheck."""
    multiplier = sc.channel.interference_multiplier
    rep = run_audits(
        trace,
        sim.net,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=multiplier,
    )
    got = [rep.rt_consistency, rep.datagram_expiry, rep.realtime_persistence]
    assert got == full_recheck(trace, sim.net, multiplier)
    return rep


def full_recheck(trace, net, interference_multiplier):
    """The rt_consistency, datagram_expiry and realtime_persistence
    verdicts with every per-frame check run again at every frame: the
    replay and check bodies of the auditor before it memoised them."""
    chs = sorted(s.id for s in net.cluster_heads())
    interf = {}
    for sid in chs:
        s = net.station(sid)
        wide = Sector(
            apex=s.sector.apex,
            theta=s.sector.theta,
            alpha=s.sector.alpha,
            range=s.sector.range * interference_multiplier,
        )
        interf[sid] = frozenset(
            t
            for t in chs
            if t != sid and sector_contains(wide, net.station(t).position)
        )
    consistency = Verdict("rt_consistency")
    dg_expiry = Verdict("datagram_expiry")
    rt_persist = Verdict("realtime_persistence")
    tables = {sid: {} for sid in chs}
    obligations = {}

    def check_frame_consistency(frame):
        slots = set()
        for sid in chs:
            slots.update(tables[sid])
        for slot in sorted(slots):
            consistency.checked += 1
            transmitters = [
                sid for sid in chs if tables[sid].get(slot, (None,))[0] == sid
            ]
            for sid in chs:
                ent = tables[sid].get(slot)
                if ent is None or ent[1] != sid:
                    continue
                expected = ent[0]
                for t in transmitters:
                    if t != expected and sid in interf[t]:
                        consistency.flag(
                            frame=frame, slot=slot, listener=sid,
                            expected=expected, interferer=t,
                        )

    def check_datagram_expiry(frame):
        for sid in chs:
            for slot, ent in sorted(tables[sid].items()):
                if ent[2] == "datagram":
                    dg_expiry.flag(frame=frame, station=sid, slot=slot, entry=list(ent))
        dg_expiry.checked += 1

    def check_realtime_persistence(frame):
        for (slot, tx, rx), members in sorted(obligations.items()):
            want = (tx, rx, "real_time")
            for sid in sorted(members):
                rt_persist.checked += 1
                if tables[sid].get(slot) != want:
                    rt_persist.flag(
                        frame=frame, station=sid, slot=slot,
                        expected=list(want),
                    )

    cur_frame = None
    for ev in trace:
        frame, kind, st, d = ev["frame"], ev["event"], ev["station"], ev["detail"]
        if cur_frame is None:
            cur_frame = frame
        elif frame != cur_frame:
            check_datagram_expiry(cur_frame)
            cur_frame = frame
        if kind == "rt_insert":
            tables[st][d["slot_index"]] = (d["tx"], d["rx"], d["kind"])
        elif kind == "rt_delete":
            if d["kind"] == "real_time" and st in (d["tx"], d["rx"]):
                rt_persist.checked += 1
                if d["reason"] != "cancel":
                    rt_persist.flag(
                        frame=frame, station=st, slot=d["slot_index"],
                        reason=d["reason"],
                    )
                held = obligations.get((d["slot_index"], d["tx"], d["rx"]))
                if held is not None:
                    held.discard(st)
                    if not held:
                        obligations.pop((d["slot_index"], d["tx"], d["rx"]))
            tables[st].pop(d["slot_index"], None)
        elif kind == "handshake_complete" and d["kind"] == "real_time":
            for slot in d["slots"]:
                obligations[(slot, st, d["peer"])] = {st, d["peer"]}
        elif kind == "frame_end":
            check_frame_consistency(frame)
            check_realtime_persistence(frame)
    if cur_frame is not None:
        check_datagram_expiry(cur_frame)
    return [consistency, dg_expiry, rt_persist]


@pytest.fixture(scope="module")
def two_hop_run():
    return clean_run(helpers.two_hop(horizon=30, stop_frame=25))


def test_clean_trace_passes(two_hop_run):
    sc, sim, trace = two_hop_run
    rep = audit(sim, sc, trace)
    assert rep.all_passed
    assert rep.table_agreement.checked > 0
    assert rep.rp_slot_discipline.checked > 0
    assert rep.rt_consistency.checked > 0
    assert rep.realtime_persistence.checked > 0


@pytest.mark.parametrize("left_out", ["slotting_enabled", "interference_multiplier"])
def test_run_audits_requires_the_scenarios_settings(two_hop_run, left_out):
    # a default multiplier would audit a widened-footprint run against the
    # narrow one and miss its consistency violations
    sc, sim, trace = two_hop_run
    settings = {
        "slotting_enabled": sc.mac.slotting_enabled,
        "interference_multiplier": sc.channel.interference_multiplier,
    }
    del settings[left_out]
    with pytest.raises(TypeError, match=left_out):
        run_audits(trace, sim.net, **settings)
    with pytest.raises(TypeError):
        run_audits(trace, sim.net, None, True, 1.0)  # no longer positional


def test_missing_bystander_insert_breaks_agreement(two_hop_run):
    sc, sim, trace = two_hop_run
    doctored = copy.deepcopy(trace)
    # erase one rt_insert that happened at a station other than the
    # handshake initiator: some common-range table now disagrees
    victims = [
        i
        for i, e in enumerate(doctored)
        if e["event"] == "rt_insert" and e["station"] not in (1,)
    ]
    del doctored[victims[0]]
    rep = audit(sim, sc, doctored)
    assert not rep.table_agreement.passed
    v = rep.table_agreement.violations[0]
    assert v["found"] is None or v["found"] != v["expected"]


def test_entry_left_after_a_cancel_breaks_agreement(two_hop_run):
    # drop the receiver's own cancel delete: the completed cancel leaves
    # the reservation standing in one table of the link
    sc, sim, trace = two_hop_run
    doctored = copy.deepcopy(trace)
    done = next(e for e in doctored if e["event"] == "cancel_complete")
    tx, rx = done["station"], done["detail"]["peer"]
    idx = next(
        i
        for i, e in enumerate(doctored)
        if e["event"] == "rt_delete"
        and e["detail"]["reason"] == "cancel"
        and e["station"] == rx
    )
    slot, kind = doctored[idx]["detail"]["slot_index"], doctored[idx]["detail"]["kind"]
    del doctored[idx]
    rep = audit(sim, sc, doctored)
    assert not rep.table_agreement.passed
    assert rep.table_agreement.violations == [
        {
            "frame": done["frame"], "station": rx, "slot": slot,
            "expected": None, "found": [tx, rx, kind],
        }
    ]


def test_fake_expiry_of_real_time_entry_breaks_persistence(two_hop_run):
    sc, sim, trace = two_hop_run
    doctored = copy.deepcopy(trace)
    ins = next(
        e for e in doctored
        if e["event"] == "rt_insert" and e["detail"]["kind"] == "real_time"
    )
    forged = {
        "frame": ins["frame"],
        "slot": ins["slot"],
        "phase": "RP",
        "station": ins["station"],
        "event": "rt_delete",
        "detail": {
            "slot_index": ins["detail"]["slot_index"],
            "tx": ins["detail"]["tx"],
            "rx": ins["detail"]["rx"],
            "kind": "real_time",
            "reason": "expire",
        },
    }
    doctored.insert(doctored.index(ins) + 1, forged)
    rep = audit(sim, sc, doctored)
    assert not rep.realtime_persistence.passed
    assert rep.realtime_persistence.violations[0]["reason"] == "expire"


def without_endpoint_entry(trace):
    """A copy of the trace without the rt_insert of the first real-time
    handshake's initiator; returns it, the initiator and the slots."""
    doctored = copy.deepcopy(trace)
    hs = next(
        e for e in doctored
        if e["event"] == "handshake_complete"
        and e["detail"]["kind"] == "real_time"
    )
    owner = hs["station"]
    slots = set(hs["detail"]["slots"])
    idx = next(
        i
        for i, e in enumerate(doctored)
        if e["event"] == "rt_insert"
        and e["station"] == owner
        and e["detail"]["tx"] == owner
        and e["detail"]["slot_index"] in slots
    )
    del doctored[idx]
    return doctored, owner, slots


def test_silently_missing_endpoint_entry_breaks_persistence(two_hop_run):
    # no rt_delete at all: the transmitter's table simply never holds
    # the entry its completed handshake promised, which only the
    # per-frame presence check can notice
    sc, sim, trace = two_hop_run
    doctored, owner, slots = without_endpoint_entry(trace)
    rep = audit(sim, sc, doctored)
    assert not rep.realtime_persistence.passed
    v = rep.realtime_persistence.violations[0]
    assert v["station"] == owner
    assert v["slot"] in slots


def test_moved_control_tx_breaks_slot_discipline(two_hop_run):
    sc, sim, trace = two_hop_run
    doctored = copy.deepcopy(trace)
    ct = next(
        e for e in doctored
        if e["event"] == "control_tx" and e["detail"]["kind"] == "CR"
    )
    ct["slot"] = (ct["slot"] + 1) % 11
    rep = audit(sim, sc, doctored)
    assert not rep.rp_slot_discipline.passed
    v = rep.rp_slot_discipline.violations[0]
    assert v["slot"] != v["own_slot"]
    # replies are exempt: moving a CA somewhere else must not trip it
    doctored2 = copy.deepcopy(trace)
    ca = next(
        e for e in doctored2
        if e["event"] == "control_tx" and e["detail"]["kind"] == "CA"
    )
    ca["slot"] = (ca["slot"] + 1) % 11
    assert audit(sim, sc, doctored2).rp_slot_discipline.passed


def with_surviving_datagram(trace):
    """A copy of the trace with a datagram reservation at station 2 from
    frame 2 on that is never cleaned up."""
    doctored = copy.deepcopy(trace)
    forged = {
        "frame": 2,
        "slot": 5,
        "phase": "RP",
        "station": 2,
        "event": "rt_insert",
        "detail": {
            "slot_index": 19,
            "tx": 2,
            "rx": 1,
            "kind": "datagram",
            "established_frame": 2,
        },
    }
    at = next(i for i, e in enumerate(doctored) if e["frame"] == 2)
    doctored.insert(at, forged)
    return doctored


def test_surviving_datagram_entry_breaks_expiry(two_hop_run):
    sc, sim, trace = two_hop_run
    rep = audit(sim, sc, with_surviving_datagram(trace))
    assert not rep.datagram_expiry.passed
    assert rep.datagram_expiry.violations[0]["station"] == 2
    assert rep.datagram_expiry.violations[0]["frame"] == 2


def test_conflicting_transmitter_breaks_consistency():
    # grid row flow 3 -> 4 -> 5 -> sink; station 0's eastward beam covers
    # the listener at station 4 diagonally, so a forged claim that 0
    # transmits in the same slot is a schedule conflict
    sc, sim, trace = clean_run(
        helpers.grid(3, flows=[helpers.flow(1, 3, 100)], horizon=20)
    )
    assert audit(sim, sc, trace).rt_consistency.passed
    doctored = copy.deepcopy(trace)
    ins = next(
        e for e in doctored
        if e["event"] == "rt_insert" and e["detail"]["tx"] == 3
    )
    slot_index = ins["detail"]["slot_index"]
    forged = {
        "frame": ins["frame"],
        "slot": ins["slot"],
        "phase": "RP",
        "station": 0,
        "event": "rt_insert",
        "detail": {
            "slot_index": slot_index,
            "tx": 0,
            "rx": 1,
            "kind": "real_time",
            "established_frame": ins["frame"],
        },
    }
    # place it after every genuine broadcast so nothing overwrites it
    end = next(
        i for i, e in enumerate(doctored)
        if e["event"] == "frame_end" and e["frame"] == ins["frame"]
    )
    doctored.insert(end, forged)
    rep = audit(sim, sc, doctored)
    assert not rep.rt_consistency.passed
    v = rep.rt_consistency.violations[0]
    assert v["slot"] == slot_index
    assert v["listener"] == 4
    assert v["interferer"] == 0


def test_collision_between_far_stations_breaks_hop_bound():
    # a forged collision between stations with no radio path must trip
    # the hop-distance bound
    sc, sim, trace = clean_run(helpers.two_hop(horizon=10))
    doctored = copy.deepcopy(trace)
    forged = {
        "frame": 1,
        "slot": 5,
        "phase": "RP",
        "station": 2,
        "event": "control_collision",
        "detail": {"senders": [1, 9]},  # 9 has no radio range at all
    }
    doctored.append(forged)
    rep = audit(sim, sc, doctored)
    assert not rep.control_collision_free.passed
    assert not rep.interferer_hop_bound.passed
    assert rep.interferer_hop_bound.violations[0]["hop_distance"] is None
    assert not rep.headline_passed


@pytest.mark.parametrize("name", [name for name, _ in audit_mod.VERDICTS])
def test_each_declared_verdict_gates_as_declared(name):
    rep = AuditReport()
    getattr(rep, name).flag(frame=0)
    assert not rep.all_passed
    assert rep.headline_passed == (
        name not in ("interferer_hop_bound", "control_collision_free", "table_agreement")
    )
    assert [v.name for v in rep.verdicts()] == [
        "interferer_hop_bound",
        "control_collision_free",
        "table_agreement",
        "rp_slot_discipline",
        "rt_consistency",
        "datagram_expiry",
        "realtime_persistence",
    ]
    assert [v.passed for v in rep.verdicts()] == [v.name != name for v in rep.verdicts()]


def test_verdict_violation_cap():
    sc, sim, trace = clean_run(helpers.two_hop(horizon=10))
    doctored = copy.deepcopy(trace)
    for f in range(40):
        doctored.append(
            {
                "frame": 9,
                "slot": 5,
                "phase": "RP",
                "station": 2,
                "event": "control_collision",
                "detail": {"senders": [1, 9]},
            }
        )
    rep = audit(sim, sc, doctored)
    assert rep.control_collision_free.violation_count == 40
    assert len(rep.control_collision_free.violations) == 25


def test_replayed_violations_share_no_list(two_hop_run):
    # a frame with no table change flags its last findings again; each
    # flag gets lists of its own
    sc, sim, trace = two_hop_run
    for doctored, verdict, key in (
        (with_surviving_datagram(trace), "datagram_expiry", "entry"),
        (without_endpoint_entry(trace)[0], "realtime_persistence", "expected"),
    ):
        found = getattr(audit(sim, sc, doctored), verdict).violations
        first, later = found[0], found[-1]
        assert first["frame"] < later["frame"] and first[key] == later[key]
        kept = list(later[key])
        first[key].append("changed")
        first[key][0] = None
        assert later[key] == kept


D2_GRID = helpers.hidden_receiver_grid()
D7_GRID = helpers.wide_footprint_grid()


@pytest.mark.parametrize(
    "data, flagged",
    [
        # the receiver-side hidden terminal: rt_consistency flags every
        # frame, past the violation cap
        (D2_GRID, 26),
        (D7_GRID, 26),
        (helpers.churn(), 0),
        (helpers.hidden_terminal(), 0),
        (helpers.mixed_traffic(horizon=60), 0),
    ],
)
def test_per_frame_verdicts_match_a_full_recheck(data, flagged):
    sc, sim, trace = clean_run(data)
    rep = audit(sim, sc, trace)
    assert rep.rt_consistency.violation_count >= flagged
    assert rep.realtime_persistence.checked > 0


def test_per_frame_checks_run_only_after_a_change(monkeypatch):
    # the tier-1 grid6-cbr pin scenario: reservations settle early, so
    # most frames replay the last findings
    sc, sim, trace = clean_run(
        helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0)
    )
    calls = {}
    for name in ("_rt_consistency", "_datagram_expiry", "_realtime_persistence"):
        real = getattr(audit_mod, name)

        def counted(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(audit_mod, name, counted)
    rep = audit(sim, sc, trace)
    changed = {
        e["frame"]
        for e in trace
        if e["event"] in ("rt_insert", "rt_delete", "handshake_complete")
    }
    assert rep.rt_consistency.checked > 0 and 0 < len(changed) < 30
    assert len(calls) == 3
    assert max(calls.values()) <= len(changed) + 1


def test_footprints_are_built_only_for_claiming_transmitters(monkeypatch):
    # same grid-6 pin scenario: only a station that claims a transmit slot
    # has its footprint tested against the other cluster heads
    sc, sim, trace = clean_run(
        helpers.grid(6, flows=helpers.grid_flows(6, 6), horizon=60, rf=200.0)
    )
    calls = [0]
    real = audit_mod.sector_contains

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(audit_mod, "sector_contains", counted)
    audit(sim, sc, trace)
    claimers = {e["detail"]["tx"] for e in trace if e["event"] == "rt_insert"}
    others = len(sim.net.cluster_heads()) - 1
    assert 0 < calls[0] <= len(claimers) * others
    assert len(claimers) * others < (others + 1) * others


def test_the_auditor_imports_neither_engine_nor_trace_and_no_module_a_private_name():
    # the auditor's independence from the engine and its trace format is
    # the point of the audit, and a module's underscore names are its own
    for path in sorted(Path(audit_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [a.name for a in node.names]
                if node.level or base.split(".")[0] == "wmsnsim":
                    assert not [n for n in names if n.startswith("_")], (path.name, base)
                modules = [base] + [f"{base}.{n}" for n in names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if path.name == "audit.py":
                parts = {part for m in modules for part in m.split(".")}
                assert not parts & {"engine", "trace"}, modules
