"""Post-run trace auditing.

The auditor replays a simulation trace against the topology it ran on
and checks the protocol's correctness properties from the outside. It
shares no state with the engine: reservation tables are rebuilt purely
from rt_insert / rt_delete events, so any divergence between what the
engine did and what the protocol promises shows up as a violation.

Headline properties (these gate the process exit code):

  interferer_hop_bound    stations that garble each other's control
                          traffic are RF neighbors of neighbors, never
                          more than four hops apart
  control_collision_free  the grid schedule plus carrier sensing leaves
                          zero control collisions end to end
  table_agreement         after every completed handshake or cancel,
                          both endpoints and every station in their
                          common range agree on the affected slots

Supporting checks (reported, not gating):

  rp_slot_discipline      requests, cancels and reservation broadcasts
                          leave a station only in its own schedule slot
  rt_consistency          per frame, no station listens on a slot where
                          a second claimed transmitter could reach it
  datagram_expiry         no datagram reservation survives its frame
  realtime_persistence    real-time entries leave tables only by cancel

The three per-frame checks (rt_consistency, datagram_expiry,
realtime_persistence) read only the replayed tables and the real-time
obligations. Each is recomputed only after an rt_insert, rt_delete or
real-time handshake_complete has changed them; in a frame with no such
change its last findings are flagged again at the new frame. Events the
replay never reads (data_tx, packet_gen, wasted_slot, ...) are skipped
once they have marked the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .geometry import Sector, sector_contains
from .mac import my_rp_slot
from .topology import Network, common_range, rf_hop_distance

MAX_VIOLATIONS = 25  # kept per verdict; the count still reflects all


@dataclass
class Verdict:
    name: str
    passed: bool = True
    checked: int = 0
    violation_count: int = 0
    violations: list[dict] = field(default_factory=list)

    def flag(self, **detail):
        self.passed = False
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(detail)


@dataclass
class AuditReport:
    interferer_hop_bound: Verdict
    control_collision_free: Verdict
    table_agreement: Verdict
    rp_slot_discipline: Verdict
    rt_consistency: Verdict
    datagram_expiry: Verdict
    realtime_persistence: Verdict
    control_collisions: int = 0
    data_collisions: int = 0

    @property
    def headline_passed(self) -> bool:
        return (
            self.interferer_hop_bound.passed
            and self.control_collision_free.passed
            and self.table_agreement.passed
        )

    @property
    def all_passed(self) -> bool:
        return self.headline_passed and (
            self.rp_slot_discipline.passed
            and self.rt_consistency.passed
            and self.datagram_expiry.passed
            and self.realtime_persistence.passed
        )

    def verdicts(self) -> list[Verdict]:
        return [
            self.interferer_hop_bound,
            self.control_collision_free,
            self.table_agreement,
            self.rp_slot_discipline,
            self.rt_consistency,
            self.datagram_expiry,
            self.realtime_persistence,
        ]


# every event the replay reads; the others only mark the frame
_READS = frozenset({
    "rt_insert", "rt_delete", "handshake_complete", "cancel_complete",
    "control_tx", "control_collision", "data_collision", "frame_end",
})


def _rt_consistency(tables, chs, footprint) -> tuple[int, list[tuple]]:
    """Slots checked, and (slot, listener, expected, interferer) for
    each listener that a second claimed transmitter of its slot reaches;
    footprint(t) is the set of stations t's laser reaches."""
    # slot -> (transmitters, (listener, expected) pairs), in station order
    claims: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
    for sid in chs:
        for slot, (tx, rx, _) in tables[sid].items():
            txs, rxs = claims.get(slot) or claims.setdefault(slot, ([], []))
            if tx == sid:
                txs.append(sid)
            if rx == sid:
                rxs.append((sid, tx))
    findings = []
    for slot in sorted(claims):
        txs, rxs = claims[slot]
        for sid, expected in rxs:
            for t in txs:
                if t != expected and sid in footprint(t):
                    findings.append((slot, sid, expected, t))
    return len(claims), findings


def _datagram_expiry(tables, chs) -> tuple[int, list[tuple]]:
    """One check, and (station, slot, entry) for each datagram
    reservation a table still holds."""
    return 1, [
        (sid, slot, ent)
        for sid in chs
        for slot, ent in sorted(tables[sid].items())
        if ent[2] == "datagram"
    ]


def _realtime_persistence(tables, obligations) -> tuple[int, list[tuple]]:
    """Endpoint tables checked, and (station, slot, wanted entry) for
    each obligated endpoint whose table lacks its real-time entry."""
    checked = 0
    findings = []
    for (slot, tx, rx), members in sorted(obligations.items()):
        want = (tx, rx, "real_time")
        checked += len(members)
        for sid in sorted(members):
            if tables[sid].get(slot) != want:
                findings.append((sid, slot, want))
    return checked, findings


def _flag_all(verdict: Verdict, frame: int, checked: int, findings, keys) -> None:
    """Adds checked and flags each finding at frame, its fields named by
    keys and its tuples made fresh lists; builds only the violation
    dicts the cap keeps."""
    verdict.checked += checked
    if findings:
        verdict.passed = False
        verdict.violation_count += len(findings)
        for f in findings[: MAX_VIOLATIONS - len(verdict.violations)]:
            detail = {"frame": frame}
            for k, v in zip(keys, f):
                detail[k] = list(v) if isinstance(v, tuple) else v
            verdict.violations.append(detail)


def run_audits(
    trace: list[dict],
    net: Network,
    *,
    slotting_enabled: bool,
    interference_multiplier: float,
    rp_slot_map: dict[int, int] | None = None,
) -> AuditReport:
    """Every audit verdict of a run's trace. The scenario's slotting and
    interference multiplier have no default: an audit made with other
    values checks other footprints and slots than the run used, and can
    pass a trace that breaks them."""
    chs = sorted(s.id for s in net.cluster_heads())
    ch_set = set(chs)
    if rp_slot_map is None:
        # each cluster head's slot by its own grid cell, worked out here
        # rather than taken from the engine, so the check is independent
        rp_slot_map = {
            sid: my_rp_slot(net.station(sid), net.grid_spec, slotting_enabled)
            for sid in chs
        }

    # independent recomputation of a laser's interference footprint, made
    # the first time the replay sees the station claim a transmit slot
    footprints: dict[int, frozenset[int]] = {}

    def footprint(sid: int) -> frozenset[int]:
        if sid not in footprints:
            s = net.station(sid)
            wide = Sector(
                apex=s.sector.apex,
                theta=s.sector.theta,
                alpha=s.sector.alpha,
                range=s.sector.range * interference_multiplier,
            )
            footprints[sid] = frozenset(
                t
                for t in chs
                if t != sid and sector_contains(wide, net.station(t).position)
            )
        return footprints[sid]

    hop_bound = Verdict("interferer_hop_bound")
    collision_free = Verdict("control_collision_free")
    agreement = Verdict("table_agreement")
    discipline = Verdict("rp_slot_discipline")
    consistency = Verdict("rt_consistency")
    dg_expiry = Verdict("datagram_expiry")
    rt_persist = Verdict("realtime_persistence")
    control_collisions = 0
    data_collisions = 0

    hop_cache: dict[tuple[int, int], int | None] = {}

    def hops(a: int, b: int) -> int | None:
        key = (a, b) if a < b else (b, a)
        if key not in hop_cache:
            hop_cache[key] = rf_hop_distance(net, a, b)
        return hop_cache[key]

    agree_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def agreement_set(x: int, y: int) -> tuple[int, ...]:
        key = (x, y) if x < y else (y, x)
        if key not in agree_cache:
            members = {x, y} | (set(common_range(net, x, y)) & ch_set)
            agree_cache[key] = tuple(sorted(members))
        return agree_cache[key]

    # station -> cf slot -> (tx, rx, kind) as rebuilt from the trace
    tables: dict[int, dict[int, tuple[int, int, str]]] = {sid: {} for sid in chs}
    # (slot, tx, rx) -> endpoints whose table must still hold the entry;
    # an endpoint leaves the set the moment it deletes, so a completed
    # or half-finished cancellation stops obligating the parties that
    # already tore down
    obligations: dict[tuple[int, int, int], set[int]] = {}
    # moves on every rt_insert, rt_delete and real-time handshake, the
    # only events that change tables or obligations
    version = 0

    def per_frame(verdict, compute, keys):
        """A frame check that calls compute() for (checked, findings)
        only after the version has moved, and otherwise flags its last
        findings again at the new frame."""
        memo = [None, 0, []]

        def check(frame: int) -> None:
            if memo[0] != version:
                memo[:] = version, *compute()
            _flag_all(verdict, frame, memo[1], memo[2], keys)

        return check

    check_frame_consistency = per_frame(
        consistency,
        lambda: _rt_consistency(tables, chs, footprint),
        ("slot", "listener", "expected", "interferer"),
    )
    check_datagram_expiry = per_frame(
        dg_expiry, lambda: _datagram_expiry(tables, chs), ("station", "slot", "entry")
    )
    check_realtime_persistence = per_frame(
        rt_persist,
        lambda: _realtime_persistence(tables, obligations),
        ("station", "slot", "expected"),
    )

    cur_frame = None
    for ev in trace:
        frame = ev["frame"]
        if cur_frame is None:
            cur_frame = frame
        elif frame != cur_frame:
            # all of cur_frame's events (cleanup included) are in; nothing
            # datagram may cross this boundary
            check_datagram_expiry(cur_frame)
            cur_frame = frame

        kind = ev["event"]
        if kind not in _READS:
            continue
        st = ev["station"]
        d = ev["detail"]

        if kind == "rt_insert":
            tables[st][d["slot_index"]] = (d["tx"], d["rx"], d["kind"])
            version += 1

        elif kind == "rt_delete":
            # the persistence rule protects the reservation itself, so it
            # binds the two endpoint tables; a bystander's cached entry may
            # be displaced by fresher broadcasts (spatial slot reuse)
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
            version += 1

        elif kind == "handshake_complete":
            x, y = st, d["peer"]
            if d["kind"] == "real_time":
                for slot in d["slots"]:
                    obligations[(slot, x, y)] = {x, y}
                version += 1
            want = (x, y, d["kind"])
            for member in agreement_set(x, y):
                for slot in d["slots"]:
                    agreement.checked += 1
                    got = tables[member].get(slot)
                    if got == want:
                        continue
                    # a listener already transmitting or receiving in the
                    # slot keeps its first-hand entry; the slot still reads
                    # busy in its table, which is all the broadcast must
                    # achieve for a station the new link could not hear
                    if got is not None and member in (got[0], got[1]):
                        continue
                    agreement.flag(
                        frame=frame, station=member, slot=slot,
                        expected=list(want),
                        found=None if got is None else list(got),
                    )

        elif kind == "cancel_complete":
            x, y = st, d["peer"]
            for member in agreement_set(x, y):
                for slot in d["slots"]:
                    agreement.checked += 1
                    got = tables[member].get(slot)
                    if got is not None and got[0] == x and got[1] == y:
                        agreement.flag(
                            frame=frame, station=member, slot=slot,
                            expected=None, found=list(got),
                        )

        elif kind == "control_tx":
            if d["kind"] in ("CR", "CC", "SRB"):
                discipline.checked += 1
                own = rp_slot_map.get(st)
                if ev["phase"] != "RP" or ev["slot"] != own:
                    discipline.flag(
                        frame=frame, station=st, kind=d["kind"],
                        slot=ev["slot"], own_slot=own,
                    )

        elif kind == "control_collision":
            control_collisions += 1
            collision_free.checked += 1
            collision_free.flag(frame=frame, station=st, senders=d["senders"])
            for a, b in combinations(sorted(d["senders"]), 2):
                hop_bound.checked += 1
                h = hops(a, b)
                if h is None or not (1 <= h <= 4):
                    hop_bound.flag(
                        frame=frame, receiver=st, pair=[a, b], hop_distance=h
                    )

        elif kind == "data_collision":
            data_collisions += 1

        elif kind == "frame_end":
            # tables still hold the frame's full schedule here; the
            # engine's cleanup deletes come after this marker
            check_frame_consistency(frame)
            check_realtime_persistence(frame)

    if cur_frame is not None:
        check_datagram_expiry(cur_frame)

    return AuditReport(
        interferer_hop_bound=hop_bound,
        control_collision_free=collision_free,
        table_agreement=agreement,
        rp_slot_discipline=discipline,
        rt_consistency=consistency,
        datagram_expiry=dg_expiry,
        realtime_persistence=rt_persist,
        control_collisions=control_collisions,
        data_collisions=data_collisions,
    )
