"""Post-run trace auditing.

The auditor replays a simulation trace against the topology it ran on
and checks the protocol's correctness properties from the outside. It
shares no state with the engine: reservation tables are rebuilt purely
from rt_insert / rt_delete events, so any divergence between what the
engine did and what the protocol promises shows up as a violation.

The properties, in report order; VERDICTS flags the headline ones,
which gate the process exit code, and the rest are supporting checks,
reported but not gating:

  interferer_hop_bound    stations that garble each other's control
                          traffic are RF neighbors of neighbors, never
                          more than four hops apart
  control_collision_free  the grid schedule plus carrier sensing leaves
                          zero control collisions end to end
  table_agreement         after every completed handshake or cancel,
                          both endpoints and every station in their
                          common range agree on the affected slots
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

The replay takes a trace's items as they are stored. A run's trace holds
each event the engine emits during frames as a record, the tuple (kind,
frame, slot, phase, station, the detail's values in sorted key order),
and its route events as dicts. The auditor reads a record's fields by
position, from a key table of its own (_FIELDS), and turns any event
dict, from a run or from a plain list, into such a record through that
same table. It imports nothing from the engine or from trace.py.
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


# (name, headline) of each verdict, in report order
VERDICTS = (
    ("interferer_hop_bound", True),
    ("control_collision_free", True),
    ("table_agreement", True),
    ("rp_slot_discipline", False),
    ("rt_consistency", False),
    ("datagram_expiry", False),
    ("realtime_persistence", False),
)


class AuditReport:
    """One Verdict per entry of VERDICTS, read as report.<name>."""

    def __init__(self) -> None:
        for name, _ in VERDICTS:
            setattr(self, name, Verdict(name))

    @property
    def headline_passed(self) -> bool:
        return all(getattr(self, name).passed for name, headline in VERDICTS if headline)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts())

    def verdicts(self) -> list[Verdict]:
        return [getattr(self, name) for name, _ in VERDICTS]


# The detail keys of every kind the replay reads, in the order a trace
# record holds their values after (kind, frame, slot, phase, station):
# sorted, as in the event's canonical line. The other kinds only mark
# the frame. An event dict leaves out a list key whose list is empty.
_FIELDS = {
    "rt_insert": ("established_frame", "kind", "rx", "slot_index", "tx"),
    "rt_delete": ("kind", "reason", "rx", "slot_index", "tx"),
    "handshake_complete": ("flow", "kind", "peer", "slots"),
    "cancel_complete": ("flow", "peer", "slots"),
    "control_tx": ("kind", "slots", "to"),
    "control_collision": ("senders",),
    "frame_end": (),
}
_LISTS = frozenset({"slots", "senders"})


def _record(ev: dict) -> tuple:
    """An event dict as the record the replay reads: its kind and frame,
    and for a kind in _FIELDS its slot, phase, station and values too."""
    kind = ev["event"]
    keys = _FIELDS.get(kind)
    if keys is None:
        return kind, ev["frame"]
    d = ev["detail"]
    return (kind, ev["frame"], ev["slot"], ev["phase"], ev["station"]) + tuple(
        d.get(k, []) if k in _LISTS else d[k] for k in keys
    )


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

    report = AuditReport()
    hop_bound = report.interferer_hop_bound
    collision_free = report.control_collision_free
    agreement = report.table_agreement
    discipline = report.rp_slot_discipline
    rt_persist = report.realtime_persistence

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
        report.rt_consistency,
        lambda: _rt_consistency(tables, chs, footprint),
        ("slot", "listener", "expected", "interferer"),
    )
    check_datagram_expiry = per_frame(
        report.datagram_expiry,
        lambda: _datagram_expiry(tables, chs),
        ("station", "slot", "entry"),
    )
    check_realtime_persistence = per_frame(
        rt_persist,
        lambda: _realtime_persistence(tables, obligations),
        ("station", "slot", "expected"),
    )

    # the items as stored, whatever list holds them; a record's fields
    # are read by position, in _FIELDS order
    cur_frame = None
    for ev in list.__iter__(trace):
        if type(ev) is not tuple:
            ev = _record(ev)
        frame = ev[1]
        if cur_frame is None:
            cur_frame = frame
        elif frame != cur_frame:
            # all of cur_frame's events (cleanup included) are in; nothing
            # datagram may cross this boundary
            check_datagram_expiry(cur_frame)
            cur_frame = frame

        kind = ev[0]
        if kind not in _FIELDS:
            continue

        if kind == "rt_insert":
            _, _, _, _, st, _, ekind, rx, slot, tx = ev
            tables[st][slot] = (tx, rx, ekind)
            version += 1

        elif kind == "rt_delete":
            _, _, _, _, st, ekind, reason, rx, slot, tx = ev
            # the persistence rule protects the reservation itself, so it
            # binds the two endpoint tables; a bystander's cached entry may
            # be displaced by fresher broadcasts (spatial slot reuse)
            if ekind == "real_time" and (st == tx or st == rx):
                rt_persist.checked += 1
                if reason != "cancel":
                    rt_persist.flag(frame=frame, station=st, slot=slot, reason=reason)
                held = obligations.get((slot, tx, rx))
                if held is not None:
                    held.discard(st)
                    if not held:
                        obligations.pop((slot, tx, rx))
            tables[st].pop(slot, None)
            version += 1

        elif kind == "handshake_complete" or kind == "cancel_complete":
            if kind == "handshake_complete":
                _, _, _, _, x, _, ekind, y, slots = ev
                want = (x, y, ekind)
                if ekind == "real_time":
                    for slot in slots:
                        obligations[(slot, x, y)] = {x, y}
                    version += 1
            else:
                _, _, _, _, x, _, y, slots = ev
                want = None  # a cancel leaves no entry for x -> y
            members = agreement_set(x, y)
            agreement.checked += len(members) * len(slots)
            for member in members:
                for slot in slots:
                    got = tables[member].get(slot)
                    if want is None:
                        if got is None or got[0] != x or got[1] != y:
                            continue
                    # a listener already transmitting or receiving in the
                    # slot keeps its first-hand entry; the slot still reads
                    # busy in its table, which is all the broadcast must
                    # achieve for a station the new link could not hear
                    elif got == want or (got is not None and member in got[:2]):
                        continue
                    agreement.flag(
                        frame=frame, station=member, slot=slot,
                        expected=None if want is None else list(want),
                        found=None if got is None else list(got),
                    )

        elif kind == "control_tx":
            _, _, slot, phase, st, ckind, _, _ = ev
            if ckind in ("CR", "CC", "SRB"):
                discipline.checked += 1
                own = rp_slot_map.get(st)
                if phase != "RP" or slot != own:
                    discipline.flag(
                        frame=frame, station=st, kind=ckind, slot=slot, own_slot=own,
                    )

        elif kind == "control_collision":
            _, _, _, _, st, senders = ev
            collision_free.checked += 1
            collision_free.flag(frame=frame, station=st, senders=senders)
            for a, b in combinations(sorted(senders), 2):
                hop_bound.checked += 1
                h = hops(a, b)
                if h is None or not (1 <= h <= 4):
                    hop_bound.flag(
                        frame=frame, receiver=st, pair=[a, b], hop_distance=h
                    )

        elif kind == "frame_end":
            # tables still hold the frame's full schedule here; the
            # engine's cleanup deletes come after this marker
            check_frame_consistency(frame)
            check_realtime_persistence(frame)

    if cur_frame is not None:
        check_datagram_expiry(cur_frame)

    return report
