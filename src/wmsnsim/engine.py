"""Slotted discrete-event simulation core.

The engine drives a network of stations through a fixed number of MAC
frames. Each frame is a reservation period (one contention slot per
grid-derived schedule position) followed by a contention-free period of
reserved data slots. Everything is deterministic for a given scenario
and seed: per-station and per-flow RNG streams are derived from the
seed by name, and every iteration over stations, flows, or table
entries happens in sorted order.

A run's work follows the protocol, not slots x stations. An RP slot
asks only the cluster heads that own it whether to contend, and ends
there when none does. A CF slot plays a slot -> [(station, own entry)]
schedule that is rebuilt from the reservation tables only after one of
them changed; it scans queues for missed deadlines only once the
earliest queued deadline can have passed, and polls the optical uplink
only at cluster heads that are some flow's last hop. Energy is counted
as it is spent (sending, receiving, listening for a reserved packet);
idle listening in the RP and sleep are booked in bulk at the end of the
run. The frame boundary visits only tables that hold a datagram entry.

The simulation emits a structured event trace. Post-run audits
(see audit.py) replay that trace against the topology to check the
protocol's correctness properties; the engine itself never consults
the auditor.

Each event is a dict of frame, slot, phase, station, event and detail,
and every detail value is JSON-ready when emitted (enum values, lists,
never tuples). Its canonical line is json.dumps(event, sort_keys=True,
separators=(",", ":")) followed by one "\\n": keys sorted at every
level, no spaces, floats as repr, and ASCII-only strings (quote,
backslash, \\b \\f \\n \\r \\t escaped short, every other control or
non-ASCII character as \\uXXXX).
serialize_trace joins those lines, and trace_digest is the SHA-256 of
their UTF-8 bytes, which a written trace.jsonl holds byte for byte.

A run's trace is serialised once. Simulation.trace is a Trace, a list
that also keeps its canonical bytes: the digest run() takes makes them,
and serialize_trace, trace_digest and `wmsnsim run --trace` reuse them
for as long as no event has been appended.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii

from .mac import (
    BackoffState,
    ControlMessage,
    FrameLayout,
    MacConfig,
    MsgKind,
    NoFreeSlotsError,
    ReservationEntry,
    ReservationKind,
    StationMac,
    my_rp_slot,
)
from .routing import RouteConfig, discover
from .topology import StationKind, attach_point
from .traffic import (
    DropReason,
    Flow,
    PacketQueue,
    PacketRecord,
    PacketSource,
    establishment_priority,
)

# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class EnergyCosts:
    """Per-slot energy cost of each radio state, in abstract units."""

    tx: float = 1.0
    rx: float = 0.8
    idle: float = 0.5
    sleep: float = 0.01

    def __post_init__(self):
        for name in ("tx", "rx", "idle", "sleep"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"energy cost {name} must be >= 0, got {v}")


@dataclass(frozen=True)
class ChannelConfig:
    """Physical-layer knobs shared by the RF and optical channels.

    interference_multiplier scales a station's communication range (or
    sector reach) up to its interference footprint: transmissions
    corrupt receptions within the larger radius even where they could
    not be decoded. The default of 1.0 makes the two radii coincide,
    the unit-disk model under which a reservation broadcast reaches
    every station its data transmissions could disturb.
    """

    interference_multiplier: float = 1.0

    def __post_init__(self):
        if self.interference_multiplier < 1.0:
            raise ValueError("interference_multiplier must be >= 1")


# -- channel model ----------------------------------------------------------


@dataclass(frozen=True)
class Transmission:
    """One message in flight during one slot (or sub-round of a slot)."""

    sender: int
    payload: object
    comm: frozenset[int]  # stations that can decode us
    interf: frozenset[int]  # stations whose reception we corrupt
    to: int | None = None  # addressee of a data packet; None for control


def resolve_slot(
    transmissions: list[Transmission], listeners: frozenset[int] | set[int]
) -> tuple[dict[int, Transmission], dict[int, list[int]]]:
    """Decide who hears what when several stations key up at once.

    A listener successfully receives exactly when a single transmission's
    interference footprint covers it and that same transmission's
    communication range covers it too. Two or more footprints over one
    listener corrupt each other there (a collision at that listener);
    one footprint without decode range is just noise. Transmitting
    stations hear nothing themselves.

    Returns (delivered, collisions): receiver id -> transmission, and
    receiver id -> sorted sender ids that collided there, both keyed in
    ascending receiver order. The work is the senders' footprints, not
    every listener.
    """
    delivered: dict[int, Transmission] = {}
    collisions: dict[int, list[int]] = {}
    if not transmissions:
        return delivered, collisions
    senders = {t.sender for t in transmissions}
    hits: dict[int, list[Transmission]] = {}
    for t in transmissions:
        for rho in t.interf:
            if rho in listeners and rho not in senders:
                hits.setdefault(rho, []).append(t)
    for rho in sorted(hits):
        touching = hits[rho]
        if len(touching) == 1:
            t = touching[0]
            if rho in t.comm:
                delivered[rho] = t
        else:
            collisions[rho] = sorted(t.sender for t in touching)
    return delivered, collisions


# -- per-entity runtime state ------------------------------------------------


class EnergyMeter:
    """Slot-state tally per station.

    The engine counts the slots a station spends sending, receiving or
    listening for a reserved packet as they happen, and books the idle
    and sleeping rest of a run in bulk at its end.
    """

    STATES = ("tx", "rx", "idle", "sleep")

    def __init__(self, ids, costs: EnergyCosts):
        self.costs = costs
        self.counts = {sid: {s: 0 for s in self.STATES} for sid in ids}

    def add(self, sid: int, state: str, n: int = 1) -> None:
        self.counts[sid][state] += n

    def fill(self, sid: int, state: str, total: int) -> None:
        """Book as `state` every one of `total` slots not counted yet."""
        c = self.counts[sid]
        c[state] += total - sum(c.values())

    def consumed(self, sid: int) -> float:
        c = self.counts[sid]
        return sum(c[s] * getattr(self.costs, s) for s in self.STATES)

    def duty_cycle(self, sid: int) -> float:
        c = self.counts[sid]
        awake = c["tx"] + c["rx"] + c["idle"]
        total = awake + c["sleep"]
        return awake / total if total else 0.0


class _FlowRuntime:
    """Everything the engine tracks for one flow."""

    def __init__(self, flow: Flow, rng: random.Random):
        self.flow = flow
        self.source = PacketSource(flow, rng)
        self.records: list[PacketRecord] = []
        self.attach = flow.src  # cluster head where packets enter the mesh
        self.path: tuple[int, ...] | None = None  # None: no route found
        self.mean_deviation = 0.0
        self.next_hop: dict[int, int] = {}
        self.reserving_hops: list[int] = []  # hops that need MAC slots
        # session continuity, per reserving hop that has ever held slots
        self.gap: dict[int, int] = {}
        self.max_gap: dict[int, int] = {}


class _StationState:
    """Mutable per-station simulation state."""

    def __init__(self, sid: int, cf_slots: int, rng: random.Random):
        self.id = sid
        self.rng = rng
        self.mac = StationMac(sid, cf_slots)
        self.queues: dict[int, PacketQueue] = {}  # flow id -> forward queue
        self.uplink = PacketQueue(capacity=10**9)  # polled optical uplink
        self.flow_slots: dict[int, tuple[int, ...]] = {}  # flow -> our tx slots
        self.bindings: dict[int, int] = {}  # cf slot -> flow id
        self.est_backoff: dict[int, BackoffState] = {}
        self.cancel_backoff: dict[int, BackoffState] = {}
        self.flow_order: list[int] = []  # flows we forward over reserved slots


# -- results ----------------------------------------------------------------


@dataclass
class FlowStats:
    flow_id: int
    service: str
    generated: int = 0
    delivered: int = 0
    dropped_collision: int = 0
    dropped_deadline: int = 0
    dropped_overflow: int = 0
    queued_at_end: int = 0
    mean_delay_ms: float = 0.0
    max_delay_ms: float = 0.0
    session_gap_frames: int = 0  # worst starvation streak at any hop

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.generated if self.generated else 1.0

    @property
    def loss_rate(self) -> float:
        lost = self.dropped_collision + self.dropped_deadline + self.dropped_overflow
        return lost / self.generated if self.generated else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        return self.dropped_deadline / self.generated if self.generated else 0.0


@dataclass
class StationStats:
    station_id: int
    tx_slots: int
    rx_slots: int
    idle_slots: int
    sleep_slots: int
    energy: float
    duty_cycle: float


@dataclass
class SimReport:
    frames: int
    layout: FrameLayout
    flows: dict[int, FlowStats]
    stations: dict[int, StationStats]
    control_collisions: int
    data_collisions: int
    wasted_slots: int
    trace_digest: str
    routes: dict[int, tuple[int, ...] | None]


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# The detail encoder JSONEncoder.iterencode would build for _CANONICAL on
# every call, built once. It returns a detail's JSON as a sequence of
# chunks. Its circular-reference markers outlive a call, so a failed
# encode clears them (see _trace_lines).
_MARKERS: dict = {}
if c_make_encoder is None:
    def _encode_detail(detail, _level):
        return (_CANONICAL.encode(detail),)
else:
    _encode_detail = c_make_encoder(
        _MARKERS, _CANONICAL.default, encode_basestring_ascii, _CANONICAL.indent,
        _CANONICAL.key_separator, _CANONICAL.item_separator, _CANONICAL.sort_keys,
        _CANONICAL.skipkeys, _CANONICAL.allow_nan,
    )


def _trace_lines(events):
    """Each event's canonical line, newline included: what _CANONICAL.encode
    gives, built without it for the envelope Simulation._emit writes (six
    keys, int frame, slot and station, str phase and event). Any other
    dict goes through _CANONICAL.encode."""
    detail, string, join = _encode_detail, encode_basestring_ascii, "".join
    try:
        for e in events:
            if len(e) != 6:
                yield _CANONICAL.encode(e) + "\n"
                continue
            yield (
                f'{{"detail":{join(detail(e["detail"], 0))},"event":{string(e["event"])},'
                f'"frame":{e["frame"]:d},"phase":{string(e["phase"])},'
                f'"slot":{e["slot"]:d},"station":{e["station"]:d}}}\n'
            )
    except BaseException:
        _MARKERS.clear()
        raise


class Trace(list):
    """A run's events, plus the canonical text of its first `sealed` ones.

    Simulation only appends to its trace and never changes an event after
    emitting it, so the text stays valid while len(trace) == sealed. The
    first serialisation, the digest run() takes, keeps the UTF-8 bytes;
    serialize_trace swaps them for the str it returns, so the text is
    held once. A list that is changed in place other than by appending
    must not be a Trace."""

    sealed = 0
    _text: bytearray | str | None = None


def _held(events) -> bytearray | str | None:
    """The text a Trace keeps for exactly its events, if any."""
    if isinstance(events, Trace) and events.sealed == len(events):
        return events._text
    return None


def _canonical(events) -> bytearray | bytes:
    """The UTF-8 bytes of serialize_trace(events), made through
    _trace_lines once per Trace (see Trace) and per call otherwise. A
    Trace's kept buffer itself is returned, so callers only read it.

    The lines are gathered as bytes, which hold a trace once instead of
    as one str object per event: about 12 MB less peak memory than
    joining a list of lines on a 194 k-event trace."""
    text = _held(events)
    if text is None:
        text = bytearray()
        for line in _trace_lines(events):
            text += line.encode()
        if isinstance(events, Trace):
            events.sealed, events._text = len(events), text
    return text.encode() if isinstance(text, str) else text


def serialize_trace(events: list[dict]) -> str:
    """Canonical JSONL form of a trace; digests are taken over this.
    A Trace keeps the str in place of its bytes, so it holds its text
    once."""
    text = _held(events)
    if not isinstance(text, str):
        text = _canonical(events).decode()
        if isinstance(events, Trace):
            events._text = text
    return text


def trace_digest(events: list[dict]) -> str:
    """SHA-256 of the UTF-8 bytes of serialize_trace(events)."""
    return hashlib.sha256(_canonical(events)).hexdigest()


# -- the simulation -----------------------------------------------------------


class Simulation:
    """One run over a scenario. Construct, then call run() once."""

    def __init__(self, scenario, seed: int = 0):
        self.seed = seed
        self.layout: FrameLayout = scenario.layout
        self.horizon: int = scenario.horizon_frames
        self.mac_cfg: MacConfig = scenario.mac
        self.routing_cfg: RouteConfig = scenario.routing
        self.energy_costs: EnergyCosts = scenario.energy
        self.channel: ChannelConfig = scenario.channel

        self.net = scenario.build_network()
        self.sink = self.net.sink

        self.ch_ids: list[int] = sorted(s.id for s in self.net.cluster_heads())
        self.ch_set = frozenset(self.ch_ids)
        self.all_ids: list[int] = sorted(self.net.ids())

        # (message kind value, frame, sender) triples to suppress
        self.faults = {(f.kind, f.frame, f.sender) for f in scenario.faults}

        self.rp_slot_map = {
            sid: my_rp_slot(
                self.net.station(sid), scenario.grid, self.mac_cfg.slotting_enabled
            )
            for sid in self.ch_ids
        }
        # the cluster heads that may initiate in each RP slot
        self.rp_owners = [
            [sid for sid in self.ch_ids if self.rp_slot_map[sid] == r]
            for r in range(self.layout.rp_slots)
        ]

        # who decodes and who is disturbed, among the cluster heads
        mult = self.channel.interference_multiplier
        net, chs = self.net, self.ch_set
        self.rf_comm = {sid: net.rf_reach(sid) & chs for sid in self.ch_ids}
        self.rf_intf = {sid: net.rf_reach(sid, mult) & chs for sid in self.ch_ids}
        self.fso_comm = {sid: net.beam(sid) & chs for sid in self.ch_ids}
        self.fso_intf = {sid: net.beam(sid, mult) & chs for sid in self.ch_ids}

        self.sts: dict[int, _StationState] = {
            sid: _StationState(
                sid,
                self.layout.cf_slots,
                random.Random(f"{seed}/station/{sid}"),
            )
            for sid in self.ch_ids
        }
        self.meter = EnergyMeter(self.all_ids, self.energy_costs)

        self.flows: dict[int, _FlowRuntime] = {}
        for flow in sorted(scenario.flows, key=lambda f: f.id):
            fr = _FlowRuntime(flow, random.Random(f"{seed}/flow/{flow.id}"))
            self._plan_route(fr)
            self.flows[flow.id] = fr
        self.flow_ids = sorted(self.flows)

        for fid in self.flow_ids:
            fr = self.flows[fid]
            for sid in fr.reserving_hops:
                st = self.sts[sid]
                st.queues[fid] = PacketQueue(fr.flow.queue_capacity)
                st.flow_order.append(fid)
        for sid in self.ch_ids:
            self.sts[sid].flow_order.sort()

        # every queue, in the order its deadline drops are reported, and a
        # lower bound on the earliest deadline in any of them
        self.queue_order: list[tuple[int, PacketQueue]] = []
        for sid in self.ch_ids:
            st = self.sts[sid]
            self.queue_order += [(sid, st.queues[fid]) for fid in st.flow_order]
            self.queue_order.append((sid, st.uplink))
        self._next_due = math.inf
        # the cluster heads that hand some flow's last hop to the uplink
        to_sink = {
            a
            for fr in self.flows.values()
            for a, b in fr.next_hop.items()
            if self.net.station(b).kind is StationKind.BASE_STATION
        }
        self.uplink_ids = [sid for sid in self.ch_ids if sid in to_sink]

        # built by _schedule(), dropped by every table change
        self._cf_schedule: list[list[tuple[int, ReservationEntry]]] | None = None
        self._datagram_tables: set[int] = set()  # stations holding a datagram entry
        self._rp_busy = dict.fromkeys(self.ch_ids, 0)  # RP slots sent or received in

        self.trace = Trace()
        self.control_collisions = 0
        self.data_collisions = 0
        self.wasted_slots = 0
        self._ran = False

    # -- setup helpers ------------------------------------------------------

    def _plan_route(self, fr: _FlowRuntime) -> None:
        flow = fr.flow
        origin = fr.attach = attach_point(self.net, flow.src)
        if origin == flow.dst:
            fr.path = (origin,)
            fr.next_hop = {}
            return
        best = discover(self.net, origin, flow.dst, config=self.routing_cfg)
        if best is None:
            return
        hops = best.path.hops
        fr.path = hops
        fr.mean_deviation = best.mean_deviation
        for a, b in zip(hops, hops[1:]):
            fr.next_hop[a] = b
            if self.net.station(b).kind is StationKind.CLUSTER_HEAD:
                fr.reserving_hops.append(a)

    # -- trace helpers -------------------------------------------------------

    def _emit(self, frame: int, slot: int, phase: str, station: int, event: str, **detail):
        # detail values must be JSON-ready (an enum's ._value_, which skips
        # the .value property; lists, not tuples) and never changed
        # afterwards: the trace keeps them as given
        self.trace.append(
            {
                "frame": frame,
                "slot": slot,
                "phase": phase,
                "station": station,
                "event": event,
                "detail": detail,
            }
        )

    # Every reservation-table change is reported through these two, so they
    # also drop the cached CF schedule and note the tables with datagram
    # entries for the frame boundary.

    def _emit_insert(self, frame, slot, phase, sid, e):
        self._cf_schedule = None
        if e.kind is ReservationKind.DATAGRAM:
            self._datagram_tables.add(sid)
        self._emit(
            frame, slot, phase, sid, "rt_insert",
            slot_index=e.cf_slot, tx=e.tx, rx=e.rx, kind=e.kind._value_,
            established_frame=e.established_frame,
        )

    def _emit_delete(self, frame, slot, phase, sid, e, reason):
        self._cf_schedule = None
        self._emit(
            frame, slot, phase, sid, "rt_delete",
            slot_index=e.cf_slot, tx=e.tx, rx=e.rx, kind=e.kind._value_, reason=reason,
        )

    def _drop(self, frame, slot, phase, sid, pkt, reason: str):
        self._emit(
            frame, slot, phase, sid, "packet_drop",
            flow=pkt.flow_id, seq=pkt.seq, reason=reason,
        )

    # -- run ------------------------------------------------------------------

    def run(self) -> tuple[SimReport, list[dict]]:
        if self._ran:
            raise RuntimeError("a Simulation object runs once")
        self._ran = True

        for fid in self.flow_ids:
            fr = self.flows[fid]
            if fr.path is None:
                self._emit(0, 0, "RP", fr.attach, "route", flow=fid, unrouted=True)
            else:
                self._emit(
                    0, 0, "RP", fr.attach, "route",
                    flow=fid, path=list(fr.path), mean_deviation=fr.mean_deviation,
                )

        for frame in range(self.horizon):
            self._generate(frame)
            for r in range(self.layout.rp_slots):
                self._rp_slot(frame, r)
            for s in range(self.layout.cf_slots):
                self._cf_slot(frame, s)
            self._end_frame(frame)
        self._fill_energy()

        return self._report(), self.trace

    # -- packet generation -----------------------------------------------------

    def _flow_stop(self, flow: Flow) -> int:
        return self.horizon if flow.stop_frame is None else min(flow.stop_frame, self.horizon)

    def _generate(self, frame: int) -> None:
        for fid in self.flow_ids:
            fr = self.flows[fid]
            flow = fr.flow
            if frame < flow.start_frame or frame >= self._flow_stop(flow):
                continue
            start = self.layout.frame_start_ms(frame)
            end = self.layout.frame_start_ms(frame + 1)
            for pkt in fr.source.packets_for_window(start, end):
                fr.records.append(pkt)
                self._emit(
                    frame, 0, "RP", fr.attach, "packet_gen",
                    flow=fid, seq=pkt.seq, created_ms=round(pkt.created_ms, 6),
                )
                if fr.path is None:
                    pkt.dropped = DropReason.OVERFLOW
                    self._drop(frame, 0, "RP", fr.attach, pkt, "unrouted")
                    continue
                if not fr.next_hop:
                    # source attached directly at the destination
                    pkt.delivered_ms = pkt.created_ms
                    self._emit(
                        frame, 0, "RP", fr.attach, "data_delivered",
                        flow=fid, seq=pkt.seq, delay_ms=0.0,
                    )
                    continue
                self._forward(frame, 0, "RP", fr.attach, fid, pkt)

    def _forward(self, frame, slot, phase, sid, fid, pkt) -> None:
        """Queue a packet at a hop for its next transmission."""
        fr = self.flows[fid]
        nxt = fr.next_hop[sid]
        st = self.sts[sid]
        if self.net.station(nxt).kind is StationKind.BASE_STATION:
            q = st.uplink
        else:
            q = st.queues[fid]
        if not q.push(pkt):
            self._drop(frame, slot, phase, sid, pkt, "overflow")
        elif q.next_deadline < self._next_due:
            self._next_due = q.next_deadline

    # -- reservation period ------------------------------------------------------

    def _pick_action(self, sid: int, frame: int):
        """What, if anything, this station wants to signal in its slot.

        Returns ("establish", flow, peer, kind, count) or
        ("cancel", flow, peer, slots) or None. When several flows are
        ready the lowest (priority class, flow id) wins.
        """
        st = self.sts[sid]
        cands = []
        for fid in st.flow_order:
            fr = self.flows[fid]
            flow = fr.flow
            q = st.queues[fid]
            peer = fr.next_hop[sid]
            if flow.real_time:
                if fid in st.flow_slots:
                    flow_over = frame >= self._flow_stop(flow)
                    if flow_over and len(q) == 0:
                        bo = st.cancel_backoff.setdefault(fid, BackoffState())
                        if bo.eligible(frame):
                            cands.append(
                                (9, fid, ("cancel", fid, peer, st.flow_slots[fid]))
                            )
                elif len(q) > 0:
                    bo = st.est_backoff.setdefault(fid, BackoffState())
                    if bo.eligible(frame):
                        cands.append(
                            (
                                establishment_priority(flow),
                                fid,
                                ("establish", fid, peer, ReservationKind.REAL_TIME, 1),
                            )
                        )
            else:
                if fid in st.flow_slots:
                    continue  # this frame's burst is already granted
                flow_over = frame >= self._flow_stop(flow)
                if len(q) >= flow.burst_length or (flow_over and len(q) > 0):
                    bo = st.est_backoff.setdefault(fid, BackoffState())
                    if bo.eligible(frame):
                        count = min(len(q), flow.burst_length)
                        cands.append(
                            (
                                establishment_priority(flow),
                                fid,
                                ("establish", fid, peer, ReservationKind.DATAGRAM, count),
                            )
                        )
        if not cands:
            return None
        cands.sort(key=lambda c: (c[0], c[1]))
        return cands[0][2]

    def _register_failure(self, frame, r, sid, act, reason: str) -> None:
        st = self.sts[sid]
        fid = act[1]
        table = st.est_backoff if act[0] == "establish" else st.cancel_backoff
        bo = table.setdefault(fid, BackoffState())
        nxt = bo.register_failure(frame, st.rng, self.mac_cfg.backoff)
        self._emit(
            frame, r, "RP", sid, "backoff",
            flow=fid, reason=reason, attempt=bo.attempt, retry_frame=nxt,
        )

    def _send_control(self, channel, tx_accum, frame, r, sid, msg: ControlMessage):
        detail = {"kind": msg.kind._value_, "to": msg.dst}
        if msg.slots:
            detail["slots"] = list(msg.slots)
        tx_accum.add(sid)
        if (detail["kind"], frame, sid) in self.faults:
            self._emit(frame, r, "RP", sid, "control_fault_drop", **detail)
            return
        self._emit(frame, r, "RP", sid, "control_tx", **detail)
        channel.append(
            Transmission(
                sender=sid, payload=msg,
                comm=self.rf_comm[sid], interf=self.rf_intf[sid],
            )
        )

    def _resolve_control(self, frame, r, channel):
        delivered, collisions = resolve_slot(channel, self.ch_set)
        for rho in sorted(collisions):
            self.control_collisions += 1
            self._emit(
                frame, r, "RP", rho, "control_collision", senders=collisions[rho]
            )
        return delivered

    def _rp_slot(self, frame: int, r: int) -> None:
        # 1) owners of this schedule slot decide whether to contend
        contenders = []
        for sid in self.rp_owners[r]:
            act = self._pick_action(sid, frame)
            if act is not None:
                contenders.append((sid, act))
        if not contenders:
            return  # a silent slot changes nothing; its idle listening is booked in bulk

        # 2) carrier sensing separates initiators inside one grid cell:
        # each draws a start offset, the unique earliest talks, later ones
        # hear a busy channel and back off. Equal draws start together.
        by_cell: dict = {}
        for sid, act in contenders:
            cell = self.net.station(sid).grid
            by_cell.setdefault((cell.gx, cell.gy), []).append((sid, act))
        proceed = []
        for key in sorted(by_cell):
            group = by_cell[key]
            if len(group) == 1:
                proceed.append(group[0])
                continue
            draws = [
                (self.sts[sid].rng.randrange(self.mac_cfg.contention_window), sid, act)
                for sid, act in group
            ]
            lo = min(d for d, _, _ in draws)
            for d, sid, act in draws:
                if d == lo:
                    proceed.append((sid, act))
                else:
                    self._register_failure(frame, r, sid, act, "busy")
        proceed.sort()

        slot_tx: set[int] = set()
        slot_rx: set[int] = set()
        inflight: dict[int, tuple] = {}

        # sub-round 1: requests and cancels
        channel: list[Transmission] = []
        for sid, act in proceed:
            st = self.sts[sid]
            if act[0] == "establish":
                _, fid, peer, kind, count = act
                try:
                    msg = st.mac.build_request(peer, kind, buffered_count=count)
                except NoFreeSlotsError:
                    self._emit(frame, r, "RP", sid, "no_free_slots", flow=fid)
                    self._register_failure(frame, r, sid, act, "no_free_slots")
                    continue
            else:
                _, fid, peer, slots = act
                msg = st.mac.build_cancel(peer, slots)
            inflight[sid] = act
            self._send_control(channel, slot_tx, frame, r, sid, msg)
        delivered = self._resolve_control(frame, r, channel)
        slot_rx.update(delivered)

        # sub-round 2: accepts and cancel-acks; bystanders act on cancels
        channel = []
        for rho in sorted(delivered):
            msg = delivered[rho].payload
            st = self.sts[rho]
            if msg.kind is MsgKind.CONNECT_REQUEST:
                if msg.dst != rho:
                    continue  # overheard request carries no table news yet
                ans = st.mac.answer_request(msg, frame)
                if ans is None:
                    continue  # no common slot; requester times out
                ca, entries = ans
                for e in entries:
                    self._emit_insert(frame, r, "RP", rho, e)
                self._send_control(channel, slot_tx, frame, r, rho, ca)
            elif msg.kind is MsgKind.CANCEL:
                if msg.dst == rho:
                    ack, removed = st.mac.answer_cancel(msg)
                    for e in removed:
                        self._emit_delete(frame, r, "RP", rho, e, "cancel")
                    self._send_control(channel, slot_tx, frame, r, rho, ack)
                else:
                    removed = st.mac.apply_cancel(msg.slots, tx=msg.src, rx=msg.dst)
                    for e in removed:
                        self._emit_delete(frame, r, "RP", rho, e, "cancel")
        delivered = self._resolve_control(frame, r, channel)
        slot_rx.update(delivered)

        # sub-round 3: commit + reservation broadcast
        channel = []
        handshakes = []
        for rho in sorted(delivered):
            msg = delivered[rho].payload
            st = self.sts[rho]
            if msg.kind is MsgKind.CONNECT_ACCEPT:
                if msg.dst != rho:
                    continue
                act = inflight.pop(rho, None)
                if act is None or act[0] != "establish":
                    continue
                fid = act[1]
                srb, entries = st.mac.commit_grant(msg, frame)
                for e in entries:
                    self._emit_insert(frame, r, "RP", rho, e)
                st.flow_slots[fid] = msg.slots
                for s in msg.slots:
                    st.bindings[s] = fid
                st.est_backoff.pop(fid, None)
                fr = self.flows[fid]
                fr.gap[rho] = 0
                handshakes.append((rho, msg.src, msg.slots, msg.entry_kind, fid))
                self._send_control(channel, slot_tx, frame, r, rho, srb)
            elif msg.kind is MsgKind.CANCEL_ACK:
                if msg.dst == rho:
                    act = inflight.pop(rho, None)
                    if act is None or act[0] != "cancel":
                        continue
                    fid = act[1]
                    removed = st.mac.apply_cancel(msg.slots, tx=rho, rx=msg.src)
                    for e in removed:
                        self._emit_delete(frame, r, "RP", rho, e, "cancel")
                    for s in msg.slots:
                        if st.bindings.get(s) == fid:
                            del st.bindings[s]
                    st.flow_slots.pop(fid, None)
                    st.cancel_backoff.pop(fid, None)
                    self._emit(
                        frame, r, "RP", rho, "cancel_complete",
                        peer=msg.src, slots=list(msg.slots), flow=fid,
                    )
                else:
                    removed = st.mac.apply_cancel(msg.slots, tx=msg.dst, rx=msg.src)
                    for e in removed:
                        self._emit_delete(frame, r, "RP", rho, e, "cancel")
        delivered = self._resolve_control(frame, r, channel)
        slot_rx.update(delivered)

        for rho in sorted(delivered):
            msg = delivered[rho].payload
            if msg.kind is not MsgKind.RESERVATION_BROADCAST:
                continue
            inserted, displaced = self.sts[rho].mac.apply_broadcast(msg, frame)
            for e in displaced:
                self._emit_delete(frame, r, "RP", rho, e, "overwrite")
            for e in inserted:
                self._emit_insert(frame, r, "RP", rho, e)

        # a handshake is complete once the broadcast went out, heard or not
        for x, peer, slots, kind, fid in handshakes:
            self._emit(
                frame, r, "RP", x, "handshake_complete",
                peer=peer, slots=list(slots), kind=kind._value_, flow=fid,
            )

        # anyone still waiting on a reply lost it somewhere
        for sid in sorted(inflight):
            act = inflight[sid]
            reason = "no_accept" if act[0] == "establish" else "no_cancel_ack"
            self._register_failure(frame, r, sid, act, reason)

        # every cluster head listens through the whole reservation period;
        # the slots it only idled in are booked at the end of the run
        for sid in slot_tx | slot_rx:
            self.meter.add(sid, "tx" if sid in slot_tx else "rx")
            self._rp_busy[sid] += 1

    # -- contention-free period ----------------------------------------------

    def _schedule(self) -> list[list[tuple[int, ReservationEntry]]]:
        """CF slot -> [(station, its entry)] for every station that sends
        or receives in that slot by its own table, in station order.
        Tables change only in the RP and at the frame boundary, so this is
        rebuilt at most once per frame."""
        if self._cf_schedule is None:
            sched = [[] for _ in range(self.layout.cf_slots)]
            for sid in self.ch_ids:
                for e in self.sts[sid].mac.rt.entries():
                    if sid in (e.tx, e.rx):
                        sched[e.cf_slot].append((sid, e))
            self._cf_schedule = sched
        return self._cf_schedule

    def _cf_slot(self, frame: int, s: int) -> None:
        slot_start = self.layout.cf_slot_start_ms(frame, s)
        slot_end = self.layout.cf_slot_end_ms(frame, s)

        # deadlines are checked against the slot's end: a packet that
        # cannot complete its transmission in time is dropped, never sent.
        # The queues are scanned only once some deadline can have passed.
        if slot_end > self._next_due:
            due = math.inf
            for sid, q in self.queue_order:
                if slot_end > q.next_deadline:
                    for pkt in q.expire(slot_end):
                        self._drop(frame, s, "CFP", sid, pkt, "deadline")
                due = min(due, q.next_deadline)
            self._next_due = due

        channel: list[Transmission] = []
        slot_tx: set[int] = set()
        listeners: set[int] = set()
        for sid, e in self._schedule()[s]:
            if e.rx == sid:
                listeners.add(sid)
                continue
            st = self.sts[sid]
            fid = st.bindings.get(s)
            pkt = None
            if fid is not None and fid in st.queues:
                pkt = st.queues[fid].head_ready(slot_start)
            if pkt is None:
                self.wasted_slots += 1
                self._emit(
                    frame, s, "CFP", sid, "wasted_slot",
                    flow=-1 if fid is None else fid,
                )
                continue
            st.queues[fid].pop()
            slot_tx.add(sid)
            channel.append(
                Transmission(
                    sender=sid, payload=(fid, pkt),
                    comm=self.fso_comm[sid], interf=self.fso_intf[sid], to=e.rx,
                )
            )
            self._emit(
                frame, s, "CFP", sid, "data_tx", flow=fid, seq=pkt.seq, to=e.rx
            )

        delivered, collisions = resolve_slot(channel, listeners)
        for rho in sorted(collisions):
            self.data_collisions += 1
            self._emit(frame, s, "CFP", rho, "data_collision", senders=collisions[rho])
        # a lone packet addressed to another station is noise at a listener
        delivered = {rho: t for rho, t in delivered.items() if t.to == rho}

        got: set[tuple[int, int]] = set()
        for rho in sorted(delivered):
            fid, pkt = delivered[rho].payload
            got.add((fid, pkt.seq))
            self._emit(
                frame, s, "CFP", rho, "data_rx", flow=fid, seq=pkt.seq, sender=delivered[rho].sender
            )
            fr = self.flows[fid]
            if rho == fr.flow.dst:
                pkt.delivered_ms = slot_end
                self._emit(
                    frame, s, "CFP", rho, "data_delivered",
                    flow=fid, seq=pkt.seq, delay_ms=round(pkt.delay_ms, 6),
                )
            else:
                self._forward(frame, s, "CFP", rho, fid, pkt)
        for t in channel:
            fid, pkt = t.payload
            if (fid, pkt.seq) not in got:
                pkt.dropped = DropReason.COLLISION
                self._drop(frame, s, "CFP", t.sender, pkt, "collision")

        # cluster heads with nothing scheduled serve their polled optical
        # uplink: one buffered packet straight up per otherwise idle slot
        uplink_tx: set[int] = set()
        for sid in self.uplink_ids:
            if sid in slot_tx or sid in listeners:
                continue
            st = self.sts[sid]
            pkt = st.uplink.head_ready(slot_start)
            if pkt is None:
                continue
            st.uplink.pop()
            pkt.delivered_ms = slot_end
            uplink_tx.add(sid)
            self._emit(frame, s, "CFP", sid, "uplink_tx", flow=pkt.flow_id, seq=pkt.seq)
            self._emit(
                frame, s, "CFP", self.sink, "data_delivered",
                flow=pkt.flow_id, seq=pkt.seq, delay_ms=round(pkt.delay_ms, 6),
            )

        # stations with no part in the slot sleep; that is booked at the
        # end of the run
        for sid in slot_tx | uplink_tx:
            self.meter.add(sid, "tx")
        for sid in listeners:
            self.meter.add(sid, "rx" if sid in delivered else "idle")
        if uplink_tx:
            self.meter.add(self.sink, "rx")

    # -- frame boundary ---------------------------------------------------------

    def _end_frame(self, frame: int) -> None:
        last = self.layout.cf_slots - 1
        self._emit(frame, last, "CFP", -1, "frame_end")
        for sid in sorted(self._datagram_tables):
            st = self.sts[sid]
            for e in st.mac.end_of_frame_cleanup(frame):
                self._emit_delete(frame, last, "CFP", sid, e, "expire")
                if e.tx == sid and st.bindings.get(e.cf_slot) is not None:
                    fid = st.bindings.pop(e.cf_slot)
                    left = tuple(
                        x for x in st.flow_slots.get(fid, ()) if x != e.cf_slot
                    )
                    if left:
                        st.flow_slots[fid] = left
                    else:
                        st.flow_slots.pop(fid, None)
        self._datagram_tables.clear()

        # session continuity: a real-time hop that once held slots but now
        # has traffic and no reservation is starving
        for fid in self.flow_ids:
            fr = self.flows[fid]
            if not fr.flow.real_time:
                continue
            for sid in fr.reserving_hops:
                if sid not in fr.gap:
                    continue
                st = self.sts[sid]
                if fid not in st.flow_slots and len(st.queues[fid]) > 0:
                    fr.gap[sid] += 1
                    fr.max_gap[sid] = max(fr.max_gap.get(sid, 0), fr.gap[sid])
                else:
                    fr.gap[sid] = 0

    def _fill_energy(self) -> None:
        """Book the slots no phase counted. A cluster head idles through
        the RP slots it neither sent nor received in and sleeps through
        the CF slots it had no part in; the sink idles through the RP and
        sleeps through the CF slots it received nothing in; sensor nodes
        sleep throughout."""
        rp = self.horizon * self.layout.rp_slots
        for sid in self.ch_ids:
            self.meter.add(sid, "idle", rp - self._rp_busy[sid])
        self.meter.add(self.sink, "idle", rp)
        total = self.horizon * self.layout.total_slots
        for sid in self.all_ids:
            self.meter.fill(sid, "sleep", total)

    # -- results ------------------------------------------------------------------

    def _report(self) -> SimReport:
        flows = {}
        for fid in self.flow_ids:
            fr = self.flows[fid]
            fs = FlowStats(flow_id=fid, service=fr.flow.service.name)
            fs.generated = len(fr.records)
            delays = []
            for p in fr.records:
                if p.delivered_ms is not None:
                    fs.delivered += 1
                    delays.append(p.delay_ms)
                elif p.dropped is DropReason.COLLISION:
                    fs.dropped_collision += 1
                elif p.dropped is DropReason.DEADLINE_MISS:
                    fs.dropped_deadline += 1
                elif p.dropped is DropReason.OVERFLOW:
                    fs.dropped_overflow += 1
                else:
                    fs.queued_at_end += 1
            if delays:
                fs.mean_delay_ms = sum(delays) / len(delays)
                fs.max_delay_ms = max(delays)
            fs.session_gap_frames = max(fr.max_gap.values(), default=0)
            flows[fid] = fs

        stations = {}
        for sid in self.all_ids:
            c = self.meter.counts[sid]
            stations[sid] = StationStats(
                station_id=sid,
                tx_slots=c["tx"],
                rx_slots=c["rx"],
                idle_slots=c["idle"],
                sleep_slots=c["sleep"],
                energy=self.meter.consumed(sid),
                duty_cycle=self.meter.duty_cycle(sid),
            )

        report = SimReport(
            frames=self.horizon,
            layout=self.layout,
            flows=flows,
            stations=stations,
            control_collisions=self.control_collisions,
            data_collisions=self.data_collisions,
            wasted_slots=self.wasted_slots,
            trace_digest=trace_digest(self.trace),
            routes={
                fid: self.flows[fid].path for fid in self.flow_ids
            },
        )
        return report


def run_simulation(scenario, seed: int = 0) -> tuple[SimReport, list[dict]]:
    """Build and run one simulation; returns (report, trace)."""
    return Simulation(scenario, seed).run()
