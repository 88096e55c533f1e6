"""Slotted discrete-event simulation core.

The engine drives a network of stations through a fixed number of MAC
frames. Each frame is a reservation period (one contention slot per
grid-derived schedule position) followed by a contention-free period of
reserved data slots. Everything is deterministic for a given scenario
and seed: per-station and per-flow RNG streams are derived from the
seed by name, and every iteration over stations, flows, or table
entries happens in sorted order. A station's stream is seeded on its
first draw, so set-up seeds none; only stations that contend or back off
draw, and the stream is the one its name gives whenever it is seeded.

A run's work follows the protocol, not slots x stations. An RP slot
asks only the cluster heads that own it whether to contend, and ends
there when none does. Of those it skips each one that can have nothing
to signal: all its hops hold slots, and none of its real-time flows has
reached its stop frame. A station counts its hops without slots, and
the run keeps the set of stations with such a hop, in the one step that
changes a hop's slots, _StationState.set_slots. While that set is empty
and no real-time flow has reached its stop frame, every owner would be
skipped, so run() skips the frame's whole RP. A CF slot plays its plan:
the senders with their addressees and hops, and the listeners, built
from the reservation tables and the slots each hop holds only after a
table changed. The run keeps every channel outcome, RP and CF, in one
memo by what decides it: the senders that sent with their addressees
(None for a control message), and the listeners, which for a control
channel are every cluster head. So a channel is resolved, and its
Transmissions built, once per such set in a run, however often the
tables change.
A CF slot's start is the frame's first CF slot start, taken once per
frame, plus a per-slot offset. A slot scans queues for missed deadlines
only once the earliest queued deadline can have passed, and polls the
optical uplink only at cluster heads that are some flow's last hop and
only while their uplink queue holds a packet.
Energy is counted as it is spent (sending, receiving, listening for a
reserved packet); idle listening in the RP and sleep are booked in bulk
at the end of the run. The frame boundary visits only tables that hold
a datagram entry, and wipes those in one pass in slot order.

An RP slot in which some owner contends is a message loop. The
contenders' requests and cancels make the first channel; every message
a channel delivers goes to _hear, in receiver order, and the replies
_hear returns make the next channel, until no reply goes out: requests
and cancels draw accepts and cancel-acks, and an accept draws the
reservation broadcast. _hear states each message's rule once: whoever
hears a cancel or its ack drops the reservation it names, through
_cancel, and the addressee answers a request or a cancel, or completes
the handshake or cancellation it began. Every hearer of a handshake
records its grant, built once, through _claim, StationMac.claim's one rule
with its events: the responder as it answers the request, the initiator
as it hears the accept, and a bystander as it hears the broadcast.

The simulation emits a structured event trace through the emitters of
its Trace (see trace.py, which alone defines the trace's lines and
digest). Post-run audits (see audit.py) replay that trace against the
topology to check the protocol's correctness properties; the engine
itself never consults the auditor. run() folds each frame's lines into
the trace's kept text at the frame's end, and pauses the cyclic
collector over its frames: a run makes no reference cycles, so each
pass would only re-walk the growing trace's records and free nothing.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from functools import cached_property

from .geometry import float_sum
from .mac import (
    BackoffState,
    ControlMessage,
    FrameLayout,
    MacConfig,
    MsgKind,
    NoFreeSlotsError,
    ReservationKind,
    StationMac,
    my_rp_slot,
)
from .routing import RouteConfig, discover
from .topology import StationKind, attach_point
# serialize_trace is not called here: perfbench/operation.py calls
# engine.serialize_trace
from .trace import Trace, serialize_trace, trace_digest  # noqa: F401
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
    communication range covers it too, and the transmission is for it: a
    data packet (`to` set) only for its addressee, a control message
    (`to` None) for every station. Two or more footprints over one
    listener corrupt each other there (a collision at that listener);
    any other lone footprint is just noise. Transmitting stations hear
    nothing themselves.

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
            if rho in t.comm and (t.to is None or t.to == rho):
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
        return float_sum(c[s] * getattr(self.costs, s) for s in self.STATES)

    def duty_cycle(self, sid: int) -> float:
        c = self.counts[sid]
        awake = c["tx"] + c["rx"] + c["idle"]
        total = awake + c["sleep"]
        return awake / total if total else 0.0


class _Hop:
    """One reserving hop of a flow, kept by the station that sends the
    flow to cluster head `peer` over reserved CF slots: the hop's queue,
    slots, pending backoff and session gap, and the kind it requests."""

    def __init__(self, flow: Flow, peer: int):
        self.flow = flow
        self.peer = peer
        self.kind = ReservationKind.REAL_TIME if flow.real_time else ReservationKind.DATAGRAM
        self.queue = PacketQueue()
        # our tx slots, or None: the only record of which flow a slot carries
        self.slots: tuple[int, ...] | None = None
        # the backoff of the pending establish (no slots held) or cancel
        self.backoff: BackoffState | None = None
        # session continuity: frames starved, None until first granted slots
        self.gap: int | None = None


class _FlowRuntime:
    """Everything the engine tracks for one flow."""

    def __init__(self, flow: Flow, rng: random.Random):
        self.flow = flow
        self.source = PacketSource(flow, rng)
        self.records: list[PacketRecord] = []
        self.attach = flow.src  # cluster head where packets enter the mesh
        self.path: tuple[int, ...] | None = None  # None: no route found
        self.mean_deviation = 0.0
        self.hops: list[_Hop] = []  # the reserving hops, in path order
        # station -> the queue a packet joins there: its hop's, or the uplink
        self.queue_at: dict[int, PacketQueue] = {}
        self.max_gap = 0  # worst streak at any hop


class _StationState:
    """Mutable per-station simulation state."""

    def __init__(self, sid: int, cf_slots: int, seed: int, waiting: set[int]):
        self.sid = sid
        self.seed = seed
        self.mac = StationMac(sid, cf_slots)
        self.hops: dict[int, _Hop] = {}  # flow id -> the hop we send, ascending
        # the polled optical uplink, where some flow leaves the mesh here
        self.uplink: PacketQueue | None = None
        # how many of our hops hold no slots, kept by set_slots, and the
        # first frame at which one of our real-time flows is over: before
        # it, a station whose hops all hold slots has nothing to signal
        self.slotless = 0
        self.rt_stop = math.inf
        # the run's stations with some hop that holds no slots, shared by
        # every station and kept by set_slots
        self.waiting = waiting

    @cached_property
    def rng(self) -> random.Random:
        """The station's stream, seeded by name on its first draw: only a
        station that contends or backs off ever draws."""
        return random.Random(f"{self.seed}/station/{self.sid}")

    def set_slots(self, hop: _Hop, slots: tuple[int, ...] | None) -> None:
        """Give one of our hops its slots, or None: every change of a
        hop's slots goes through here."""
        self.slotless += (slots is None) - (hop.slots is None)
        hop.slots = slots
        if self.slotless:
            self.waiting.add(self.sid)
        else:
            self.waiting.discard(self.sid)


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
    dropped_unrouted: int = 0
    queued_at_end: int = 0
    mean_delay_ms: float = 0.0
    max_delay_ms: float = 0.0
    session_gap_frames: int = 0  # worst starvation streak at any hop

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.generated if self.generated else 1.0

    @property
    def loss_rate(self) -> float:
        lost = (
            self.dropped_collision + self.dropped_deadline + self.dropped_overflow
            + self.dropped_unrouted
        )
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

        self._waiting: set[int] = set()  # see _StationState.waiting
        self.sts: dict[int, _StationState] = {
            sid: _StationState(sid, self.layout.cf_slots, seed, self._waiting)
            for sid in self.ch_ids
        }
        self.meter = EnergyMeter(self.all_ids, self.energy_costs)

        self.flows: dict[int, _FlowRuntime] = {}
        for flow in sorted(scenario.flows, key=lambda f: f.id):
            fr = _FlowRuntime(flow, random.Random(f"{seed}/flow/{flow.id}"))
            self._plan_route(fr)
            self.flows[flow.id] = fr
        self.flow_ids = sorted(self.flows)

        # every queue, in the order its deadline drops are reported, and a
        # lower bound on the earliest deadline in any of them
        self.queue_order: list[tuple[int, PacketQueue]] = []
        for sid in self.ch_ids:
            st = self.sts[sid]
            self.queue_order += [(sid, hop.queue) for hop in st.hops.values()]
            st.slotless = len(st.hops)  # no hop holds slots yet
            if st.hops:
                self._waiting.add(sid)
            st.rt_stop = min(
                [self._flow_stop(h.flow) for h in st.hops.values() if h.flow.real_time],
                default=math.inf,
            )
            if st.uplink is not None:
                self.queue_order.append((sid, st.uplink))
        self._next_due = math.inf
        # before this frame, a frame in which no station waits for slots
        # has nothing to signal in its RP
        self._rt_stop = min([st.rt_stop for st in self.sts.values()], default=math.inf)
        # each polled optical uplink, by its cluster head, in station order
        self.uplinks = [(sid, st.uplink) for sid, st in self.sts.items() if st.uplink is not None]

        # built by _schedule(), dropped by every table change
        self._cf_plan: list[tuple[list, frozenset]] | None = None
        # RP and CF channel outcomes by ((station, addressee) of each
        # sender that sent, listeners): what decides one, so they outlive
        # any plan; an RP sender's addressee is None, a CF sender's never
        self._outcomes: dict[tuple, tuple[list, list]] = {}
        # each CF slot's start, as an offset from the first one's: run()
        # takes that once per frame, and the sum is the layout's own
        self._cf_len = self.layout.cf_slot_len_ms
        self._cf_offset = [s * self._cf_len for s in range(self.layout.cf_slots)]
        self._cfp_start = 0.0
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
            return
        best = discover(self.net, origin, flow.dst, config=self.routing_cfg)
        if best is None:
            return
        fr.path = best.path.hops
        fr.mean_deviation = best.mean_deviation
        # a hop to a cluster head reserves slots; only the last can leave
        # the mesh, over its station's uplink
        for a, b in zip(fr.path, fr.path[1:]):
            st = self.sts[a]
            if self.net.station(b).kind is StationKind.CLUSTER_HEAD:
                hop = st.hops[flow.id] = _Hop(flow, b)
                fr.hops.append(hop)
                fr.queue_at[a] = hop.queue
            else:
                if st.uplink is None:
                    st.uplink = PacketQueue(capacity=10**9)
                fr.queue_at[a] = st.uplink

    def _drop(self, frame, slot, phase, sid, pkt):
        # the reason is the one the drop site set on the packet
        self.trace.packet_drop(
            frame, slot, phase, sid,
            flow=pkt.flow_id, reason=pkt.dropped._value_, seq=pkt.seq,
        )

    # -- run ------------------------------------------------------------------

    def run(self) -> tuple[SimReport, list[dict]]:
        if self._ran:
            raise RuntimeError("a Simulation object runs once")
        self._ran = True

        trace = self.trace
        for fid in self.flow_ids:
            fr = self.flows[fid]
            if fr.path is None:
                trace.emit(0, 0, "RP", fr.attach, "route", flow=fid, unrouted=True)
            else:
                trace.emit(
                    0, 0, "RP", fr.attach, "route",
                    flow=fid, path=list(fr.path), mean_deviation=fr.mean_deviation,
                )

        # each frame's lines are folded into the trace's kept bytes at its
        # end, so the digest _report takes only hashes them. The cyclic
        # collector is paused over the frames (see the module docstring).
        rp_slots = range(self.layout.rp_slots)
        collecting = gc.isenabled()
        gc.disable()
        try:
            for frame in range(self.horizon):
                self._generate(frame)
                # with no station waiting for slots and no real-time flow
                # over, _rp_slot would skip every owner, and only the RP
                # itself could change that: the frame's RP is skipped
                if self._waiting or frame >= self._rt_stop:
                    for r in rp_slots:
                        self._rp_slot(frame, r)
                self._cfp_start = self.layout.cf_slot_start_ms(frame, 0)
                for s in range(self.layout.cf_slots):
                    self._cf_slot(frame, s)
                self._end_frame(frame)
                trace.fold()
        finally:
            if collecting:
                gc.enable()
        self._fill_energy()

        return self._report(), trace

    # -- packet generation -----------------------------------------------------

    def _flow_stop(self, flow: Flow) -> int:
        return self.horizon if flow.stop_frame is None else min(flow.stop_frame, self.horizon)

    def _generate(self, frame: int) -> None:
        start = self.layout.frame_start_ms(frame)
        end = self.layout.frame_start_ms(frame + 1)
        for fid in self.flow_ids:
            fr = self.flows[fid]
            flow = fr.flow
            if frame < flow.start_frame or frame >= self._flow_stop(flow):
                continue
            for pkt in fr.source.packets_for_window(start, end):
                fr.records.append(pkt)
                self.trace.packet_gen(
                    frame, 0, "RP", fr.attach,
                    created_ms=round(pkt.created_ms, 6), flow=fid, seq=pkt.seq,
                )
                if fr.path is None:
                    pkt.dropped = DropReason.UNROUTED
                    self._drop(frame, 0, "RP", fr.attach, pkt)
                elif fr.attach == flow.dst:  # the source attached at the destination
                    self._deliver(frame, 0, "RP", fr.attach, pkt, pkt.created_ms)
                else:
                    self._forward(frame, 0, "RP", fr.attach, fr, pkt)

    def _forward(self, frame, slot, phase, sid, fr, pkt) -> None:
        """Queue a packet at a hop for its next transmission."""
        q = fr.queue_at[sid]
        if not q.push(pkt):
            self._drop(frame, slot, phase, sid, pkt)
        elif q.next_deadline < self._next_due:
            self._next_due = q.next_deadline

    def _deliver(self, frame, slot, phase, station, pkt, at_ms) -> None:
        """The packet reaches its flow's destination, `station`, at at_ms."""
        pkt.delivered_ms = at_ms
        self.trace.data_delivered(
            frame, slot, phase, station,
            delay_ms=round(pkt.delay_ms, 6), flow=pkt.flow_id, seq=pkt.seq,
        )

    # -- reservation period ------------------------------------------------------

    def _pick_action(self, sid: int, frame: int) -> tuple[_Hop, int] | None:
        """What, if anything, this station wants to signal in its slot:
        (hop, count) or None. A hop holding no slots establishes, asking
        for count slots, once its queue holds a burst: one packet for a
        real-time flow, burst_length for a datagram flow, or whatever is
        left once the flow has stopped. A real-time hop that holds slots
        cancels them once its flow has stopped and its queue is empty. A
        hop whose backoff has not run out waits. The lowest (priority
        class, flow id) wins, with every cancel ranked after every
        establish.
        """
        best_rank, best = math.inf, None
        for hop in self.sts[sid].hops.values():  # ascending flow id
            flow, n = hop.flow, len(hop.queue)
            over = frame >= self._flow_stop(flow)
            if hop.slots is not None:
                if not (flow.real_time and over and n == 0):
                    continue
                rank, count = 9, 0
            else:
                burst = 1 if flow.real_time else flow.burst_length
                if n < burst and not (over and n > 0):
                    continue
                rank, count = establishment_priority(flow), min(n, burst)
            bo = hop.backoff
            if rank < best_rank and (bo is None or bo.eligible(frame)):
                best_rank, best = rank, (hop, count)
        return best

    def _register_failure(self, frame, r, sid, hop: _Hop, reason: str) -> None:
        if hop.backoff is None:
            hop.backoff = BackoffState()
        nxt = hop.backoff.register_failure(frame, self.sts[sid].rng, self.mac_cfg.backoff)
        self.trace.backoff(
            frame, r, "RP", sid,
            attempt=hop.backoff.attempt, flow=hop.flow.id, reason=reason, retry_frame=nxt,
        )

    def _send_control(self, channel, tx_accum, frame, r, sid, msg: ControlMessage):
        kind = msg.kind._value_
        tx_accum.add(sid)
        if (kind, frame, sid) in self.faults:
            self.trace.control_fault_drop(
                frame, r, "RP", sid, kind=kind, slots=list(msg.slots), to=msg.dst
            )
            return
        self.trace.control_tx(frame, r, "RP", sid, kind=kind, slots=list(msg.slots), to=msg.dst)
        channel.append((sid, msg))

    def _outcome(self, sent, listeners, comm, intf) -> tuple[list, list]:
        """What `listeners` hear when the stations of `sent`, ((station,
        addressee or None), ...), key up in order with the ranges comm and
        intf: ([(listener, index into sent)], [(listener, colliding
        senders)]), both in listener order. It is kept by (sent,
        listeners), and Transmissions are built only on a miss."""
        key = (sent, listeners)
        outcome = self._outcomes.get(key)
        if outcome is None:
            delivered, collisions = resolve_slot(
                [
                    Transmission(sender=sid, payload=i, comm=comm[sid], interf=intf[sid], to=to)
                    for i, (sid, to) in enumerate(sent)
                ],
                listeners,
            )
            outcome = self._outcomes[key] = (
                [(rho, t.payload) for rho, t in delivered.items()], list(collisions.items()),
            )
        return outcome

    def _resolve_control(self, frame, r, channel) -> list[tuple[int, ControlMessage]]:
        """The messages that the control channel [(sender, message)]
        delivers, as [(receiver, message)] in receiver order, with its
        collisions emitted. Every cluster head listens to every message."""
        sent = tuple([(sid, None) for sid, _ in channel])
        delivered, collisions = self._outcome(sent, self.ch_set, self.rf_comm, self.rf_intf)
        for rho, senders in collisions:
            self.control_collisions += 1
            self.trace.control_collision(frame, r, "RP", rho, senders=list(senders))
        return [(rho, channel[i][1]) for rho, i in delivered]

    def _rp_slot(self, frame: int, r: int) -> None:
        # 1) owners of this schedule slot decide whether to contend; one
        # whose hops all hold slots while its real-time flows all run has
        # nothing to signal, so it is not asked
        contenders = []
        for sid in self.rp_owners[r]:
            st = self.sts[sid]
            if st.slotless == 0 and frame < st.rt_stop:
                continue
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
                    self._register_failure(frame, r, sid, act[0], "busy")
        proceed.sort(key=lambda c: c[0])  # by station id

        slot_tx: set[int] = set()
        slot_rx: set[int] = set()
        inflight: dict[int, _Hop] = {}
        handshakes = []

        # requests and cancels make the first channel, each channel's
        # replies the next
        channel: list[tuple[int, ControlMessage]] = []
        for sid, (hop, count) in proceed:
            mac = self.sts[sid].mac
            if hop.slots is None:
                try:
                    msg = mac.build_request(hop.peer, hop.kind, buffered_count=count)
                except NoFreeSlotsError:
                    self.trace.no_free_slots(frame, r, "RP", sid, flow=hop.flow.id)
                    self._register_failure(frame, r, sid, hop, "no_free_slots")
                    continue
            else:
                msg = mac.build_cancel(hop.peer, hop.slots)
            inflight[sid] = hop
            self._send_control(channel, slot_tx, frame, r, sid, msg)
        while channel:
            delivered = self._resolve_control(frame, r, channel)
            channel = []
            for rho, msg in delivered:
                slot_rx.add(rho)
                reply = self._hear(frame, r, rho, msg, inflight, handshakes)
                if reply is not None:
                    self._send_control(channel, slot_tx, frame, r, rho, reply)

        # a handshake is complete once the broadcast went out, heard or not
        for x, peer, slots, kind, fid in handshakes:
            self.trace.handshake_complete(
                frame, r, "RP", x, flow=fid, kind=kind._value_, peer=peer, slots=list(slots),
            )

        # anyone still waiting on a reply lost it somewhere
        for sid in sorted(inflight):
            hop = inflight[sid]
            reason = "no_accept" if hop.slots is None else "no_cancel_ack"
            self._register_failure(frame, r, sid, hop, reason)

        # every cluster head listens through the whole reservation period;
        # the slots it only idled in are booked at the end of the run
        for sid in slot_tx | slot_rx:
            self.meter.add(sid, "tx" if sid in slot_tx else "rx")
            self._rp_busy[sid] += 1

    def _hear(self, frame, r, rho, msg: ControlMessage, inflight, handshakes):
        """Station rho receives msg in RP slot r: the table changes and
        events that follow, and the reply rho sends, or None. Whoever
        hears a cancel or its ack drops the reservation it names. A
        bystander claims the slots a broadcast announces; an overheard
        request or accept carries no table news yet. The addressee
        answers a request, claiming the slots it grants, or a cancel;
        an accept or a cancel-ack completes the handshake or
        cancellation that rho began in this slot, and rho claims an
        accept's slots: inflight maps each initiator still waiting on a
        reply to the hop it signals for, which holds slots exactly when
        it cancels, and handshakes collects the completed handshakes."""
        st = self.sts[rho]
        kind = msg.kind
        if kind is MsgKind.CANCEL:
            self._cancel(frame, r, rho, msg.slots, tx=msg.src, rx=msg.dst)
        elif kind is MsgKind.CANCEL_ACK:
            self._cancel(frame, r, rho, msg.slots, tx=msg.dst, rx=msg.src)
        if msg.dst != rho:
            if kind is MsgKind.RESERVATION_BROADCAST:
                self._claim(frame, r, rho, msg.grant)
            return None
        if kind is MsgKind.CONNECT_REQUEST:
            ca = st.mac.answer_request(msg, frame)
            if ca is not None:  # else no common slot; requester times out
                self._claim(frame, r, rho, ca.grant)
            return ca
        if kind is MsgKind.CANCEL:
            return st.mac.answer_cancel(msg)  # its entries are dropped above
        hop = inflight.pop(rho)
        hop.backoff = None
        if kind is MsgKind.CANCEL_ACK:
            st.set_slots(hop, None)
            self.trace.cancel_complete(
                frame, r, "RP", rho, flow=hop.flow.id, peer=msg.src, slots=list(msg.slots),
            )
            return None
        self._claim(frame, r, rho, msg.grant)
        st.set_slots(hop, msg.slots)
        hop.gap = 0
        handshakes.append((rho, msg.src, msg.slots, msg.entry_kind, hop.flow.id))
        return st.mac.broadcast_grant(msg)

    # _claim, _cancel and _end_frame make and emit every table change and
    # drop the cached CF schedule; _claim notes tables gaining a datagram entry

    def _claim(self, frame, r, sid, grant) -> None:
        inserted, displaced = self.sts[sid].mac.claim(grant)
        if not inserted:
            return
        self._cf_plan = None
        for e in displaced:
            self.trace.rt_delete(
                frame, r, "RP", sid,
                kind=e.kind._value_, reason="overwrite", rx=e.rx, slot_index=e.cf_slot, tx=e.tx,
            )
        kind = grant[0].kind
        if kind is ReservationKind.DATAGRAM:
            self._datagram_tables.add(sid)
        for e in inserted:
            self.trace.rt_insert(
                frame, r, "RP", sid,
                established_frame=frame, kind=kind._value_, rx=e.rx, slot_index=e.cf_slot, tx=e.tx,
            )

    def _cancel(self, frame, r, sid, slots, tx, rx) -> None:
        for e in self.sts[sid].mac.apply_cancel(slots, tx=tx, rx=rx):
            self._cf_plan = None
            self.trace.rt_delete(
                frame, r, "RP", sid,
                kind=e.kind._value_, reason="cancel", rx=rx, slot_index=e.cf_slot, tx=tx,
            )

    # -- contention-free period ----------------------------------------------

    def _schedule(self) -> list[tuple[list[tuple[int, int, _Hop]], frozenset[int]]]:
        """CF slot -> (senders, listeners), the slot's plan by every
        station's own table: senders is [(station, addressee, hop)] in
        station order, and listeners the stations that receive. A
        sender's hop is the one whose slots hold the slot. Tables change
        only in the RP and at the frame boundary, and a hop's slots only
        in the same step as its station's table, so this is rebuilt at
        most once per frame."""
        if self._cf_plan is None:
            slots = range(self.layout.cf_slots)
            senders = [[] for _ in slots]
            listeners = [[] for _ in slots]
            for sid in self.ch_ids:
                st = self.sts[sid]
                hop_of = {s: hop for hop in st.hops.values() for s in hop.slots or ()}
                for e in st.mac.entries():
                    if e.tx == sid:
                        senders[e.cf_slot].append((sid, e.rx, hop_of[e.cf_slot]))
                    elif e.rx == sid:
                        listeners[e.cf_slot].append(sid)
            self._cf_plan = [(senders[s], frozenset(listeners[s])) for s in slots]
        return self._cf_plan

    def _cf_slot(self, frame: int, s: int) -> None:
        # the frame's first CF slot start, which run() sets, plus this
        # slot's offset: the layout's own sum, bit for bit
        slot_start = self._cfp_start + self._cf_offset[s]
        slot_end = slot_start + self._cf_len

        # deadlines are checked against the slot's end: a packet that
        # cannot complete its transmission in time is dropped, never sent.
        # The queues are scanned only once some deadline can have passed.
        if slot_end > self._next_due:
            due = math.inf
            for sid, q in self.queue_order:
                if slot_end > q.next_deadline:
                    for pkt in q.expire(slot_end):
                        self._drop(frame, s, "CFP", sid, pkt)
                due = min(due, q.next_deadline)
            self._next_due = due

        plan = self._cf_plan
        senders, listeners = (self._schedule() if plan is None else plan)[s]
        counts = self.meter.counts
        sent, tx, pairs = [], [], []
        for sid, to, hop in senders:
            q = hop.queue
            pkt = q.head_ready(slot_start)
            if pkt is None:
                self.wasted_slots += 1
                self.trace.wasted_slot(frame, s, "CFP", sid, flow=hop.flow.id)
                continue
            q.pop()
            counts[sid]["tx"] += 1
            sent.append((sid, hop, pkt))
            tx.append(sid)
            pairs.append((sid, to))
            self.trace.data_tx(frame, s, "CFP", sid, flow=pkt.flow_id, seq=pkt.seq, to=to)

        delivered, collisions = self._outcome(tuple(pairs), listeners, self.fso_comm, self.fso_intf)
        for rho, colliding in collisions:
            self.data_collisions += 1
            self.trace.data_collision(frame, s, "CFP", rho, senders=list(colliding))

        for rho, i in delivered:
            sid, hop, pkt = sent[i]
            counts[rho]["rx"] += 1
            self.trace.data_rx(frame, s, "CFP", rho, flow=pkt.flow_id, sender=sid, seq=pkt.seq)
            if rho == hop.flow.dst:
                self._deliver(frame, s, "CFP", rho, pkt, slot_end)
            else:
                self._forward(frame, s, "CFP", rho, self.flows[pkt.flow_id], pkt)
        if len(delivered) < len(sent):
            got = {i for _, i in delivered}
            for i, (sid, _, pkt) in enumerate(sent):
                if i not in got:
                    pkt.dropped = DropReason.COLLISION
                    self._drop(frame, s, "CFP", sid, pkt)

        # cluster heads with nothing scheduled serve their polled optical
        # uplink: one buffered packet straight up per otherwise idle slot
        uplinked = False
        for sid, q in self.uplinks:
            if not q.packets or sid in listeners or sid in tx:
                continue
            pkt = q.head_ready(slot_start)
            if pkt is None:
                continue
            q.pop()
            uplinked = True
            counts[sid]["tx"] += 1
            self.trace.uplink_tx(frame, s, "CFP", sid, flow=pkt.flow_id, seq=pkt.seq)
            self._deliver(frame, s, "CFP", self.sink, pkt, slot_end)

        # a listener that heard nothing idled; stations with no part in
        # the slot sleep, which is booked at the end of the run
        if len(delivered) < len(listeners):
            heard = {rho for rho, _ in delivered}
            for sid in listeners:
                if sid not in heard:
                    counts[sid]["idle"] += 1
        if uplinked:
            counts[self.sink]["rx"] += 1

    # -- frame boundary ---------------------------------------------------------

    def _end_frame(self, frame: int) -> None:
        last = self.layout.cf_slots - 1
        self.trace.frame_end(frame, last, "CFP", -1)
        for sid in sorted(self._datagram_tables):
            st = self.sts[sid]
            self._cf_plan = None
            for e in st.mac.end_of_frame_cleanup(frame):
                self.trace.rt_delete(
                    frame, last, "CFP", sid,
                    kind=e.kind._value_, reason="expire", rx=e.rx, slot_index=e.cf_slot, tx=e.tx,
                )
            # every slot of a datagram hop was a datagram entry just wiped
            for hop in st.hops.values():
                if hop.kind is ReservationKind.DATAGRAM:
                    st.set_slots(hop, None)
        self._datagram_tables.clear()

        # session continuity: a real-time hop that once held slots but now
        # has traffic and no reservation is starving
        for fid in self.flow_ids:
            fr = self.flows[fid]
            if not fr.flow.real_time:
                continue
            for hop in fr.hops:
                if hop.gap is None:
                    continue
                if hop.slots is None and len(hop.queue) > 0:
                    hop.gap += 1
                    fr.max_gap = max(fr.max_gap, hop.gap)
                else:
                    hop.gap = 0

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
                elif p.dropped is DropReason.UNROUTED:
                    fs.dropped_unrouted += 1
                else:
                    fs.queued_at_end += 1
            if delays:
                fs.mean_delay_ms = float_sum(delays) / len(delays)
                fs.max_delay_ms = max(delays)
            fs.session_gap_frames = fr.max_gap
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
