"""QoS service classes, flow definitions, packet sources, and queues.

The five service classes mirror the usual ATM taxonomy. CBR and rtVBR are
real-time: their packets carry absolute deadlines and ride persistent
reservations. The remaining classes are datagram traffic, buffered until a
burst threshold is reached and shipped on per-frame reservations.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_BURST_LENGTH = 8
DEFAULT_QUEUE_CAPACITY = 64

# chance per frame that a variable-rate source flips between its low and
# high emission rate
VBR_FLIP_PROB = 0.5


class UnknownServiceClassError(KeyError):
    """Raised for a service class name outside the standard table."""


class ServiceMode(str, Enum):
    # BONDED: the reservation must hold continuously for the session.
    # SEMI_BONDED: short reservation gaps are tolerated before the session
    # counts as degraded.
    BONDED = "bonded"
    SEMI_BONDED = "semi_bonded"
    NONE = "none"


class DropReason(str, Enum):
    """Why a packet was lost; each value is the reason its packet_drop
    event gives. The queue sets OVERFLOW and DEADLINE_MISS, the engine
    COLLISION and UNROUTED."""

    COLLISION = "collision"
    DEADLINE_MISS = "deadline"
    OVERFLOW = "overflow"
    UNROUTED = "unrouted"


@dataclass(frozen=True)
class ServiceClass:
    name: str
    application: str
    bandwidth_min: float  # b/s
    bandwidth_max: float  # b/s
    delay_bound_ms: tuple[float, float] | None  # None: no delay bound
    loss_rate_target: float

    @property
    def real_time(self) -> bool:
        return self.delay_bound_ms is not None

    @property
    def deadline_ms(self) -> float | None:
        """Deadline offset stamped on generated packets: the loose end of
        the class's delay-bound range."""
        return self.delay_bound_ms[1] if self.delay_bound_ms else None


SERVICE_CLASSES: dict[str, ServiceClass] = {
    "CBR": ServiceClass("CBR", "voice", 32_000.0, 2_000_000.0, (30.0, 60.0), 1e-2),
    "rtVBR": ServiceClass(
        "rtVBR", "video_conference", 128_000.0, 6_000_000.0, (40.0, 90.0), 1e-3
    ),
    "nrtVBR": ServiceClass(
        "nrtVBR", "digital_video", 1_000_000.0, 10_000_000.0, None, 1e-6
    ),
    "ABR": ServiceClass("ABR", "web_browsing", 1_000_000.0, 10_000_000.0, None, 1e-8),
    "UBR": ServiceClass("UBR", "file_transfer", 1_000_000.0, 10_000_000.0, None, 1e-8),
}


def service_class(name: str) -> ServiceClass:
    try:
        return SERVICE_CLASSES[name]
    except KeyError:
        raise UnknownServiceClassError(name) from None


def class_rule_breaches(
    service: ServiceClass, mode: ServiceMode | None, rate_bps: float
) -> list[tuple[str, str]]:
    """(flow field, message) for each class rule a flow breaks: its rate
    must lie inside the class's bandwidth band, and a datagram class takes
    no service mode. A mode of None is unknown and not checked."""
    out = []
    lo, hi = service.bandwidth_min, service.bandwidth_max
    if not lo <= rate_bps <= hi:
        out.append(("rate_bps", f"{rate_bps} outside {service.name} range [{lo}, {hi}]"))
    if mode not in (None, ServiceMode.NONE) and not service.real_time:
        out.append(("mode", f"{service.name} is not real-time; mode must be none"))
    return out


@dataclass(frozen=True)
class Flow:
    id: int
    src: int
    dst: int
    service: ServiceClass
    mode: ServiceMode
    rate_bps: float
    packet_size_bits: int
    burst_length: int = DEFAULT_BURST_LENGTH
    start_frame: int = 0
    stop_frame: int | None = None  # None: runs to the horizon

    def __post_init__(self):
        breaches = class_rule_breaches(self.service, self.mode, self.rate_bps)
        if breaches:
            raise ValueError(f"flow {self.id}: {breaches[0][1]}")
        if self.packet_size_bits < 1:
            raise ValueError("packet_size_bits must be >= 1")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        if self.start_frame < 0:
            raise ValueError("start_frame must be >= 0")
        if self.stop_frame is not None and self.stop_frame <= self.start_frame:
            raise ValueError("stop_frame must exceed start_frame")

    @property
    def real_time(self) -> bool:
        return self.service.real_time


def establishment_priority(flow: Flow) -> int:
    """Order in which co-resident flows get the single per-frame chance to
    initiate a reservation: bonded first, then semi-bonded, then other
    real-time, datagram last."""
    if not flow.real_time:
        return 3
    return {ServiceMode.BONDED: 0, ServiceMode.SEMI_BONDED: 1, ServiceMode.NONE: 2}[
        flow.mode
    ]


@dataclass
class PacketRecord:
    flow_id: int
    seq: int
    created_ms: float
    deadline_ms: float | None
    size_bits: int
    delivered_ms: float | None = None
    dropped: DropReason | None = None

    @property
    def delay_ms(self) -> float | None:
        if self.delivered_ms is None:
            return None
        return self.delivered_ms - self.created_ms


class PacketSource:
    """Deterministic arrival process for one flow.

    CBR emits on an exact fixed spacing. Variable-rate classes run a
    seeded two-state process that hops between the class's low and high
    rate at frame boundaries, keeping any window's emitted rate inside
    the class bounds. Best-effort classes draw exponential gaps at the
    configured mean rate.
    """

    def __init__(self, flow: Flow, rng: random.Random):
        self.flow = flow
        self.rng = rng
        self._next_ms: float | None = None
        self._seq = 0
        self._high = False

    def _gap_ms(self) -> float:
        flow = self.flow
        if flow.service.name == "CBR":
            return flow.packet_size_bits / flow.rate_bps * 1000.0
        if flow.service.name in ("rtVBR", "nrtVBR"):
            # the busy state runs at the flow's subscribed rate, the quiet
            # state at the class floor, so every window's emitted rate
            # stays inside the class band
            rate = flow.rate_bps if self._high else flow.service.bandwidth_min
            return flow.packet_size_bits / rate * 1000.0
        # ABR / UBR
        return self.rng.expovariate(flow.rate_bps / flow.packet_size_bits) * 1000.0

    def packets_for_window(self, window_start_ms: float, window_end_ms: float) -> list[PacketRecord]:
        """All packets created in [window_start, window_end). Call once per
        frame with monotonically increasing windows."""
        if self._next_ms is None:
            self._next_ms = window_start_ms
        if self.flow.service.name in ("rtVBR", "nrtVBR"):
            if self.rng.random() < VBR_FLIP_PROB:
                self._high = not self._high
        out = []
        bound = self.flow.service.deadline_ms
        while self._next_ms < window_end_ms:
            if self._next_ms >= window_start_ms:
                out.append(
                    PacketRecord(
                        flow_id=self.flow.id,
                        seq=self._seq,
                        created_ms=self._next_ms,
                        deadline_ms=None if bound is None else self._next_ms + bound,
                        size_bits=self.flow.packet_size_bits,
                    )
                )
                self._seq += 1
            self._next_ms += self._gap_ms()
        return out


class PacketQueue:
    """Bounded FIFO for one flow's packets held at one station.

    `next_deadline` is a lower bound on the earliest deadline queued
    (infinity when no queued packet has one): a push lowers it, a pop
    leaves it, and a scan in `expire` makes it exact again. So while
    `now_ms <= next_deadline` no packet can have expired, whatever the
    mix of deadlines in the queue.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY):
        self.capacity = capacity
        self._q: deque[PacketRecord] = deque()
        self.next_deadline = math.inf

    def __len__(self) -> int:
        return len(self._q)

    def push(self, pkt: PacketRecord) -> bool:
        """False (and a drop mark) when the queue is full."""
        if len(self._q) >= self.capacity:
            pkt.dropped = DropReason.OVERFLOW
            return False
        self._q.append(pkt)
        if pkt.deadline_ms is not None and pkt.deadline_ms < self.next_deadline:
            self.next_deadline = pkt.deadline_ms
        return True

    def head_ready(self, now_ms: float) -> PacketRecord | None:
        """Oldest packet that already exists at `now_ms`, without removing
        it. Creation times are monotone, so only the head can qualify."""
        if self._q and self._q[0].created_ms <= now_ms:
            return self._q[0]
        return None

    def pop(self) -> PacketRecord:
        return self._q.popleft()

    def expire(self, now_ms: float) -> list[PacketRecord]:
        """Drop every queued packet whose deadline precedes `now_ms`, in
        queue order. Run with the end time of the slot about to transmit,
        which guarantees nothing is ever delivered past its bound."""
        if now_ms <= self.next_deadline:
            return []
        dropped = []
        keep = deque()
        due = math.inf
        for pkt in self._q:
            d = pkt.deadline_ms
            if d is not None and d < now_ms:
                pkt.dropped = DropReason.DEADLINE_MISS
                dropped.append(pkt)
            else:
                keep.append(pkt)
                if d is not None and d < due:
                    due = d
        self._q = keep
        self.next_deadline = due
        return dropped
