"""Reservation MAC building blocks.

Each frame is a reservation period (RP) of grid-scheduled control slots
followed by a contention-free period (CFP) of data slots. A station may
start a reservation procedure only in the RP slot derived from its grid
cell; one RP slot is wide enough for a full three-message establishment
(request, accept, reservation broadcast) or a two-message cancellation.
Data slots carry exactly one packet plus its acknowledgment.

Each station's StationMac holds its own table of the CFP schedule. The
message builders change no table: every hearer of a handshake, the
responder, the initiator and any bystander, enters the reservation
through StationMac.claim, and a cancel drops it through apply_cancel.

Real-time reservations persist across frames until explicitly cancelled;
datagram (burst) reservations are valid for the current frame only and
are wiped at the frame boundary. Failed procedures back off a whole
number of frames, doubling the window per attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .geometry import GridSpec, rp_slot_of
from .topology import Station


class NoFreeSlotsError(RuntimeError):
    """Raised when a request is built while the sender has no free slot."""


class DatagramCancelError(ValueError):
    """Raised on an attempt to cancel a datagram reservation; those simply
    expire with the frame."""


class MsgKind(str, Enum):
    CONNECT_REQUEST = "CR"
    CONNECT_ACCEPT = "CA"
    RESERVATION_BROADCAST = "SRB"
    CANCEL = "CC"
    CANCEL_ACK = "CC_ACK"


class ReservationKind(str, Enum):
    REAL_TIME = "real_time"
    DATAGRAM = "datagram"


@dataclass(frozen=True)
class FrameLayout:
    """Slot counts and slot durations of one frame."""

    rp_slots: int = 11
    cf_slots: int = 20
    rp_slot_len_ms: float = 0.2
    cf_slot_len_ms: float = 0.5

    def __post_init__(self):
        if self.rp_slots < 11:
            raise ValueError(f"rp_slots must be >= 11, got {self.rp_slots}")
        if self.cf_slots < 1:
            raise ValueError(f"cf_slots must be >= 1, got {self.cf_slots}")
        if self.rp_slot_len_ms <= 0.0 or self.cf_slot_len_ms <= 0.0:
            raise ValueError("slot lengths must be positive")

    @property
    def frame_len_ms(self) -> float:
        return self.rp_slots * self.rp_slot_len_ms + self.cf_slots * self.cf_slot_len_ms

    @property
    def total_slots(self) -> int:
        return self.rp_slots + self.cf_slots

    def frame_start_ms(self, frame: int) -> float:
        return frame * self.frame_len_ms

    def cf_slot_start_ms(self, frame: int, slot: int) -> float:
        return (
            self.frame_start_ms(frame)
            + self.rp_slots * self.rp_slot_len_ms
            + slot * self.cf_slot_len_ms
        )

    def cf_slot_end_ms(self, frame: int, slot: int) -> float:
        return self.cf_slot_start_ms(frame, slot) + self.cf_slot_len_ms


def my_rp_slot(station: Station, spec: GridSpec, slotting_enabled: bool = True) -> int:
    """RP slot a station may initiate in. With slotting disabled every
    station contends in slot 0 (the degraded configuration used to
    demonstrate what the schedule buys)."""
    if not slotting_enabled:
        return 0
    return rp_slot_of(station.grid, spec)


@dataclass(frozen=True)
class ReservationEntry:
    cf_slot: int
    tx: int
    rx: int
    kind: ReservationKind
    established_frame: int

    def __post_init__(self):
        if self.tx == self.rx:
            raise ValueError("reservation endpoints must differ")
        if self.cf_slot < 0:
            raise ValueError(f"bad cf_slot {self.cf_slot}")


def mask_to_slots(mask: int) -> tuple[int, ...]:
    out = []
    s = 0
    while mask >> s:
        if mask >> s & 1:
            out.append(s)
        s += 1
    return tuple(out)


def choose_grant(common_mask: int, kind: ReservationKind, requested: int) -> tuple[int, ...]:
    """Lowest-indexed slots out of the common free set: one slot for a
    real-time connection, min(requested, available) for a datagram burst.
    Empty tuple when nothing is common."""
    common = mask_to_slots(common_mask)
    return common[: 1 if kind is ReservationKind.REAL_TIME else max(1, requested)]


@dataclass(frozen=True)
class ControlMessage:
    """One RP control message; dst None means broadcast. An accept and its
    broadcast carry the grant: the entries every hearer claims, each naming
    its tx and rx."""

    kind: MsgKind
    src: int
    dst: int | None
    free_mask: int = 0
    buffered_count: int = 0
    slots: tuple[int, ...] = ()
    entry_kind: ReservationKind | None = None
    grant: tuple[ReservationEntry, ...] = ()


@dataclass(frozen=True)
class BackoffConfig:
    base_window: int = 2  # frames
    max_window: int = 32  # frames
    max_retries: int = 7

    def __post_init__(self):
        if self.base_window < 1 or self.max_window < self.base_window:
            raise ValueError("bad backoff window bounds")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class BackoffState:
    """Frame-granular binary exponential backoff. The attempt counter caps
    at max_retries, freezing the window; the request itself is never
    abandoned while its demand persists."""

    attempt: int = 0
    next_eligible_frame: int = 0

    def eligible(self, frame: int) -> bool:
        return frame >= self.next_eligible_frame

    def window(self, cfg: BackoffConfig) -> int:
        return min(cfg.base_window * (2 ** self.attempt), cfg.max_window)

    def register_failure(self, frame: int, rng: random.Random, cfg: BackoffConfig) -> int:
        """Record a failed attempt and draw the retry frame. Returns the
        frame the next attempt becomes eligible."""
        delay = 1 + rng.randrange(self.window(cfg))
        self.attempt = min(self.attempt + 1, cfg.max_retries)
        self.next_eligible_frame = frame + delay
        return self.next_eligible_frame


@dataclass(frozen=True)
class MacConfig:
    slotting_enabled: bool = True
    backoff: BackoffConfig = field(default_factory=BackoffConfig)
    # micro-offset range used by same-grid carrier sensing inside an RP slot
    contention_window: int = 8

    def __post_init__(self):
        if self.contention_window < 2:
            raise ValueError("contention_window must be >= 2")


class StationMac:
    """Per-station reservation protocol state: the station's own view of
    the CFP schedule, at most one entry per slot.

    The message builders change no table. Every hearer of a handshake,
    the responder, the initiator and any bystander, records it through
    claim; a cancel and the frame boundary drop entries. The engine owns
    timing, the shared medium, and queue contents.
    """

    def __init__(self, owner: int, cf_slots: int):
        self.owner = owner
        self.cf_slots = cf_slots
        self.table: dict[int, ReservationEntry] = {}

    def entries(self) -> list[ReservationEntry]:
        return [self.table[s] for s in sorted(self.table)]

    def free_mask(self) -> int:
        mask = (1 << self.cf_slots) - 1
        for s in self.table:
            mask &= ~(1 << s)
        return mask

    def claim(
        self, grant: tuple[ReservationEntry, ...]
    ) -> tuple[list[ReservationEntry], list[ReservationEntry]]:
        """Record the entries of one grant (see ControlMessage); newest news wins.

        Returns (inserted, displaced): entries that changed the table and
        any conflicting older entries they overwrote (a displacement is a
        table inconsistency symptom the audits look for). A slot that
        already holds this reservation is left as it is. A slot this
        station itself transmits or receives in is never displaced by
        hearsay: the foreign claim comes from a link far enough away to
        have missed our own broadcast, so both links can coexist and
        first-hand state stays authoritative until cancel or expiry. An
        endpoint claims slots free in its own table, so neither rule
        applies to it.
        """
        table = self.table
        inserted = []
        displaced = []
        for e in grant:
            cur = table.get(e.cf_slot)
            if cur is not None:
                if cur.tx == e.tx and cur.rx == e.rx and cur.kind is e.kind:
                    continue  # already known
                if self.owner in (cur.tx, cur.rx):
                    continue  # first-hand, kept over hearsay
                displaced.append(cur)
            elif e.cf_slot >= self.cf_slots:
                raise ValueError(f"cf_slot {e.cf_slot} outside 0..{self.cf_slots - 1}")
            table[e.cf_slot] = e
            inserted.append(e)
        return inserted, displaced

    # -- establishment -------------------------------------------------

    def build_request(
        self,
        peer: int,
        kind: ReservationKind,
        buffered_count: int = 0,
    ) -> ControlMessage:
        mask = self.free_mask()
        if mask == 0:
            raise NoFreeSlotsError(f"station {self.owner} has no free CF slot")
        return ControlMessage(
            kind=MsgKind.CONNECT_REQUEST,
            src=self.owner,
            dst=peer,
            free_mask=mask,
            buffered_count=buffered_count,
            entry_kind=kind,
        )

    def answer_request(self, cr: ControlMessage, frame: int) -> ControlMessage | None:
        """Receiver side: the accept granting the lowest common free slots
        in `frame`, with the grant's entries, built once for every hearer.
        None means no common slot; the requester times out, as on a lost reply."""
        slots = choose_grant(cr.free_mask & self.free_mask(), cr.entry_kind, cr.buffered_count)
        if not slots:
            return None
        grant = tuple(ReservationEntry(s, cr.src, self.owner, cr.entry_kind, frame) for s in slots)
        return ControlMessage(
            kind=MsgKind.CONNECT_ACCEPT,
            src=self.owner,
            dst=cr.src,
            slots=slots,
            entry_kind=cr.entry_kind,
            grant=grant,
        )

    def broadcast_grant(self, ca: ControlMessage) -> ControlMessage:
        """Initiator side, on accept: the reservation broadcast that tells
        the neighborhood; the initiator claims the granted slots."""
        return ControlMessage(
            kind=MsgKind.RESERVATION_BROADCAST,
            src=self.owner,
            dst=None,
            slots=ca.slots,
            entry_kind=ca.entry_kind,
            grant=ca.grant,
        )

    # -- cancellation ----------------------------------------------------

    def build_cancel(self, peer: int, slots: tuple[int, ...]) -> ControlMessage:
        for s in slots:
            e = self.table.get(s)
            if e is None or e.tx != self.owner or e.rx != peer:
                raise ValueError(f"station {self.owner} holds no reservation at {s}")
            if e.kind is ReservationKind.DATAGRAM:
                raise DatagramCancelError("datagram reservations expire, not cancel")
        return ControlMessage(kind=MsgKind.CANCEL, src=self.owner, dst=peer, slots=slots)

    def answer_cancel(self, cc: ControlMessage) -> ControlMessage:
        """Peer side: the acknowledgment; the peer drops the entries with
        apply_cancel, as every hearer of the cancel does. Dropping is
        idempotent, so a retried cancel after a lost ack is harmless."""
        return ControlMessage(
            kind=MsgKind.CANCEL_ACK, src=self.owner, dst=cc.src, slots=cc.slots
        )

    def apply_cancel(
        self, slots: tuple[int, ...], tx: int, rx: int
    ) -> list[ReservationEntry]:
        """Remove entries matching a cancelled reservation. Used by both
        endpoints and by bystanders overhearing either cancel message."""
        removed = []
        for s in slots:
            e = self.table.get(s)
            if e and e.tx == tx and e.rx == rx:
                del self.table[s]
                removed.append(e)
        return removed

    # -- frame boundary --------------------------------------------------

    def end_of_frame_cleanup(self, frame: int) -> list[ReservationEntry]:
        """Datagram reservations are valid only for the frame that granted
        them; wipe them in one pass in slot order, and return them in that
        order. Real-time entries stay."""
        table = self.table
        return [table.pop(s) for s in sorted(table) if table[s].kind is ReservationKind.DATAGRAM]
