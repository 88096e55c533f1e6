"""Service classes, arrival processes, and the per-hop packet queue."""

import math
import random

import pytest

from wmsnsim import (
    SERVICE_CLASSES,
    DropReason,
    Flow,
    PacketQueue,
    PacketRecord,
    PacketSource,
    ServiceMode,
    UnknownServiceClassError,
    establishment_priority,
    service_class,
)


def make_flow(cls="CBR", mode="bonded", rate=64000.0, size=1000, **kw):
    return Flow(
        id=1,
        src=1,
        dst=9,
        service=service_class(cls),
        mode=ServiceMode(mode),
        rate_bps=rate,
        packet_size_bits=size,
        **kw,
    )


def test_service_class_table_frozen_values():
    t = SERVICE_CLASSES
    assert set(t) == {"CBR", "rtVBR", "nrtVBR", "ABR", "UBR"}
    assert t["CBR"].application == "voice"
    assert (t["CBR"].bandwidth_min, t["CBR"].bandwidth_max) == (32_000, 2_000_000)
    assert t["CBR"].delay_bound_ms == (30.0, 60.0)
    assert t["CBR"].loss_rate_target == 1e-2
    assert t["rtVBR"].application == "video_conference"
    assert (t["rtVBR"].bandwidth_min, t["rtVBR"].bandwidth_max) == (128_000, 6_000_000)
    assert t["rtVBR"].delay_bound_ms == (40.0, 90.0)
    assert t["rtVBR"].loss_rate_target == 1e-3
    assert t["nrtVBR"].application == "digital_video"
    assert t["nrtVBR"].delay_bound_ms is None
    assert t["nrtVBR"].loss_rate_target == 1e-6
    assert t["ABR"].application == "web_browsing"
    assert t["UBR"].application == "file_transfer"
    for name in ("nrtVBR", "ABR", "UBR"):
        assert (t[name].bandwidth_min, t[name].bandwidth_max) == (
            1_000_000,
            10_000_000,
        )
    assert t["ABR"].loss_rate_target == t["UBR"].loss_rate_target == 1e-8
    # real-time split and the packet deadline offset
    assert t["CBR"].real_time and t["rtVBR"].real_time
    assert not t["nrtVBR"].real_time
    assert t["CBR"].deadline_ms == 60.0
    assert t["rtVBR"].deadline_ms == 90.0
    assert t["UBR"].deadline_ms is None
    with pytest.raises(UnknownServiceClassError):
        service_class("VBR")


def test_flow_validation():
    with pytest.raises(ValueError):
        make_flow(rate=31_999.0)  # below the CBR floor
    with pytest.raises(ValueError):
        make_flow(rate=2_000_001.0)
    with pytest.raises(ValueError):
        make_flow(cls="ABR", mode="bonded", rate=2_000_000)  # mode on datagram class
    with pytest.raises(ValueError):
        make_flow(size=0)
    with pytest.raises(ValueError):
        make_flow(stop_frame=0)
    f = make_flow(cls="ABR", mode="none", rate=2_000_000)
    assert not f.real_time


def test_establishment_priority_order():
    bonded = make_flow(mode="bonded")
    semi = make_flow(mode="semi_bonded")
    plain = make_flow(mode="none")
    dgram = make_flow(cls="UBR", mode="none", rate=1_000_000)
    prios = [establishment_priority(f) for f in (bonded, semi, plain, dgram)]
    assert prios == [0, 1, 2, 3]


def test_cbr_source_exact_spacing():
    # 64 kb/s and 1000-bit packets: one packet every 15.625 ms
    src = PacketSource(make_flow(), random.Random(1))
    got = src.packets_for_window(0.0, 1000.0)
    assert len(got) == 64
    assert got[0].created_ms == 0.0
    for k, p in enumerate(got):
        assert p.created_ms == pytest.approx(k * 15.625)
        assert p.deadline_ms == pytest.approx(p.created_ms + 60.0)
        assert p.seq == k
        assert p.size_bits == 1000
    # windows partition the timeline with no duplicates or gaps
    src2 = PacketSource(make_flow(), random.Random(1))
    merged = []
    for w in range(10):
        merged += src2.packets_for_window(w * 100.0, (w + 1) * 100.0)
    assert [p.created_ms for p in merged] == [p.created_ms for p in got]


def test_vbr_source_gaps_come_from_two_rates():
    flow = make_flow(cls="rtVBR", mode="bonded", rate=256_000, size=1000)
    src = PacketSource(flow, random.Random(7))
    pkts = []
    for w in range(80):
        pkts += src.packets_for_window(w * 12.2, (w + 1) * 12.2)
    gaps = {
        round(b.created_ms - a.created_ms, 6)
        for a, b in zip(pkts, pkts[1:])
    }
    low = round(1000 / 128_000 * 1000.0, 6)  # class floor
    high = round(1000 / 256_000 * 1000.0, 6)  # subscribed rate
    assert gaps <= {low, high}
    assert len(gaps) == 2  # both states actually visited
    for p in pkts:
        assert p.deadline_ms == pytest.approx(p.created_ms + 90.0)


def test_best_effort_source_is_seeded_poisson():
    flow = make_flow(cls="ABR", mode="none", rate=1_000_000, size=1000)
    a = PacketSource(flow, random.Random(5))
    b = PacketSource(flow, random.Random(5))
    c = PacketSource(flow, random.Random(6))
    wa = a.packets_for_window(0, 500.0)
    wb = b.packets_for_window(0, 500.0)
    wc = c.packets_for_window(0, 500.0)
    assert [p.created_ms for p in wa] == [p.created_ms for p in wb]
    assert [p.created_ms for p in wa] != [p.created_ms for p in wc]
    assert wa[0].deadline_ms is None
    # mean gap 1 ms: rough sanity on the count
    assert 300 < len(wa) < 750


def test_queue_fifo_and_overflow():
    q = PacketQueue(capacity=2)
    p1 = PacketRecord(1, 0, 0.0, None, 100)
    p2 = PacketRecord(1, 1, 1.0, None, 100)
    p3 = PacketRecord(1, 2, 2.0, None, 100)
    assert q.push(p1) and q.push(p2)
    assert not q.push(p3)
    assert p3.dropped is DropReason.OVERFLOW
    assert len(q) == 2
    assert q.head_ready(math.inf) is p1
    assert q.pop() is p1
    assert q.pop() is p2
    assert q.head_ready(math.inf) is None


def test_queue_head_ready_respects_creation_time():
    q = PacketQueue()
    q.push(PacketRecord(1, 0, 10.0, None, 100))
    assert q.head_ready(9.9) is None
    assert q.head_ready(10.0) is not None


def test_queue_expire_drops_past_deadlines():
    q = PacketQueue()
    live = PacketRecord(1, 0, 0.0, 50.0, 100)
    dead = PacketRecord(1, 1, 0.0, 20.0, 100)
    boundary = PacketRecord(1, 2, 0.0, 30.0, 100)
    for p in (live, dead, boundary):
        q.push(p)
    dropped = q.expire(30.0)
    assert dropped == [dead]
    assert dead.dropped is DropReason.DEADLINE_MISS
    # a deadline exactly at the slot end still makes it
    assert len(q) == 2
    assert live.dropped is None and boundary.dropped is None


def test_queue_expire_matches_a_full_scan():
    # a mixed-class queue, like a station's uplink: deadlines 60 or 90 ms
    # after creation, or none, so they are not in queue order; times on a
    # 0.5 ms grid so a deadline often equals the expiry time exactly
    rng = random.Random(3)
    scans = 0
    for _ in range(200):
        q = PacketQueue(capacity=rng.randint(1, 12))
        model: list[PacketRecord] = []
        now = 0.0
        for seq in range(80):
            op = rng.random()
            if op < 0.5:
                bound = rng.choice([60.0, 90.0, None])
                pkt = PacketRecord(1, seq, now, None if bound is None else now + bound, 100)
                room = len(model) < q.capacity
                assert q.push(pkt) is room
                if room:
                    model.append(pkt)
            elif op < 0.7:
                if model:
                    assert q.pop() is model.pop(0)
            else:
                want = [p for p in model if p.deadline_ms is not None and p.deadline_ms < now]
                scans += bool(want)
                scanned = now > q.next_deadline
                got = q.expire(now)
                assert [id(p) for p in got] == [id(p) for p in want]
                assert all(p.dropped is DropReason.DEADLINE_MISS for p in got)
                model = [p for p in model if all(p is not d for d in want)]
            live = [p.deadline_ms for p in model if p.deadline_ms is not None]
            if op >= 0.7 and scanned:  # a scan leaves the bound exact
                assert q.next_deadline == min(live, default=math.inf)
            assert q.next_deadline <= min(live, default=math.inf)
            assert len(q) == len(model)
            now += rng.choice([0.0, 0.5, 5.0, 20.0])
        assert [id(q.pop()) for _ in range(len(q))] == [id(p) for p in model]
    assert scans > 100  # the sequences really drop packets


def test_packet_delay_property():
    p = PacketRecord(1, 0, 10.0, None, 100)
    assert p.delay_ms is None
    p.delivered_ms = 35.5
    assert p.delay_ms == pytest.approx(25.5)
