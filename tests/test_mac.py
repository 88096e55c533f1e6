"""Reservation MAC: tables, grants, handshakes, cancels, backoff."""

import random
from dataclasses import replace

import pytest

from wmsnsim import (
    BackoffConfig,
    BackoffState,
    DatagramCancelError,
    FrameLayout,
    GridCell,
    GridSpec,
    MacConfig,
    MsgKind,
    NoFreeSlotsError,
    Point,
    ReservationEntry,
    ReservationKind,
    ReservationTable,
    Station,
    StationKind,
    StationMac,
    choose_grant,
    mask_to_slots,
    my_rp_slot,
)

RT = ReservationKind.REAL_TIME
DG = ReservationKind.DATAGRAM


def entry(slot, tx, rx, kind=RT, frame=0):
    return ReservationEntry(
        cf_slot=slot, tx=tx, rx=rx, kind=kind, established_frame=frame
    )


def test_frame_layout_timing():
    lay = FrameLayout()
    assert lay.rp_slots == 11 and lay.cf_slots == 20
    assert lay.frame_len_ms == pytest.approx(11 * 0.2 + 20 * 0.5)
    assert lay.frame_start_ms(0) == 0.0
    assert lay.frame_start_ms(2) == pytest.approx(2 * 12.2)
    # contention-free slots start after the whole reservation period
    assert lay.cf_slot_start_ms(0, 0) == pytest.approx(2.2)
    assert lay.cf_slot_end_ms(0, 0) == pytest.approx(2.7)
    assert lay.cf_slot_end_ms(1, 19) == pytest.approx(2 * 12.2)
    with pytest.raises(ValueError):
        FrameLayout(rp_slots=0)
    with pytest.raises(ValueError):
        FrameLayout(cf_slot_len_ms=0.0)


def test_my_rp_slot_follows_grid_schedule():
    spec = GridSpec(cell_width=10, cell_height=10)
    st = Station(id=1, kind=StationKind.SENSOR_NODE, position=Point(25, 17), rf_range=1)
    st = replace(st, grid=GridCell(2, 1))
    assert my_rp_slot(st, spec) == 2  # (3*2 + 2*1 + 5) mod 11
    assert my_rp_slot(st, spec, slotting_enabled=False) == 0


def test_reservation_entry_validation():
    with pytest.raises(ValueError):
        entry(0, 4, 4)
    with pytest.raises(ValueError):
        entry(-1, 1, 2)


def test_reservation_table_basics():
    t = ReservationTable(owner=1, cf_slots=4)
    assert mask_to_slots(t.free_mask()) == (0, 1, 2, 3)
    assert t.free_mask() == 0b1111
    e = entry(2, 1, 5)
    assert t.insert(e) is None
    assert t.get(2) is e
    assert t.free_mask() == 0b1011
    assert mask_to_slots(t.free_mask()) == (0, 1, 3)
    # same slot again: newest wins, old entry reported
    e2 = entry(2, 7, 8)
    assert t.insert(e2) is e
    assert t.delete(2) is e2
    assert t.delete(2) is None
    with pytest.raises(ValueError):
        t.insert(entry(4, 1, 5))


def test_mask_round_trip():
    assert mask_to_slots(0) == ()
    assert mask_to_slots(0b10110) == (1, 2, 4)
    t = ReservationTable(owner=0, cf_slots=9)
    for s in (0, 3, 7):
        t.insert(entry(s, 1, 2))
    assert mask_to_slots(t.free_mask()) == (1, 2, 4, 5, 6, 8)


def test_choose_grant_real_time_takes_one_lowest():
    # common slots {3}: intersection of {1,2,3} and {3,4}
    a = sum(1 << s for s in (1, 2, 3))
    b = sum(1 << s for s in (3, 4))
    assert choose_grant(a & b, RT, requested=5) == (3,)
    assert choose_grant(0, RT, requested=1) == ()


def test_choose_grant_datagram_takes_burst():
    mask = sum(1 << s for s in (2, 5, 7, 9))
    assert choose_grant(mask, DG, requested=3) == (2, 5, 7)
    assert choose_grant(mask, DG, requested=9) == (2, 5, 7, 9)
    # at least one slot even for an empty burst report
    assert choose_grant(mask, DG, requested=0) == (2,)


def test_choose_grant_oracle():
    rng = random.Random(17)
    for _ in range(400):
        mask = rng.getrandbits(12)
        req = rng.randint(0, 14)
        kind = rng.choice([RT, DG])
        got = choose_grant(mask, kind, req)
        free = [s for s in range(12) if mask >> s & 1]
        if not free:
            assert got == ()
        elif kind is RT:
            assert got == (min(free),)
        else:
            assert list(got) == sorted(free)[: max(1, min(req, len(free)))]
        # granted slots always come out of the offered mask
        assert all(mask >> s & 1 for s in got)


def play_handshake(cf_slots=6, kind=RT, buffered=1, frame=0):
    a = StationMac(owner=1, cf_slots=cf_slots)
    b = StationMac(owner=2, cf_slots=cf_slots)
    w = StationMac(owner=3, cf_slots=cf_slots)  # bystander
    cr = a.build_request(2, kind, buffered_count=buffered)
    answer = b.answer_request(cr, frame=frame)
    assert answer is not None
    ca, rx_entries = answer
    srb, tx_entries = a.commit_grant(ca, frame=frame)
    inserted, displaced = w.apply_broadcast(srb, frame=frame)
    return a, b, w, cr, ca, srb, rx_entries, tx_entries, inserted, displaced


def test_full_establishment_handshake():
    a, b, w, cr, ca, srb, rx_e, tx_e, ins, disp = play_handshake()
    assert cr.kind is MsgKind.CONNECT_REQUEST and cr.dst == 2
    assert ca.kind is MsgKind.CONNECT_ACCEPT and ca.slots == (0,)
    assert srb.kind is MsgKind.RESERVATION_BROADCAST and srb.dst is None
    assert srb.peer == 2 and srb.slots == (0,)
    # all three tables agree on slot 0
    for mac in (a, b, w):
        e = mac.rt.get(0)
        assert (e.tx, e.rx, e.kind) == (1, 2, RT)
    assert disp == []
    # a second broadcast of the same news changes nothing
    again_ins, again_disp = w.apply_broadcast(srb, frame=1)
    assert again_ins == [] and again_disp == []


def test_establishment_respects_busy_slots():
    a = StationMac(owner=1, cf_slots=4)
    b = StationMac(owner=2, cf_slots=4)
    a.rt.insert(entry(0, 9, 1))  # a is busy receiving in slot 0
    b.rt.insert(entry(1, 8, 2))  # b is busy in slot 1
    cr = a.build_request(2, RT)
    ca, _ = b.answer_request(cr, frame=3)
    assert ca.slots == (2,)  # lowest common free slot


def test_answer_request_with_no_common_slot_is_silent():
    a = StationMac(owner=1, cf_slots=2)
    b = StationMac(owner=2, cf_slots=2)
    a.rt.insert(entry(0, 9, 1))
    b.rt.insert(entry(1, 8, 2))
    cr = a.build_request(2, RT)
    assert b.answer_request(cr, frame=0) is None
    # and the failed answer reserved nothing
    assert mask_to_slots(b.rt.free_mask()) == (0,)


def test_build_request_requires_a_free_slot():
    a = StationMac(owner=1, cf_slots=1)
    a.rt.insert(entry(0, 9, 1))
    with pytest.raises(NoFreeSlotsError):
        a.build_request(2, RT)


def test_datagram_burst_grant_count():
    a, b, w, *_ , ins, disp = play_handshake(kind=DG, buffered=3)
    got = [e for e in a.rt.entries() if e.kind is DG]
    assert [e.cf_slot for e in got] == [0, 1, 2]
    assert disp == []


def test_broadcast_displaces_stale_entry():
    w = StationMac(owner=7, cf_slots=4)
    stale = entry(1, 3, 4, frame=0)
    w.rt.insert(stale)
    a = StationMac(owner=1, cf_slots=4)
    b = StationMac(owner=2, cf_slots=4)
    a.rt.insert(entry(0, 9, 1))
    b.rt.insert(entry(0, 9, 2))
    cr = a.build_request(2, RT)
    ca, _ = b.answer_request(cr, frame=5)
    srb, _ = a.commit_grant(ca, frame=5)
    assert srb.slots == (1,)
    inserted, displaced = w.apply_broadcast(srb, frame=5)
    assert [e.cf_slot for e in inserted] == [1]
    assert displaced == [stale]


def test_broadcast_never_displaces_own_reservation():
    # station 7 receives in slot 1; a far-off link it never heard of
    # announces the same slot and the first-hand entry must survive
    w = StationMac(owner=7, cf_slots=4)
    mine = entry(1, 6, 7, frame=0)
    w.rt.insert(mine)
    a = StationMac(owner=1, cf_slots=4)
    b = StationMac(owner=2, cf_slots=4)
    a.rt.insert(entry(0, 9, 1))
    b.rt.insert(entry(0, 9, 2))
    cr = a.build_request(2, RT)
    ca, _ = b.answer_request(cr, frame=5)
    srb, _ = a.commit_grant(ca, frame=5)
    assert srb.slots == (1,)
    inserted, displaced = w.apply_broadcast(srb, frame=5)
    assert inserted == [] and displaced == []
    assert w.rt.get(1) == mine


def test_cancel_handshake_and_bystander():
    a, b, w, *_ = play_handshake()
    cc = a.build_cancel(2, (0,))
    assert cc.kind is MsgKind.CANCEL
    ack, removed_b = b.answer_cancel(cc)
    assert ack.kind is MsgKind.CANCEL_ACK and ack.dst == 1
    assert [e.cf_slot for e in removed_b] == [0]
    # retried cancel after a lost ack: peer must stay consistent
    ack2, removed_again = b.answer_cancel(cc)
    assert removed_again == []
    assert ack2.kind is MsgKind.CANCEL_ACK
    # initiator tears down on the ack
    removed_a = a.apply_cancel(cc.slots, tx=1, rx=2)
    assert [e.cf_slot for e in removed_a] == [0]
    # bystander can act on either overheard message
    removed_w = w.apply_cancel(cc.slots, tx=cc.src, rx=cc.dst)
    assert [e.cf_slot for e in removed_w] == [0]
    assert w.rt.entries() == []


def test_cancel_validation():
    a, b, w, *_ = play_handshake()
    with pytest.raises(ValueError):
        a.build_cancel(5, (0,))  # wrong peer
    with pytest.raises(ValueError):
        a.build_cancel(2, (3,))  # empty slot
    with pytest.raises(ValueError):
        b.build_cancel(1, (0,))  # receiver does not own the reservation
    a2, b2, *_ = play_handshake(kind=DG)
    with pytest.raises(DatagramCancelError):
        a2.build_cancel(2, (0,))


def test_end_of_frame_cleanup_removes_only_datagrams():
    m = StationMac(owner=1, cf_slots=6)
    m.rt.insert(entry(0, 1, 2, RT))
    m.rt.insert(entry(1, 1, 2, DG))
    m.rt.insert(entry(2, 3, 1, DG))
    removed = m.end_of_frame_cleanup(frame=4)
    assert sorted(e.cf_slot for e in removed) == [1, 2]
    assert [e.cf_slot for e in m.rt.entries()] == [0]
    assert m.end_of_frame_cleanup(frame=5) == []


def test_backoff_window_doubles_and_caps():
    cfg = BackoffConfig()
    st = BackoffState()
    rng = random.Random(3)
    seen = []
    for _ in range(7):
        seen.append(st.window(cfg))
        st.register_failure(frame=0, rng=rng, cfg=cfg)
    assert seen == [2, 4, 8, 16, 32, 32, 32]
    assert st.attempt == 7  # capped, request never abandoned
    st.register_failure(frame=0, rng=rng, cfg=cfg)
    assert st.attempt == 7


def test_backoff_delay_bounds_and_reset():
    cfg = BackoffConfig()
    rng = random.Random(11)
    for _ in range(200):
        st = BackoffState(attempt=3)  # window 16
        nxt = st.register_failure(frame=100, rng=rng, cfg=cfg)
        assert 101 <= nxt <= 116
        assert not st.eligible(nxt - 1)
        assert st.eligible(nxt)
    # the engine resets a flow's backoff by starting a fresh state
    fresh = BackoffState()
    assert fresh.attempt == 0 and fresh.eligible(0)


def test_backoff_config_validation():
    with pytest.raises(ValueError):
        BackoffConfig(base_window=0)
    with pytest.raises(ValueError):
        BackoffConfig(base_window=8, max_window=4)
    with pytest.raises(ValueError):
        BackoffConfig(max_retries=-1)
    with pytest.raises(ValueError):
        MacConfig(contention_window=1)


def test_free_mask_conservation_under_protocol_play():
    """Random establishment/cancel interleavings never double-book a
    station's own slot and never leak one."""
    rng = random.Random(29)
    for _ in range(50):
        macs = {i: StationMac(owner=i, cf_slots=8) for i in (1, 2, 3)}
        live = []  # (initiator, peer, slots)
        for step in range(40):
            i, p = rng.sample([1, 2, 3], 2)
            if live and rng.random() < 0.4:
                who, peer, slots = live.pop(rng.randrange(len(live)))
                cc = macs[who].build_cancel(peer, slots)
                macs[peer].answer_cancel(cc)
                macs[who].apply_cancel(slots, tx=who, rx=peer)
                other = ({1, 2, 3} - {who, peer}).pop()
                macs[other].apply_cancel(slots, tx=who, rx=peer)
                continue
            try:
                cr = macs[i].build_request(p, RT)
            except NoFreeSlotsError:
                continue
            ans = macs[p].answer_request(cr, frame=step)
            if ans is None:
                continue
            ca, _ = ans
            srb, _ = macs[i].commit_grant(ca, frame=step)
            other = ({1, 2, 3} - {i, p}).pop()
            macs[other].apply_broadcast(srb, frame=step)
            live.append((i, p, ca.slots))
            # everyone agrees about every granted slot
            for s in ca.slots:
                views = {
                    (m.rt.get(s).tx, m.rt.get(s).rx) for m in macs.values()
                }
                assert views == {(i, p)}
        # after full teardown of live links, cancel the rest and verify
        for who, peer, slots in live:
            cc = macs[who].build_cancel(peer, slots)
            macs[peer].answer_cancel(cc)
            macs[who].apply_cancel(slots, tx=who, rx=peer)
            other = ({1, 2, 3} - {who, peer}).pop()
            macs[other].apply_cancel(slots, tx=who, rx=peer)
        for m in macs.values():
            assert m.rt.free_mask() == 0xFF
