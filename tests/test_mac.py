"""Reservation MAC: tables, claims, grants, handshakes, cancels, backoff."""

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


def grant_of(slots, tx, rx, kind=RT, frame=0):
    """The entries of one grant, as an accept carries them."""
    return tuple(entry(s, tx, rx, kind, frame) for s in slots)


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


def holding(owner, cf_slots, *entries):
    """A station whose table already holds `entries`."""
    m = StationMac(owner=owner, cf_slots=cf_slots)
    for e in entries:
        m.table[e.cf_slot] = e
    return m


def test_reservation_table_basics():
    m = StationMac(owner=1, cf_slots=4)
    assert mask_to_slots(m.free_mask()) == (0, 1, 2, 3)
    assert m.free_mask() == 0b1111
    inserted, displaced = m.claim(grant_of((2,), 3, 5, RT, 0))
    assert inserted == [entry(2, 3, 5)] and displaced == []
    e = inserted[0]
    assert m.table[2] is e and m.entries() == [e]
    assert m.free_mask() == 0b1011
    assert mask_to_slots(m.free_mask()) == (0, 1, 3)
    # same slot, other foreign link: newest wins, old entry reported
    inserted, displaced = m.claim(grant_of((2,), 7, 8, RT, 1))
    assert displaced == [e] and m.table[2] is inserted[0]
    assert m.apply_cancel((2,), tx=7, rx=8) == inserted
    assert m.apply_cancel((2,), tx=7, rx=8) == []
    assert m.table == {}
    with pytest.raises(ValueError):
        m.claim(grant_of((4,), 3, 5, RT, 0))  # outside the frame's CF slots
    assert m.table == {}


def test_mask_round_trip():
    assert mask_to_slots(0) == ()
    assert mask_to_slots(0b10110) == (1, 2, 4)
    m = StationMac(owner=0, cf_slots=9)
    m.claim(grant_of((0, 3, 7), 1, 2, RT, 0))
    assert mask_to_slots(m.free_mask()) == (1, 2, 4, 5, 6, 8)


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


def hear_broadcast(mac, srb):
    return mac.claim(srb.grant)


def grant(a, b, kind=RT, buffered=1, frame=0):
    """a establishes with b, each endpoint claiming where the engine's
    _hear has it claim: b on answering the request, a on hearing the
    accept. Returns the request, the accept and the broadcast, or None
    when b has no common slot."""
    cr = a.build_request(b.owner, kind, buffered_count=buffered)
    ca = b.answer_request(cr, frame)
    if ca is None:
        return None
    assert b.claim(ca.grant)[1] == []
    assert a.claim(ca.grant)[1] == []
    return cr, ca, a.broadcast_grant(ca)


def play_handshake(cf_slots=6, kind=RT, buffered=1, frame=0):
    a, b, w = (StationMac(owner=i, cf_slots=cf_slots) for i in (1, 2, 3))  # w: bystander
    cr, ca, srb = grant(a, b, kind, buffered, frame)
    inserted, displaced = hear_broadcast(w, srb)
    return a, b, w, cr, ca, srb, inserted, displaced


def test_full_establishment_handshake():
    a, b, w, cr, ca, srb, ins, disp = play_handshake()
    assert cr.kind is MsgKind.CONNECT_REQUEST and cr.dst == 2
    assert ca.kind is MsgKind.CONNECT_ACCEPT and ca.slots == (0,)
    assert srb.kind is MsgKind.RESERVATION_BROADCAST and srb.dst is None
    assert [e.rx for e in srb.grant] == [2] and srb.slots == (0,)
    # all three tables agree on slot 0
    for mac in (a, b, w):
        assert mac.entries() == [entry(0, 1, 2)]
    assert ins == [entry(0, 1, 2)] and disp == []
    # a second broadcast of the same news changes nothing
    again_ins, again_disp = hear_broadcast(w, srb)
    assert again_ins == [] and again_disp == []


def test_establishment_respects_busy_slots():
    a = holding(1, 4, entry(0, 9, 1))  # a is busy receiving in slot 0
    b = holding(2, 4, entry(1, 8, 2))  # b is busy in slot 1
    cr = a.build_request(2, RT)
    ca = b.answer_request(cr, 0)
    assert ca.slots == (2,)  # lowest common free slot


def test_answer_request_with_no_common_slot_is_silent():
    a = holding(1, 2, entry(0, 9, 1))
    b = holding(2, 2, entry(1, 8, 2))
    cr = a.build_request(2, RT)
    assert b.answer_request(cr, 0) is None
    # and the failed answer reserved nothing
    assert mask_to_slots(b.free_mask()) == (0,)


def test_build_request_requires_a_free_slot():
    a = holding(1, 1, entry(0, 9, 1))
    with pytest.raises(NoFreeSlotsError):
        a.build_request(2, RT)


def test_datagram_burst_grant_count():
    a, b, w, *_, ins, disp = play_handshake(kind=DG, buffered=3)
    for mac in (a, b, w):
        got = [e for e in mac.entries() if e.kind is DG]
        assert [e.cf_slot for e in got] == [0, 1, 2]
    assert disp == []


def foreign_grant_over(w):
    """Station 2 grants station 1 slot 1, slot 0 being busy at both; the
    broadcast that announces it reaches w."""
    a = holding(1, 4, entry(0, 9, 1))
    b = holding(2, 4, entry(0, 9, 2))
    *_, srb = grant(a, b, frame=5)
    assert srb.slots == (1,)
    return hear_broadcast(w, srb)


def test_broadcast_displaces_stale_entry():
    stale = entry(1, 3, 4, frame=0)
    w = holding(7, 4, stale)
    inserted, displaced = foreign_grant_over(w)
    assert [e.cf_slot for e in inserted] == [1]
    assert displaced == [stale]
    assert w.table[1] == entry(1, 1, 2, frame=5)


def test_broadcast_never_displaces_own_reservation():
    # station 7 receives (or sends) in slot 1; a far-off link it never
    # heard of announces the same slot and the first-hand entry survives
    for mine in (entry(1, 6, 7), entry(1, 7, 6)):
        w = holding(7, 4, mine)
        inserted, displaced = foreign_grant_over(w)
        assert inserted == [] and displaced == []
        assert w.table[1] == mine


def test_cancel_handshake_and_bystander():
    a, b, w, *_ = play_handshake()
    cc = a.build_cancel(2, (0,))
    assert cc.kind is MsgKind.CANCEL
    ack = b.answer_cancel(cc)
    assert ack.kind is MsgKind.CANCEL_ACK and ack.dst == 1 and ack.slots == (0,)
    # the peer drops the entries as every hearer of the cancel does
    removed_b = b.apply_cancel(cc.slots, tx=cc.src, rx=cc.dst)
    assert [e.cf_slot for e in removed_b] == [0]
    # retried cancel after a lost ack: peer acks again and stays consistent
    assert b.answer_cancel(cc) == ack
    assert b.apply_cancel(cc.slots, tx=cc.src, rx=cc.dst) == []
    # initiator tears down on the ack
    removed_a = a.apply_cancel(ack.slots, tx=ack.dst, rx=ack.src)
    assert [e.cf_slot for e in removed_a] == [0]
    # bystander can act on either overheard message
    removed_w = w.apply_cancel(cc.slots, tx=cc.src, rx=cc.dst)
    assert [e.cf_slot for e in removed_w] == [0]
    assert a.entries() == b.entries() == w.entries() == []


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
    # entered out of slot order: the trace's expire events follow the
    # order the entries come back in, which is ascending slot order
    m = holding(1, 6, entry(2, 3, 1, DG), entry(0, 1, 2, RT), entry(1, 1, 2, DG))
    removed = m.end_of_frame_cleanup(frame=4)
    assert sorted(e.cf_slot for e in removed) == [1, 2]
    assert [e.cf_slot for e in removed] == [1, 2]
    assert [e.cf_slot for e in m.entries()] == [0]
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

    def cancel(macs, who, peer, slots):
        cc = macs[who].build_cancel(peer, slots)
        macs[peer].answer_cancel(cc)
        for m in macs.values():  # both endpoints and the bystander
            m.apply_cancel(slots, tx=who, rx=peer)

    for _ in range(50):
        macs = {i: StationMac(owner=i, cf_slots=8) for i in (1, 2, 3)}
        live = []  # (initiator, peer, slots)
        for step in range(40):
            i, p = rng.sample([1, 2, 3], 2)
            if live and rng.random() < 0.4:
                cancel(macs, *live.pop(rng.randrange(len(live))))
                continue
            try:
                got = grant(macs[i], macs[p], frame=step)
            except NoFreeSlotsError:
                continue
            if got is None:
                continue
            _, ca, srb = got
            other = ({1, 2, 3} - {i, p}).pop()
            hear_broadcast(macs[other], srb)
            live.append((i, p, ca.slots))
            # everyone agrees about every granted slot
            for s in ca.slots:
                views = {(m.table[s].tx, m.table[s].rx) for m in macs.values()}
                assert views == {(i, p)}
        # after full teardown of live links, cancel the rest and verify
        for link in live:
            cancel(macs, *link)
        for m in macs.values():
            assert m.free_mask() == 0xFF


def random_mac(rng, owner, ids, cf_slots):
    """A station whose table holds random entries, some of them its own."""
    m = StationMac(owner=owner, cf_slots=cf_slots)
    for s in range(cf_slots):
        if rng.random() < 0.6:
            tx, rx = rng.sample(ids, 2)
            m.table[s] = entry(s, tx, rx, rng.choice([RT, DG]), frame=rng.randrange(5))
    return m


def test_claim_rules_on_random_tables():
    rng = random.Random(41)
    ids = [1, 2, 3, 4, 5, 6]
    for _ in range(400):
        cf = rng.randint(1, 10)
        owner = rng.choice(ids)
        m = random_mac(rng, owner, ids, cf)
        tx, rx = rng.sample(ids, 2)
        kind = rng.choice([RT, DG])
        frame = rng.randrange(5, 10)
        news = entry(0, tx, rx, kind, frame)

        # a claim on free slots inserts every slot and displaces nothing
        free = mask_to_slots(m.free_mask())
        some_free = tuple(sorted(rng.sample(free, rng.randint(0, len(free)))))
        inserted, displaced = m.claim(grant_of(some_free, tx, rx, kind, frame))
        assert inserted == [replace(news, cf_slot=s) for s in some_free]
        assert displaced == []

        # any claim: a first-hand slot survives a foreign one, a slot that
        # holds the same reservation is kept, any other slot takes the news
        before = dict(m.table)
        slots = tuple(sorted(rng.sample(range(cf), rng.randint(1, cf))))
        inserted, displaced = m.claim(grant_of(slots, tx, rx, kind, frame))
        kept = [
            s for s in slots
            if s in before and (
                owner in (before[s].tx, before[s].rx)
                or (before[s].tx, before[s].rx, before[s].kind) == (tx, rx, kind)
            )
        ]
        assert [e.cf_slot for e in inserted] == [s for s in slots if s not in kept]
        assert displaced == [before[e.cf_slot] for e in inserted if e.cf_slot in before]
        for s in range(cf):
            if s in kept or s not in slots:
                assert m.table.get(s) is before.get(s)
            else:
                assert m.table[s] == replace(news, cf_slot=s)
        if owner not in (tx, rx):
            for s, e in before.items():
                if owner in (e.tx, e.rx):
                    assert m.table[s] is e

        # repeating a claim changes nothing
        after = dict(m.table)
        assert m.claim(grant_of(slots, tx, rx, kind, frame + 1)) == ([], [])
        assert m.table == after


def test_message_builders_change_no_table():
    rng = random.Random(43)
    ids = [1, 2, 3, 4]
    built = 0
    for _ in range(300):
        cf = rng.randint(1, 8)
        a, b = (random_mac(rng, owner, ids, cf) for owner in (1, 2))
        tables = (dict(a.table), dict(b.table))
        try:
            cr = a.build_request(2, rng.choice([RT, DG]), rng.randint(0, cf))
        except NoFreeSlotsError:
            cr = None
        ca = b.answer_request(cr, 0) if cr else None
        if ca:
            a.broadcast_grant(ca)
            built += 1
        own = [e for e in a.entries() if e.tx == 1 and e.kind is RT]
        if own:
            peer = own[0].rx
            slots = tuple(e.cf_slot for e in own if e.rx == peer)
            b.answer_cancel(a.build_cancel(peer, slots))
            built += 1
        assert (a.table, b.table) == tables
    assert built > 100
