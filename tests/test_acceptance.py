"""Shipping gate: the eleven release criteria, one test and one printed
PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdict lines (pytest -rA shows the printed details as well). Each test
gathers every defect into a list before asserting so the verdict line
always states the full picture.
"""

import math
import random
import time

import helpers
from test_routing import GRID, make_bs, omni_ch, oracle_paths, random_net
from wmsnsim import (
    GridCell,
    GridSpec,
    Path,
    Network,
    ProgressMode,
    RouteConfig,
    Simulation,
    collect_paths,
    discover,
    from_dict,
    rp_slot_of,
    run_audits,
    run_simulation,
    score_path,
    serialize_trace,
    trace_digest,
)


def finish(label, problems, detail=""):
    tag = "PASS" if not problems else "FAIL"
    line = f"acceptance {label}: {tag}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not problems, f"{label}: " + "; ".join(problems)


def audited(data, seed=0):
    sc = from_dict(data)
    sim = Simulation(sc, seed=seed)
    report, trace = sim.run()
    audit = run_audits(
        trace,
        sim.net,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )
    return report, trace, audit


def count(trace, name):
    return sum(1 for e in trace if e["event"] == name)


def test_a01_schedule_slot_unique_across_every_5x5_neighborhood():
    spec = GridSpec(cell_width=100.0, cell_height=100.0, rp_modulus=11)
    offsets = [
        (dx, dy)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if (dx, dy) != (0, 0)
    ]
    t0 = time.perf_counter()
    slots = {
        (gx, gy): rp_slot_of(GridCell(gx, gy), spec)
        for gx in range(-52, 53)
        for gy in range(-52, 53)
    }
    clashes = sum(
        1
        for gx in range(-50, 51)
        for gy in range(-50, 51)
        for dx, dy in offsets
        if slots[(gx + dx, gy + dy)] == slots[(gx, gy)]
    )
    elapsed = time.perf_counter() - t0

    problems = []
    if clashes:
        problems.append(f"{clashes} neighboring cells share a slot")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    finish(
        "01 schedule-slot uniqueness",
        problems,
        f"10201 base cells x 24 offsets, {elapsed:.2f}s",
    )


def test_a02_route_enumeration_and_selection_match_exhaustive_search():
    problems = []
    paths_seen = 0
    routable = 0
    t0 = time.perf_counter()
    for seed in range(100):
        rng = random.Random(9000 + seed)
        net = random_net(rng)
        budget = len(net.ids())
        mode = ProgressMode.GREEDY if seed % 2 == 0 else ProgressMode.LITERAL
        cfg = RouteConfig(progress_mode=mode, max_paths=100_000)
        got = {p.hops for p in collect_paths(net, 0, 99, cfg)}
        want = oracle_paths(net, 0, 99, budget, mode)
        paths_seen += len(want)
        if got != want:
            problems.append(f"seed {seed}: enumeration mismatch ({mode.name})")
            continue

        best = discover(net, 0, 99, RouteConfig(max_paths=100_000))
        greedy = (
            want
            if mode is ProgressMode.GREEDY
            else oracle_paths(net, 0, 99, budget, ProgressMode.GREEDY)
        )
        if not greedy:
            if best is not None:
                problems.append(f"seed {seed}: found a path where none exists")
            continue
        routable += 1
        scored = [score_path(net, Path(h)) for h in sorted(greedy)]
        target = min(
            scored,
            key=lambda s: (s.mean_deviation, s.path.hop_count, s.path.hops),
        )
        if best.path.hops != target.path.hops:
            problems.append(
                f"seed {seed}: picked {best.path.hops}, minimum is "
                f"{target.path.hops}"
            )
    elapsed = time.perf_counter() - t0
    if routable < 20:
        problems.append(f"only {routable} routable layouts, selection undertested")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    finish(
        "02 routing oracle equivalence",
        problems,
        f"100 layouts, {paths_seen} oracle paths, {routable} routable, "
        f"{elapsed:.1f}s",
    )


def test_a03_deviation_score_is_mean_distance_to_reference_line():
    straight = Network(
        [
            omni_ch(0, 0.0, 0.0, 50.0),
            omni_ch(1, 10.0, 10.0, 50.0),
            omni_ch(2, 20.0, 20.0, 50.0),
            make_bs(9, 30.0, 30.0),
        ],
        sink=9,
        grid_spec=GRID,
    )
    collinear = score_path(straight, Path((0, 1, 2, 9)))

    worked = Network(
        [
            omni_ch(0, 0.0, 0.0, 50.0),
            omni_ch(1, 10.0, 3.0, 50.0),
            omni_ch(2, 20.0, -4.0, 50.0),
            omni_ch(3, 30.0, 1.0, 50.0),
            make_bs(9, 40.0, 0.0),
        ],
        sink=9,
        grid_spec=GRID,
    )
    hand = score_path(worked, Path((0, 1, 2, 3, 9)))

    problems = []
    if any(d > 1e-9 for d in collinear.intermediate_deviations):
        problems.append(
            f"collinear deviations {collinear.intermediate_deviations}"
        )
    if collinear.mean_deviation > 1e-9:
        problems.append(f"collinear mean {collinear.mean_deviation!r}")
    if abs(hand.mean_deviation - 8.0 / 3.0) > 1e-12:
        problems.append(f"worked mean {hand.mean_deviation!r}, want 8/3")
    for got, want in zip(hand.intermediate_deviations, (3.0, 4.0, 1.0)):
        if abs(got - want) > 1e-12:
            problems.append(f"deviation {got!r}, want {want}")
    finish(
        "03 path deviation scoring",
        problems,
        "collinear tol 1e-9, worked example (3+4+1)/3 tol 1e-12",
    )


def test_a04_compliant_slotting_keeps_control_traffic_collision_free():
    scenario = helpers.grid(5, flows=helpers.grid_flows(5, count=3), horizon=200)
    t0 = time.perf_counter()
    _, trace, audit = audited(scenario)
    pos_elapsed = time.perf_counter() - t0

    off = helpers.grid(
        5, flows=helpers.grid_flows(5, count=3), horizon=200, slotting=False
    )
    t0 = time.perf_counter()
    _, off_trace, off_audit = audited(off)
    neg_elapsed = time.perf_counter() - t0

    problems = []
    collisions = count(trace, "control_collision")
    if collisions:
        problems.append(f"{collisions} control collisions under compliant slotting")
    if not audit.control_collision_free.passed:
        problems.append("collision-free audit failed on the compliant run")
    if count(trace, "handshake_complete") < 3:
        problems.append("compliant run produced almost no control traffic")
    off_collisions = count(off_trace, "control_collision")
    if off_collisions == 0:
        problems.append("disabling slotting produced no control collisions")
    if off_audit.control_collision_free.passed:
        problems.append("collision-free audit missed the non-compliant run")
    if pos_elapsed >= 10.0 or neg_elapsed >= 10.0:
        problems.append(
            f"took {pos_elapsed:.1f}s/{neg_elapsed:.1f}s, budget 10s each"
        )
    finish(
        "04 grid slotting protects control messages",
        problems,
        f"25 cluster heads, 200 frames, 0 vs {off_collisions} collisions, "
        f"{pos_elapsed:.1f}s/{neg_elapsed:.1f}s",
    )


def test_a05_tables_agree_after_handshakes_and_lost_broadcasts_flag():
    flows = helpers.grid_flows(5, count=3)
    _, _, clean = audited(helpers.grid(5, flows=flows, horizon=200))

    faulted = helpers.grid(
        5,
        flows=flows,
        horizon=60,
        faults=[{"kind": "SRB", "frame": 0, "sender": 0}],
    )
    _, _, broken = audited(faulted)

    problems = []
    if not clean.table_agreement.passed:
        problems.append("agreement audit failed on the lossless run")
    if clean.table_agreement.checked == 0:
        problems.append("agreement audit checked nothing")
    if broken.table_agreement.passed:
        problems.append("dropped broadcast went unnoticed")
    bad_frames = {v["frame"] for v in broken.table_agreement.violations}
    if bad_frames != {0}:
        problems.append(f"violations at frames {sorted(bad_frames)}, want only 0")
    finish(
        "05 reservation tables agree in common range",
        problems,
        f"{clean.table_agreement.checked} listener checks clean, "
        f"broadcast drop flagged at frame 0",
    )


def test_a06_hidden_terminal_collides_within_bounded_hop_distance():
    _, trace, audit = audited(helpers.hidden_terminal())

    problems = []
    collisions = [e for e in trace if e["event"] == "control_collision"]
    if not collisions:
        problems.append("hidden terminals never collided")
    else:
        first = collisions[0]
        if first["station"] != 3:
            problems.append(f"first collision at station {first['station']}, want 3")
        if sorted(first["detail"]["senders"]) != [1, 2]:
            problems.append(f"colliding senders {first['detail']['senders']}")
    if not audit.interferer_hop_bound.passed:
        problems.append("hop-distance bound failed")
    if audit.interferer_hop_bound.checked < 1:
        problems.append("hop-distance bound never exercised")
    finish(
        "06 interferers sit within four hops",
        problems,
        f"{len(collisions)} collisions at the shared receiver, "
        f"{audit.interferer_hop_bound.checked} sender pairs within [1,4] hops",
    )


def test_a07_consistent_reservations_imply_zero_data_collisions():
    problems = []
    consistent_runs = 0
    t0 = time.perf_counter()
    cases = [(helpers.contention(horizon=50), s) for s in range(25)]
    cases += [
        (helpers.grid(3, flows=helpers.grid_flows(3, count=2), horizon=60), s)
        for s in range(25)
    ]
    for data, seed in cases:
        _, trace, audit = audited(data, seed=seed)
        if not audit.rt_consistency.passed:
            problems.append(f"seed {seed}: consistency audit failed")
            continue
        consistent_runs += 1
        collisions = count(trace, "data_collision")
        if collisions:
            problems.append(
                f"seed {seed}: {collisions} data collisions despite consistency"
            )
    elapsed = time.perf_counter() - t0
    if consistent_runs < 50:
        problems.append(f"only {consistent_runs}/50 runs checked the property")
    finish(
        "07 consistency forbids data collisions",
        problems,
        f"{consistent_runs} consistent runs across 50 seeds, {elapsed:.1f}s",
    )


def test_a08_datagram_entries_expire_and_realtime_entries_persist():
    _, trace, audit = audited(helpers.mixed_traffic())

    problems = []
    kinds = {
        e["detail"]["kind"]
        for e in trace
        if e["event"] == "handshake_complete"
    }
    if kinds != {"real_time", "datagram"}:
        problems.append(f"handshake kinds {sorted(kinds)}, need both service types")
    if not audit.datagram_expiry.passed:
        problems.append("a datagram reservation survived its frame")
    if audit.datagram_expiry.checked == 0:
        problems.append("expiry audit checked nothing")
    if not audit.realtime_persistence.passed:
        problems.append("a real-time reservation vanished before cancellation")
    if audit.realtime_persistence.checked == 0:
        problems.append("persistence audit checked nothing")
    finish(
        "08 per-frame expiry vs connection persistence",
        problems,
        f"{audit.datagram_expiry.checked} frame boundaries, "
        f"{audit.realtime_persistence.checked} persistence checks",
    )


def test_a09_voice_flow_meets_its_delay_bound():
    report, _, _ = audited(helpers.two_hop(horizon=200))
    voice = report.flows[1]

    starved_faults = [{"kind": "CR", "frame": f, "sender": 1} for f in range(9)]
    starved_report, _ = run_simulation(
        from_dict(helpers.two_hop(horizon=200, faults=starved_faults)), seed=0
    )
    starved = starved_report.flows[1]

    problems = []
    if voice.delivery_ratio < 0.99:
        problems.append(f"delivery ratio {voice.delivery_ratio:.4f} < 0.99")
    if voice.dropped_deadline:
        problems.append(f"{voice.dropped_deadline} deadline misses on idle path")
    if voice.max_delay_ms > 60.0:
        problems.append(f"max delay {voice.max_delay_ms:.1f}ms > 60ms bound")
    if starved.dropped_deadline == 0:
        problems.append("starvation produced no deadline drops")
    if starved.max_delay_ms > 60.0:
        problems.append(
            f"starved run delivered late: {starved.max_delay_ms:.1f}ms"
        )
    if starved.delivered == 0:
        problems.append("starved flow never recovered")
    finish(
        "09 voice deadline conformance",
        problems,
        f"idle path {voice.delivery_ratio:.3f} delivered, "
        f"max {voice.max_delay_ms:.1f}ms; starved run dropped "
        f"{starved.dropped_deadline} late packets, delivered none late",
    )


def test_a10_reservation_free_station_sleeps_the_whole_data_period():
    frames = 50
    report, _ = run_simulation(from_dict(helpers.grid(2, horizon=frames)), seed=0)

    problems = []
    target = 11.0 / 31.0
    for sid in (0, 1, 2, 3):
        st = report.stations[sid]
        if st.sleep_slots != 20 * frames:
            problems.append(
                f"station {sid} slept {st.sleep_slots}, want {20 * frames}"
            )
        if abs(st.duty_cycle - target) > 1e-12:
            problems.append(
                f"station {sid} duty {st.duty_cycle!r}, want 11/31"
            )
    finish(
        "10 idle stations sleep through the data period",
        problems,
        f"4 stations x {frames} frames, duty 11/31 within 1e-12",
    )


def test_a11_same_seed_reproduces_and_seeds_differentiate_backoff():
    base = helpers.two_hop(horizon=60)
    _, first = run_simulation(from_dict(base), seed=7)
    _, second = run_simulation(from_dict(base), seed=7)

    problems = []
    if serialize_trace(first) != serialize_trace(second):
        problems.append("same seed produced different traces")
    if trace_digest(first) != trace_digest(second):
        problems.append("same seed produced different digests")

    digests = set()
    backoff_runs = set()
    for seed in range(10):
        _, trace = run_simulation(from_dict(helpers.contention()), seed=seed)
        digests.add(trace_digest(trace))
        backoff_runs.add(
            tuple(
                (e["frame"], e["station"], e["detail"]["attempt"])
                for e in trace
                if e["event"] == "backoff"
            )
        )
    if len(digests) < 2:
        problems.append("ten seeds produced identical contention traces")
    if len(backoff_runs) < 2:
        problems.append("ten seeds produced identical backoff outcomes")
    finish(
        "11 deterministic replay",
        problems,
        f"replay byte-identical; {len(digests)} distinct traces and "
        f"{len(backoff_runs)} distinct backoff outcomes over 10 seeds",
    )
