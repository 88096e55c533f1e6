"""Command line entry points: run, route, sweep, validate."""

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

import helpers
from wmsnsim import Simulation, discover, engine, from_dict, trace_digest
from wmsnsim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_metrics_and_trace(tmp_path, capsys):
    path = write_scenario(tmp_path, helpers.two_hop(horizon=40))
    out = tmp_path / "out"
    rc = main(
        ["run", "--scenario", path, "--seed", "3", "--out", str(out), "--trace"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "flow 1 [CBR]" in printed
    assert "audit: table_agreement PASS" in printed
    assert "trace digest: " in printed

    rows = read_csv(out / "metrics.csv")
    flow_rows = [r for r in rows if r["row_type"] == "flow"]
    station_rows = [r for r in rows if r["row_type"] == "station"]
    assert len(flow_rows) == 1 and len(station_rows) == 3
    assert flow_rows[0]["class"] == "CBR"
    assert float(flow_rows[0]["delivery_ratio"]) > 0.9
    assert {r["station_id"] for r in station_rows} == {"1", "2", "9"}

    # the written trace digests to the value the report printed, both
    # as bytes and as parsed events
    digest = printed.split("trace digest: ")[1].split()[0]
    assert hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest() == digest
    events = [
        json.loads(line)
        for line in (out / "trace.jsonl").read_text().splitlines()
    ]
    assert trace_digest(events) == digest


def test_run_trace_serialises_each_event_once(tmp_path, monkeypatch):
    data = helpers.two_hop(horizon=40)
    events = len(Simulation(from_dict(data), seed=0).run()[1])
    made = helpers.record_trace_lines(monkeypatch)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", write_scenario(tmp_path, data), "--out", str(out), "--trace"])
    assert rc == 0
    assert (out / "trace.jsonl").read_bytes().count(b"\n") == events
    assert len(made) == events


def test_run_exit_code_reflects_headline_audits(tmp_path):
    # hidden-terminal collisions break a headline audit: exit 2
    path = write_scenario(tmp_path, helpers.hidden_terminal())
    rc = main(["run", "--scenario", path, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_prints_the_total_energy_of_a_bench_workload(tmp_path, capsys):
    # the stations' energies are added left to right (geometry.float_sum):
    # sum() compensates from Python 3.12 on, so its last digits, and the
    # printed total, would depend on the interpreter
    path = write_scenario(tmp_path, WORKLOADS["grid10-route"]())
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("stations: ")] == [
        "stations: 101 total_energy=42725.65 control_collisions=8 data_collisions=0 "
        "wasted_slots=1005"
    ]


def test_run_merges_fault_file(tmp_path, capsys):
    path = write_scenario(tmp_path, helpers.two_hop(horizon=30))
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"kind": "CR", "frame": 0, "sender": 1}]))
    rc = main(
        [
            "run", "--scenario", path, "--faults", str(faults),
            "--out", str(tmp_path / "o"), "--trace",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "o" / "trace.jsonl").read_text().splitlines()
    drops = [json.loads(l) for l in lines if "control_fault_drop" in l]
    assert drops and drops[0]["frame"] == 0 and drops[0]["station"] == 1


def deviation_tie():
    # every relay sits 3 off the source-sink line, so all nine paths tie
    # on deviation and the hop count, then the hop order, decide
    tau = 2 * math.pi
    relays = [(1, 7.0, 3.0), (2, 14.0, 3.0), (3, 10.0, -3.0), (4, 10.0, 3.0)]
    stations = [helpers.ch(0, 0.0, 0.0, alpha=tau, reach=12.0)]
    stations += [helpers.ch(i, x, y, alpha=tau, reach=12.0) for i, x, y in relays]
    stations.append(helpers.bs(9, 20.0, 0.0))
    return helpers.base(stations, flows=[helpers.flow(1, 0, 9)])


def test_route_lists_scored_paths(tmp_path, capsys):
    cases = [
        (helpers.two_hop(), "flow 1: 1 -> 9 (1 paths)", "1-2-9 mean_deviation=0.000"),
        (deviation_tie(), "flow 1: 0 -> 9 (9 paths)", "0-3-9 mean_deviation=3.000"),
    ]
    for data, header, best in cases:
        path = write_scenario(tmp_path, data)
        assert main(["route", "--scenario", path]) == 0
        outp = capsys.readouterr().out
        assert header in outp
        assert f"* {best}" in outp  # the selected path is marked
        # the listing ranks paths as the simulation selects them
        sc = from_dict(data)
        (fl,) = sc.flows
        chosen = discover(sc.build_network(), fl.src, fl.dst, sc.routing)
        assert best.split()[0] == "-".join(map(str, chosen.path.hops))


def test_route_reports_flows_with_no_data_link_path(tmp_path, capsys):
    path = write_scenario(tmp_path, helpers.short_radio_grid())
    assert main(["route", "--scenario", path]) == 1
    outp = capsys.readouterr().out
    unrouted = {f"flow {k}: no route from {6 * (k - 1)} to 100" for k in (1, 2, 6)}
    assert {line for line in outp.splitlines() if "no route" in line} == unrouted
    assert "flow 3: 12 -> 100" in outp


def dogleg():
    # one intermediate sits off the source-sink line: hopping to it moves
    # away from the sink in straight-line distance but still advances the
    # projection onto the line, so only literal mode admits the long path
    tau = 2 * math.pi
    stations = [
        helpers.ch(0, 0.0, 0.0, alpha=tau, reach=12.0),
        helpers.ch(1, 10.0, 0.0, alpha=tau, reach=12.0),
        helpers.ch(2, 11.0, 5.0, alpha=tau, reach=12.0),
        helpers.bs(9, 20.0, 0.0),
    ]
    return helpers.base(stations, flows=[helpers.flow(1, 0, 9)])


def test_route_literal_progress_flag(tmp_path, capsys):
    path = write_scenario(tmp_path, dogleg())
    assert main(["route", "--scenario", path]) == 0
    greedy_out = capsys.readouterr().out
    assert "(1 paths)" in greedy_out
    assert "* 0-1-9" in greedy_out

    assert main(["route", "--scenario", path, "--literal-progress"]) == 0
    literal_out = capsys.readouterr().out
    assert "(2 paths)" in literal_out
    assert "0-1-2-9" in literal_out


def test_sweep_writes_per_seed_and_summary(tmp_path, capsys):
    path = write_scenario(tmp_path, helpers.two_hop(horizon=40))
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", path, "--seeds", "3", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "seed 0:" in printed and "seed 2:" in printed
    for k in range(3):
        assert (out / f"seed-{k}" / "metrics.csv").exists()
    summary = read_csv(out / "sweep.csv")
    assert len(summary) == 3  # one flow, three seeds
    assert {r["seed"] for r in summary} == {"0", "1", "2"}
    sc = from_dict(helpers.two_hop(horizon=40))
    for r in summary:
        assert r["audits"] == "pass"
        assert float(r["delivery_ratio"]) > 0.9
        report, _ = Simulation(sc, int(r["seed"])).run()
        assert r["trace_digest"] == report.trace_digest
        # the run's slot counts, on each of its flow rows
        assert int(r["control_collisions"]) == report.control_collisions
        assert int(r["data_collisions"]) == report.data_collisions
        assert int(r["wasted_slots"]) == report.wasted_slots


def test_sweep_flow_values_equal_each_seeds_metrics(tmp_path, capsys):
    path = write_scenario(tmp_path, helpers.mixed_traffic(horizon=40))
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", path, "--seeds", "2", "--out", str(out)]) == 0
    summary = read_csv(out / "sweep.csv")
    assert len(summary) == 6  # three flows, two seeds
    for row in summary:
        metrics = {
            m["flow_id"]: m for m in read_csv(out / f"seed-{row['seed']}" / "metrics.csv")
            if m["row_type"] == "flow"
        }[row["flow_id"]]
        shared = row.keys() & metrics.keys()
        assert shared >= {
            "class", "generated", "delivered", "delivery_ratio", "mean_delay_ms",
            "deadline_miss_rate", "loss_rate",
        }
        for key in shared:
            assert row[key] == metrics[key], (row["seed"], row["flow_id"], key)


def test_sweep_exit_code_reflects_worst_seed(tmp_path, capsys):
    # hidden-terminal collisions fail a headline audit on every seed
    path = write_scenario(tmp_path, helpers.hidden_terminal())
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", path, "--seeds", "2", "--out", str(out)])
    assert rc == 2
    rows = read_csv(out / "sweep.csv")
    assert all(r["audits"] == "fail" for r in rows)
    sc = from_dict(helpers.hidden_terminal())
    for r in rows:
        report, _ = Simulation(sc, int(r["seed"])).run()
        assert int(r["control_collisions"]) == report.control_collisions > 0


def test_sweep_rejects_fewer_than_one_seed(tmp_path, capsys):
    # a sweep that ran nothing must not exit 0, which says every audit passed
    path = write_scenario(tmp_path, helpers.two_hop(horizon=10))
    for n in ("0", "-2"):
        out = tmp_path / f"sw{n}"
        assert main(["sweep", "--scenario", path, "--seeds", n, "--out", str(out)]) == 1
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_validate_ok_and_failure(tmp_path, capsys):
    good = write_scenario(tmp_path, helpers.two_hop(), "good.json")
    assert main(["validate", "--scenario", good]) == 0
    assert "ok: 3 stations" in capsys.readouterr().out

    bad_data = helpers.two_hop()
    bad_data["grid"]["rp_modulus"] = 5
    bad_data["flows"][0]["class"] = "XYZ"
    bad = write_scenario(tmp_path, bad_data, "bad.json")
    assert main(["validate", "--scenario", bad]) == 1
    outp = capsys.readouterr().out
    assert "E_RP_MODULUS" in outp and "E_UNKNOWN_CLASS" in outp
    assert "2 problem(s) found" in outp

    # once printed ok, then run died in attach_point with a traceback
    orphan = write_scenario(tmp_path, helpers.sensor_without_cluster_head(), "orphan.json")
    assert main(["validate", "--scenario", orphan]) == 1
    assert "E_FLOW_ENDPOINTS at flows[0].src" in capsys.readouterr().out
    assert main(["run", "--scenario", orphan, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert "error: E_FLOW_ENDPOINTS at flows[0].src" in err
    assert "Traceback" not in out + err


def test_validate_reports_non_finite_numbers_and_bad_modes(tmp_path, capsys):
    # each passed validate and then made Simulation raise, or raised inside
    # validate itself
    cases = [
        (("grid", "cell_width"), math.nan, "E_BAD_VALUE at grid.cell_width"),
        (("channel", "interference_multiplier"), math.nan,
         "E_BAD_VALUE at channel.interference_multiplier"),
        (("stations", 1, "position"), [math.nan, 50.0], "E_SCHEMA at stations[1].position"),
        (("flows", 2, "mode"), "bogus", "E_BAD_SERVICE_MODE at flows[2].mode"),
    ]
    for (*parents, last), value, want in cases:
        data = helpers.mixed_traffic()
        target = data
        for part in parents:
            target = target[part] if isinstance(target, list) else target.setdefault(part, {})
        target[last] = value
        path = write_scenario(tmp_path, data)  # json writes NaN as NaN
        assert main(["validate", "--scenario", path]) == 1
        outp = capsys.readouterr().out
        assert want in outp
        assert "1 problem(s) found" in outp


def test_validate_reports_integers_too_large_to_play(tmp_path, capsys):
    # rp_slots 10**30 once passed validate and the run never finished;
    # cf_slots 10**400 passed and Simulation raised OverflowError, and
    # horizons up to 2**53 frames passed
    cases = [
        (("horizon_frames",), 10**6 + 1, "E_BAD_VALUE at $.horizon_frames"),
        (("horizon_frames",), 2**53, "E_BAD_VALUE at $.horizon_frames"),
        (("frame", "rp_slots"), 10**30, "E_BAD_VALUE at frame.rp_slots"),
        (("frame", "cf_slots"), 10**400, "E_BAD_VALUE at frame.cf_slots"),
        (("frame", "cf_slots"), 1025, "E_BAD_VALUE at frame.cf_slots"),
        (("flows", 0, "packet_size_bits"), 10**400,
         "E_BAD_VALUE at flows[0].packet_size_bits"),
    ]
    for (*parents, last), value, want in cases:
        data = helpers.mixed_traffic()
        target = data
        for part in parents:
            target = target[part] if isinstance(target, list) else target.setdefault(part, {})
        target[last] = value
        path = write_scenario(tmp_path, data)
        assert main(["validate", "--scenario", path]) == 1
        out, err = capsys.readouterr()
        assert want in out
        assert "1 problem(s) found" in out
        assert "Traceback" not in out + err


def test_missing_file_and_bad_usage_exit_one(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 1
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["run"])  # --scenario is required
    assert ei.value.code == 1


def test_broken_json_exits_one(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", "--scenario", str(p)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "broken.json:1:2" in err


def test_run_audits_against_the_auditors_own_rp_schedule(tmp_path, capsys, monkeypatch):
    # an engine that assigns every cluster head the next RP slot; audited
    # against the engine's own map, rp_slot_discipline passed
    real = engine.my_rp_slot
    monkeypatch.setattr(
        engine, "my_rp_slot", lambda station, spec, on=True: (real(station, spec, on) + 1) % 11
    )
    path = write_scenario(tmp_path, helpers.two_hop(horizon=20))
    main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
    assert "audit: rp_slot_discipline FAIL (checked=2, violations=2)" in capsys.readouterr().out
