"""Scenario files: strict validation, issue collection, round-trips."""

import copy
import json
import math
from pathlib import Path

import pytest

import helpers
from wmsnsim import Scenario, ScenarioError, from_dict, parse_scenario, to_dict
from wmsnsim.geometry import GridSpec, Point, grid_of, rp_slot_of


def codes(exc_info):
    return [i.code for i in exc_info.value.issues]


def expect(data, *want):
    with pytest.raises(ScenarioError) as ei:
        from_dict(data)
    got = codes(ei)
    for code in want:
        assert code in got, f"wanted {code} in {got}"
    return ei.value.issues


def test_minimal_scenario_parses():
    sc = from_dict(helpers.two_hop())
    assert len(sc.stations) == 3
    assert sc.sink == 9
    assert sc.grid.rp_modulus == 11
    assert sc.layout.rp_slots == 11 and sc.layout.cf_slots == 20
    assert len(sc.flows) == 1
    assert sc.flows[0].service.name == "CBR"
    net = sc.build_network()
    assert net.sink == 9
    assert net.ids() == (1, 2, 9)


def test_unknown_keys_rejected_everywhere():
    d = helpers.two_hop()
    d["bogus"] = 1
    d["stations"][0]["extra"] = True
    d["flows"][0]["rate"] = 5
    issues = expect(d, "E_UNKNOWN_KEY")
    paths = [i.path for i in issues if i.code == "E_UNKNOWN_KEY"]
    assert len(paths) == 3


def test_schema_type_errors():
    d = helpers.two_hop()
    d["horizon_frames"] = "twenty"
    d["stations"][0]["position"] = [1.0]
    expect(d, "E_SCHEMA")


def test_non_finite_station_numbers_are_flagged():
    # json.load reads NaN and Infinity; a NaN position once raised a bare
    # ValueError out of from_dict
    d = helpers.two_hop()
    d["stations"][1]["position"] = [math.nan, 50.0]
    d["stations"][0]["rf_range"] = math.inf
    d["stations"][2]["rf_range"] = 10**400  # past float range
    issues = expect(d, "E_SCHEMA", "E_BAD_VALUE")
    assert {(i.code, i.path) for i in issues} == {
        ("E_SCHEMA", "stations[1].position"),
        ("E_BAD_VALUE", "stations[0].rf_range"),
        ("E_BAD_VALUE", "stations[2].rf_range"),
    }


def test_rp_modulus_floor():
    d = helpers.two_hop()
    d["grid"]["rp_modulus"] = 9
    expect(d, "E_RP_MODULUS")


def test_rp_modulus_above_rp_slots_is_rejected_while_slotting():
    d = helpers.grid(6, flows=helpers.grid_flows(6, 6))
    # at 17 the slot formula hands 13 of the 36 heads a slot past the
    # frame's 11 RP slots, which the engine never plays
    spec = GridSpec(rp_modulus=17)
    starved = sum(
        rp_slot_of(grid_of(Point(*s["position"]), spec), spec) >= 11
        for s in d["stations"] if s["kind"] == "cluster_head"
    )
    assert starved == 13
    for modulus in (12, 13, 17):
        d["grid"]["rp_modulus"] = modulus
        issues = expect(d, "E_RP_MODULUS")
        assert {(i.code, i.path) for i in issues} == {("E_RP_MODULUS", "grid.rp_modulus")}

    d["frame"]["rp_slots"] = 17
    assert from_dict(d).grid.rp_modulus == 17
    # without slotting every station uses RP slot 0, so the modulus is moot
    d = helpers.grid(6, flows=helpers.grid_flows(6, 6), slotting=False)
    d["grid"]["rp_modulus"] = 17
    assert from_dict(d).grid.rp_modulus == 17


def test_station_kind_and_sector_rules():
    d = helpers.two_hop()
    d["stations"][0]["kind"] = "relay"
    expect(d, "E_BAD_KIND")

    d = helpers.two_hop()
    del d["stations"][0]["sector"]
    expect(d, "E_MISSING_SECTOR")

    d = helpers.two_hop()
    d["stations"][2]["sector"] = {"theta": 0, "alpha": 1, "range": 5}
    expect(d, "E_SECTOR_FIELDS")


def test_station_and_flow_uniqueness():
    d = helpers.two_hop()
    d["stations"].append(dict(d["stations"][0]))
    expect(d, "E_DUP_STATION")

    d = helpers.two_hop()
    d["flows"].append(dict(d["flows"][0]))
    expect(d, "E_DUP_FLOW")


def test_base_station_count():
    d = helpers.two_hop()
    d["stations"] = [s for s in d["stations"] if s["kind"] != "base_station"]
    expect(d, "E_NO_BASE_STATION")

    d = helpers.two_hop()
    d["stations"].append(helpers.bs(10, 400, 50))
    expect(d, "E_MULTI_BASE_STATION")


def test_flow_class_mode_and_endpoint_rules():
    d = helpers.two_hop()
    d["flows"][0]["class"] = "VBR"
    expect(d, "E_UNKNOWN_CLASS")

    d = helpers.two_hop()
    d["flows"][0]["mode"] = "strict"
    expect(d, "E_BAD_SERVICE_MODE")

    # a service mode on a best-effort class is meaningless
    d = helpers.two_hop()
    d["flows"][0].update({"class": "ABR", "mode": "bonded", "rate_bps": 2_000_000})
    expect(d, "E_BAD_SERVICE_MODE")

    # an unknown mode on a datagram class is one issue, not a crash
    d = helpers.mixed_traffic()
    d["flows"][2]["mode"] = "bogus"
    issues = expect(d, "E_BAD_SERVICE_MODE")
    assert [(i.code, i.path) for i in issues] == [("E_BAD_SERVICE_MODE", "flows[2].mode")]

    d = helpers.two_hop()
    d["flows"][0]["src"] = 77
    expect(d, "E_UNKNOWN_STATION")

    d = helpers.two_hop()
    d["flows"][0]["dst"] = d["flows"][0]["src"]
    expect(d, "E_FLOW_ENDPOINTS")

    # the base station only receives
    d = helpers.two_hop()
    d["flows"][0].update({"src": 9, "dst": 1})
    expect(d, "E_FLOW_ENDPOINTS")

    # a sensor's traffic enters the mesh at a cluster head; with none to
    # attach to, the engine raised on a scenario that validated
    d = helpers.sensor_without_cluster_head()
    issues = expect(d, "E_FLOW_ENDPOINTS")
    assert [(i.code, i.path) for i in issues] == [("E_FLOW_ENDPOINTS", "flows[0].src")]

    d = helpers.two_hop()
    d["flows"][0]["rate_bps"] = 1.0
    expect(d, "E_RATE_OUT_OF_CLASS")


def test_fault_validation():
    d = helpers.two_hop(faults=[{"kind": "CR", "frame": 0, "sender": 1}])
    sc = from_dict(d)
    assert sc.faults[0].kind == "CR"

    d = helpers.two_hop(faults=[{"kind": "NACK", "frame": 0, "sender": 1}])
    expect(d, "E_BAD_FAULT_KIND")

    d = helpers.two_hop(faults=[{"kind": "CR", "frame": -1, "sender": 1}])
    expect(d, "E_BAD_VALUE")

    d = helpers.two_hop(faults=[{"kind": "CR", "frame": 0, "sender": 55}])
    expect(d, "E_UNKNOWN_STATION")


def test_all_issues_collected_in_one_pass():
    d = helpers.two_hop()
    d["grid"]["rp_modulus"] = 3
    d["flows"][0]["class"] = "VBR"
    d["stations"][0]["kind"] = "relay"
    d["junk"] = {}
    with pytest.raises(ScenarioError) as ei:
        from_dict(d)
    got = set(codes(ei))
    assert {"E_RP_MODULUS", "E_UNKNOWN_CLASS", "E_BAD_KIND", "E_UNKNOWN_KEY"} <= got
    assert len(ei.value.issues) >= 4


CONFIG_SECTIONS = ("grid", "frame", "routing", "mac", "energy", "channel")

# Every config key away from its default; rp_modulus stays within rp_slots.
NON_DEFAULT_CONFIG = {
    "grid": {
        "cell_width": 80.0, "cell_height": 120.0, "origin": [5.0, -5.0],
        "rp_modulus": 13,
    },
    "frame": {
        "rp_slots": 16, "cf_slots": 24, "rp_slot_len_ms": 0.3, "cf_slot_len_ms": 0.6,
    },
    "routing": {
        "progress_mode": "literal", "hop_budget": 6, "max_paths": 8,
        "deviation_mode": True, "deviation_angle": 1.25,
    },
    "mac": {
        "slotting_enabled": False, "contention_window": 16,
        "backoff": {"base_window": 3, "max_window": 24, "max_retries": 5},
    },
    "energy": {"tx": 2.0, "rx": 1.0, "idle": 0.25, "sleep": 0.02},
    "channel": {"interference_multiplier": 2.5},
}


def test_round_trip_preserves_everything():
    d = helpers.grid(3, flows=helpers.grid_flows(3, 2))
    d["faults"] = [{"kind": "SRB", "frame": 4, "sender": 0}]
    d.update(copy.deepcopy(NON_DEFAULT_CONFIG))
    sc = from_dict(d)
    assert from_dict(to_dict(sc)) == sc
    out = to_dict(sc)
    defaults = to_dict(from_dict(helpers.base(d["stations"])))
    for section in CONFIG_SECTIONS:
        assert out[section] == NON_DEFAULT_CONFIG[section]
        assert list(out[section]) == list(NON_DEFAULT_CONFIG[section])
        for key, value in out[section].items():
            if isinstance(value, dict):
                for sub, v in value.items():
                    assert v != defaults[section][key][sub], f"{section}.{key}.{sub}"
            else:
                assert value != defaults[section][key], f"{section}.{key}"
    assert sc.routing.progress_mode.value == "literal"
    assert sc.mac.contention_window == 16
    assert sc.mac.backoff.max_retries == 5
    assert sc.energy.tx == 2.0
    assert sc.channel.interference_multiplier == 2.5


def test_readme_scenario_sections_round_trip_unchanged():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```json\n", 1)[1]
    data = json.loads(block.split("```", 1)[0])
    out = to_dict(from_dict(data))
    for section in CONFIG_SECTIONS:
        assert json.dumps(out[section]) == json.dumps(data[section]), section


# (dotted key, value, {(code, path)}): one bad value per config key, the
# nested backoff section, a null hop budget, each section as a non-object,
# and integers too large to play or to hold exactly in a float.
BAD_CONFIG_CASES = [
    ("grid.cell_width", "wide", {("E_BAD_VALUE", "grid.cell_width")}),
    ("grid.cell_width", 0, {("E_BAD_VALUE", "grid")}),
    ("grid.cell_width", math.nan, {("E_BAD_VALUE", "grid.cell_width")}),
    ("grid.cell_height", True, {("E_BAD_VALUE", "grid.cell_height")}),
    ("grid.cell_height", -5.0, {("E_BAD_VALUE", "grid")}),
    ("grid.origin", [1.0], {("E_SCHEMA", "grid.origin")}),
    ("grid.origin", "here", {("E_SCHEMA", "grid.origin")}),
    ("grid.origin", [0.0, math.inf], {("E_SCHEMA", "grid.origin")}),
    ("grid.rp_modulus", 11.5, {("E_BAD_VALUE", "grid.rp_modulus")}),
    ("grid.rp_modulus", 9, {("E_RP_MODULUS", "grid.rp_modulus")}),
    ("grid.bogus", 1, {("E_UNKNOWN_KEY", "grid.bogus")}),
    ("frame.rp_slots", "many", {("E_BAD_VALUE", "frame.rp_slots")}),
    ("frame.rp_slots", 10, {("E_BAD_VALUE", "frame")}),
    ("frame.cf_slots", 2.5, {("E_BAD_VALUE", "frame.cf_slots")}),
    ("frame.cf_slots", 0, {("E_BAD_VALUE", "frame")}),
    ("frame.rp_slots", 10**30, {("E_BAD_VALUE", "frame.rp_slots")}),
    ("frame.cf_slots", 10**400, {("E_BAD_VALUE", "frame.cf_slots")}),
    ("frame.cf_slots", 1025, {("E_BAD_VALUE", "frame.cf_slots")}),
    ("horizon_frames", 10**6 + 1, {("E_BAD_VALUE", "$.horizon_frames")}),
    ("horizon_frames", 2**53, {("E_BAD_VALUE", "$.horizon_frames")}),
    ("flows.0.packet_size_bits", 10**400, {("E_BAD_VALUE", "flows[0].packet_size_bits")}),
    ("frame.rp_slot_len_ms", None, {("E_BAD_VALUE", "frame.rp_slot_len_ms")}),
    ("frame.rp_slot_len_ms", 0.0, {("E_BAD_VALUE", "frame")}),
    ("frame.cf_slot_len_ms", [0.5], {("E_BAD_VALUE", "frame.cf_slot_len_ms")}),
    ("frame.cf_slot_len_ms", -0.5, {("E_BAD_VALUE", "frame")}),
    ("routing.progress_mode", 3, {("E_BAD_VALUE", "routing.progress_mode")}),
    ("routing.progress_mode", "sideways", {("E_BAD_VALUE", "routing.progress_mode")}),
    ("routing.hop_budget", "ten", {("E_BAD_VALUE", "routing.hop_budget")}),
    ("routing.hop_budget", 0, {("E_BAD_VALUE", "routing")}),
    ("routing.hop_budget", None, set()),
    ("routing.max_paths", 1.5, {("E_BAD_VALUE", "routing.max_paths")}),
    ("routing.max_paths", 0, {("E_BAD_VALUE", "routing")}),
    ("routing.deviation_mode", "yes", {("E_BAD_VALUE", "routing.deviation_mode")}),
    ("routing.deviation_angle", "wide", {("E_BAD_VALUE", "routing.deviation_angle")}),
    ("routing.deviation_angle", 0.0, {("E_BAD_VALUE", "routing")}),
    ("mac.slotting_enabled", 1, {("E_BAD_VALUE", "mac.slotting_enabled")}),
    ("mac.contention_window", "eight", {("E_BAD_VALUE", "mac.contention_window")}),
    ("mac.contention_window", 1, {("E_BAD_VALUE", "mac")}),
    ("mac.backoff", [], {("E_SCHEMA", "mac.backoff")}),
    ("mac.backoff", {"base_window": "two"}, {("E_BAD_VALUE", "mac.backoff.base_window")}),
    ("mac.backoff", {"base_window": 0}, {("E_BAD_VALUE", "mac.backoff")}),
    ("mac.backoff", {"max_window": 1}, {("E_BAD_VALUE", "mac.backoff")}),
    ("mac.backoff", {"max_retries": 2.5}, {("E_BAD_VALUE", "mac.backoff.max_retries")}),
    ("mac.backoff", {"max_retries": -1}, {("E_BAD_VALUE", "mac.backoff")}),
    ("mac.backoff", {"retries": 3}, {("E_UNKNOWN_KEY", "mac.backoff.retries")}),
    ("energy.tx", "high", {("E_BAD_VALUE", "energy.tx")}),
    ("energy.tx", -1.0, {("E_BAD_VALUE", "energy")}),
    ("energy.rx", False, {("E_BAD_VALUE", "energy.rx")}),
    ("energy.rx", -0.1, {("E_BAD_VALUE", "energy")}),
    ("energy.idle", "x", {("E_BAD_VALUE", "energy.idle")}),
    ("energy.idle", -2, {("E_BAD_VALUE", "energy")}),
    ("energy.sleep", {}, {("E_BAD_VALUE", "energy.sleep")}),
    ("energy.sleep", -0.01, {("E_BAD_VALUE", "energy")}),
    ("channel.interference_multiplier", "2",
     {("E_BAD_VALUE", "channel.interference_multiplier")}),
    ("channel.interference_multiplier", 0.5, {("E_BAD_VALUE", "channel")}),
    ("channel.interference_multiplier", math.nan,
     {("E_BAD_VALUE", "channel.interference_multiplier")}),
    ("channel.bogus", 1, {("E_UNKNOWN_KEY", "channel.bogus")}),
] + [(section, [1], {("E_SCHEMA", section)}) for section in CONFIG_SECTIONS]


def case_id(key, value):
    text = repr(value)
    return f"{key}={text}" if len(text) <= 40 else f"{key}={len(text)}-digit"


@pytest.mark.parametrize(
    "key, value, want", BAD_CONFIG_CASES,
    ids=[case_id(k, v) for k, v, _ in BAD_CONFIG_CASES],
)
def test_bad_config_value_flags_its_code_and_path(key, value, want):
    d = helpers.two_hop()
    *parents, last = key.split(".")
    target = d
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target.setdefault(part, {})
    target[last] = value
    try:
        from_dict(d)
        got = set()
    except ScenarioError as exc:
        got = {(i.code, i.path) for i in exc.issues}
    assert got == want


def test_defaults_fill_optional_sections():
    sc = from_dict(helpers.two_hop())
    assert sc.routing.max_paths == 16
    assert sc.mac.slotting_enabled
    assert sc.mac.backoff.max_retries == 7
    assert sc.energy.tx == 1.0 and sc.energy.sleep == 0.01
    assert sc.channel.interference_multiplier == 1.0


def test_parse_scenario_reads_files(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(json.dumps(helpers.two_hop()))
    sc = parse_scenario(str(p))
    assert sc.sink == 9

    bad = tmp_path / "broken.json"
    bad.write_text("{\n  \"stations\": [,]\n}")
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(str(bad))
    assert codes(ei) == ["E_PARSE"]
    # the path pins the failure to file, line, and column
    assert ei.value.issues[0].path.endswith("broken.json:2:16")


def test_original_dict_is_not_mutated():
    d = helpers.two_hop()
    snapshot = copy.deepcopy(d)
    from_dict(d)
    assert d == snapshot
