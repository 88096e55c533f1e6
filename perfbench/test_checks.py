"""Tests of the benchmark's own output checks, tracer and timing.

    python3 -m pytest perfbench/test_checks.py

A tampered digest, a broken packet count, a digest that moves between
runs of one seed and a raising run must each make a failed operation.
The tracer must leave the simulated behaviour, and after uninstalling
the wmsnsim namespace, exactly as it found them. The host-speed sampler
must take its units out of the clock.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import operation  # noqa: E402
import tracing  # noqa: E402
import hostspeed  # noqa: E402
from wmsnsim import engine  # noqa: E402
from workloads import line_mixed  # noqa: E402

DATA = line_mixed(12)  # the churn workload, cut to a dozen frames


def attempt(tmp_path, expected=None):
    return operation.attempt(DATA, 0, str(tmp_path), expected)


def test_clean_operation_passes_and_repeats(tmp_path):
    first = attempt(tmp_path)
    assert not first.failed, first.problems
    again = attempt(tmp_path, first.stats["trace_digest"])
    assert not again.failed, again.problems
    assert again.stats == first.stats


def test_tampered_digest_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "trace_digest", lambda events: "0" * 64)
    out = attempt(tmp_path)
    assert out.failed
    assert any("sha256 of trace.jsonl" in p for p in out.problems), out.problems


def test_tampered_trace_file_is_a_failed_operation(tmp_path, monkeypatch):
    real = operation.write_outputs

    def write_then_tamper(out_dir, report, trace):
        real(out_dir, report, trace)
        with open(Path(out_dir) / operation.TRACE_FILE, "a", encoding="utf-8") as fh:
            fh.write("\n")

    monkeypatch.setattr(operation, "write_outputs", write_then_tamper)
    out = attempt(tmp_path)
    assert out.failed
    assert any("sha256 of trace.jsonl" in p for p in out.problems), out.problems


def test_broken_packet_count_is_a_failed_operation(tmp_path, monkeypatch):
    real = engine.Simulation._report

    def lose_one_packet(self):
        report = real(self)
        report.flows[min(report.flows)].delivered -= 1
        return report

    monkeypatch.setattr(engine.Simulation, "_report", lose_one_packet)
    out = attempt(tmp_path)
    assert out.failed
    assert any("generated" in p for p in out.problems), out.problems


def test_digest_that_moves_between_runs_is_a_failed_operation(tmp_path):
    out = attempt(tmp_path, expected="f" * 64)
    assert out.failed
    assert any("earlier run with the same seed" in p for p in out.problems), out.problems


def test_run_alone_on_a_snapshot_repeats_the_operation(tmp_path):
    first = operation.attempt(DATA, 0, str(tmp_path), None, keep=True)
    assert not first.failed, first.problems
    blob = first.live[3]
    digest = first.stats["trace_digest"]
    again = operation.attempt_run(blob, digest)
    assert not again.failed, again.problems
    assert set(again.times) == {"run_s"}
    assert again.spans["run"][1] - again.spans["run"][0] == again.times["run_s"]
    moved = operation.attempt_run(blob, "f" * 64)
    assert moved.failed
    assert any("earlier run with the same seed" in p for p in moved.problems), moved.problems


def test_raising_run_is_a_failed_operation(tmp_path, monkeypatch):
    def crash(self):
        raise KeyError(15)

    monkeypatch.setattr(engine.Simulation, "run", crash)
    out = attempt(tmp_path)
    assert out.failed
    assert out.problems == ["raised KeyError: 15"]


def test_tracing_changes_no_behaviour_and_uninstalls(tmp_path):
    before = {(owner, attr): vars(owner).get(attr) for owner, attr, _, _ in tracing._TARGETS}
    plain = attempt(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = attempt(tmp_path, plain.stats["trace_digest"])
    finally:
        tracer.uninstall()
    assert not traced.failed, traced.problems
    assert traced.stats == plain.stats
    assert {(owner, attr): vars(owner).get(attr) for owner, attr, _, _ in tracing._TARGETS} == before

    layers = tracing.layer_metrics(tracer, traced.stats)
    assert layers["engine.events"][0] == sum(plain.stats["events"].values())
    assert layers["routing.paths_found"][0] > 0
    assert layers["engine.cfp_self_s"][0] > 0.0


def test_sampler_takes_units_and_leaves_them_out_of_the_clock():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with hostspeed.Sampler() as host:
        wall0, clock0 = time.perf_counter(), hostspeed.clock()
        busy(0.3)
        wall, timed = time.perf_counter() - wall0, hostspeed.clock() - clock0
    assert len(host.units) >= 5
    assert all(u > 0.0 for u in host.units)
    assert timed < wall
    assert abs((wall - timed) - sum(host.units)) < 0.2 * sum(host.units)
    # stopped: the clock runs with perf_counter again
    n = len(host.units)
    busy(0.1)
    assert len(host.units) == n
