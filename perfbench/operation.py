"""One benchmark operation and the checks on its outputs.

An operation is what `wmsnsim run --trace --out DIR` does for one
scenario and seed, made through the same public calls: `from_dict`,
`Simulation(sc, seed)`, `.run()`, `run_audits(...)`, then
`serialize_trace` written to `trace.jsonl` plus the per-flow and
per-station metrics rows. The operation only takes timestamps between
those calls. Every call goes through its module attribute, so the traced
run can wrap it (see tracing.py) without a second code path here.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import os
import pickle
from collections import Counter
from dataclasses import dataclass, field

from hostspeed import clock
from wmsnsim import audit as audit_mod
from wmsnsim import engine as engine_mod
from wmsnsim import scenario as scenario_mod


TRACE_FILE = "trace.jsonl"
METRICS_FILE = "metrics.csv"

_FLOW_COLUMNS = [
    "row_type", "flow_id", "class", "generated", "delivered",
    "dropped_collision", "dropped_deadline", "dropped_overflow",
    "queued_at_end", "mean_delay_ms", "max_delay_ms",
]
_STATION_COLUMNS = [
    "row_type", "station_id", "tx_slots", "rx_slots", "idle_slots",
    "sleep_slots", "energy", "duty_cycle",
]


def write_outputs(out_dir: str, report, trace: list[dict]) -> None:
    """Write trace.jsonl and metrics.csv, as `wmsnsim run --trace` does."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, METRICS_FILE), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_FLOW_COLUMNS)
        for fid in sorted(report.flows):
            fs = report.flows[fid]
            w.writerow([
                "flow", fid, fs.service, fs.generated, fs.delivered,
                fs.dropped_collision, fs.dropped_deadline, fs.dropped_overflow,
                fs.queued_at_end, f"{fs.mean_delay_ms:.6f}", f"{fs.max_delay_ms:.6f}",
            ])
        w.writerow(_STATION_COLUMNS)
        for sid in sorted(report.stations):
            ss = report.stations[sid]
            w.writerow([
                "station", sid, ss.tx_slots, ss.rx_slots, ss.idle_slots,
                ss.sleep_slots, f"{ss.energy:.6f}", f"{ss.duty_cycle:.6f}",
            ])
    with open(os.path.join(out_dir, TRACE_FILE), "w", encoding="utf-8") as fh:
        fh.write(engine_mod.serialize_trace(trace))


def setup(data: dict, seed: int):
    """Scenario dict to a constructed Simulation: parse, network, link
    tables and route discovery."""
    sc = scenario_mod.from_dict(data)
    return sc, engine_mod.Simulation(sc, seed)


def run_audit(sc, sim, trace: list[dict]):
    """The audit `wmsnsim run` makes of a run's trace."""
    return audit_mod.run_audits(
        trace,
        sim.net,
        rp_slot_map=sim.rp_slot_map,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )


def run_operation(data: dict, seed: int, out_dir: str, snapshot: bool = False):
    """One whole operation. Returns (phase seconds, phase spans, scenario,
    simulation, report, trace, audit, snapshot); a span is the phase's
    (start, end) on the clock. With snapshot, the constructed Simulation
    is pickled before it runs, outside the timed phases, so that its run
    can be repeated (see run_snapshot); otherwise the snapshot is None."""
    t0 = clock()
    sc, sim = setup(data, seed)
    t1 = clock()
    blob = pickle.dumps(sim) if snapshot else None
    t1_run = clock()
    untimed = t1_run - t1
    report, trace = sim.run()
    t2 = clock()
    audit = run_audit(sc, sim, trace)
    t3 = clock()
    write_outputs(out_dir, report, trace)
    t4 = clock()
    times = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1 - untimed,
        "audit_s": t3 - t2,
        "write_s": t4 - t3,
        "total_s": t4 - t0 - untimed,
    }
    spans = {"setup": (t0, t1), "run": (t1_run, t2), "audit": (t2, t3), "write": (t3, t4)}
    return times, spans, sc, sim, report, trace, audit, blob


def run_snapshot(blob: bytes):
    """Step 3 alone, on a fresh copy of a constructed Simulation. Returns
    ((start, end) of .run() on the clock, report); only the run is timed,
    and the garbage collector runs before it."""
    sim = pickle.loads(blob)
    gc.collect()
    t0 = clock()
    report, _ = sim.run()
    return (t0, clock()), report


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(report, out_dir: str, expected_digest: str | None) -> list[str]:
    """Problems with one operation's outputs; empty when it is correct.

    expected_digest is the digest an earlier operation of the same
    scenario and seed produced, or None for the first one.
    """
    problems = report_problems(report, expected_digest)
    written = file_sha256(os.path.join(out_dir, TRACE_FILE))
    if written != report.trace_digest:
        problems.append(
            f"trace digest {report.trace_digest} != sha256 of {TRACE_FILE} {written}"
        )
    return problems


def report_problems(report, expected_digest: str | None) -> list[str]:
    """The checks on a report alone: packet balance per flow and the
    digest against an earlier run of the same scenario and seed."""
    problems = []
    for fid in sorted(report.flows):
        fs = report.flows[fid]
        accounted = (
            fs.delivered + fs.dropped_collision + fs.dropped_deadline
            + fs.dropped_overflow + fs.queued_at_end
        )
        if fs.generated != accounted:
            problems.append(
                f"flow {fid}: generated {fs.generated} != {accounted} "
                "delivered + dropped + queued"
            )
    if expected_digest is not None and report.trace_digest != expected_digest:
        problems.append(
            f"trace digest {report.trace_digest} differs from {expected_digest} "
            "of an earlier run with the same seed"
        )
    return problems


def simulated_stats(report, trace: list[dict], audit, out_dir: str) -> dict:
    """Deterministic simulated quantities of one run, recorded so that a
    later change can show which of them it moved."""
    control = Counter(
        f'{e["event"]}.{e["detail"]["kind"]}'
        for e in trace
        if e["event"] in ("control_tx", "control_fault_drop")
    )
    flows = {}
    for fid in sorted(report.flows):
        fs = report.flows[fid]
        flows[str(fid)] = {
            "class": fs.service,
            "generated": fs.generated,
            "delivered": fs.delivered,
            "dropped_collision": fs.dropped_collision,
            "dropped_deadline": fs.dropped_deadline,
            "dropped_overflow": fs.dropped_overflow,
            "queued_at_end": fs.queued_at_end,
            "mean_delay_ms": fs.mean_delay_ms,
            "max_delay_ms": fs.max_delay_ms,
        }
    return {
        "trace_digest": report.trace_digest,
        "frames": report.frames,
        "flows": flows,
        "control_collisions": report.control_collisions,
        "data_collisions": report.data_collisions,
        "wasted_slots": report.wasted_slots,
        "audits": {
            v.name: {"passed": v.passed, "checked": v.checked, "violations": v.violation_count}
            for v in audit.verdicts()
        },
        "events": dict(sorted(Counter(e["event"] for e in trace).items())),
        "control_messages": dict(sorted(control.items())),
        "trace_bytes": os.path.getsize(os.path.join(out_dir, TRACE_FILE)),
    }


@dataclass
class Outcome:
    """What the benchmark keeps of one attempted operation."""

    times: dict[str, float] = field(default_factory=dict)
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    stats: dict | None = None
    # (scenario, simulation, trace, snapshot), kept only when asked for,
    # so that the audit can be repeated on the same trace and the run on
    # a copy of the same constructed Simulation
    live: tuple | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def attempt(data: dict, seed: int, out_dir: str, expected_digest: str | None,
            keep: bool = False) -> Outcome:
    """Run and check one operation. An exception or a failed check makes
    it a failed operation. With keep, a correct operation's scenario,
    simulation, trace and snapshot stay in the outcome's `live`."""
    try:
        times, spans, sc, sim, report, trace, audit, blob = run_operation(
            data, seed, out_dir, snapshot=keep
        )
    except Exception as exc:  # a raising run is a failed operation, not a crash
        return Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
    out = Outcome(
        times=times, spans=spans, problems=check_outputs(report, out_dir, expected_digest)
    )
    out.stats = simulated_stats(report, trace, audit, out_dir)
    if keep and not out.failed:
        out.live = (sc, sim, trace, blob)
    return out


def attempt_run(blob: bytes, expected_digest: str | None) -> Outcome:
    """Repeat and check step 3 of an operation on a copy of its snapshot.
    The outcome's times and spans hold only the run."""
    try:
        (t0, t1), report = run_snapshot(blob)
    except Exception as exc:  # as in attempt
        return Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
    return Outcome(
        times={"run_s": t1 - t0}, spans={"run": (t0, t1)},
        problems=report_problems(report, expected_digest),
    )
