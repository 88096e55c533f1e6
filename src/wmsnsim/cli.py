"""Command line front end.

Subcommands:

  run       simulate one scenario and write metrics (and optionally the
            full event trace), then audit the trace
  route     list the multipath candidates and the selected path for
            every flow in a scenario
  sweep     run the same scenario across a range of seeds and collect
            per-seed metrics plus an aggregate table
  validate  check a scenario file and report every problem found

Exit status: 0 when everything ran and the headline audits passed,
2 when the simulation ran but a headline audit failed, 1 for bad
input of any kind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .audit import AuditReport, run_audits
from .engine import SimReport, Simulation
from .geometry import float_sum
from .routing import ProgressMode, rank_paths
from .scenario import Scenario, ScenarioError, from_dict
from .topology import attach_point
from .trace import trace_bytes

METRIC_COLUMNS = [
    "row_type",
    "flow_id", "class", "generated", "delivered", "delivery_ratio",
    "mean_delay_ms", "max_delay_ms", "deadline_miss_rate", "loss_rate",
    "station_id", "tx_slots", "rx_slots", "idle_slots", "sleep_slots",
    "duty_cycle",
]


class _Parser(argparse.ArgumentParser):
    # all failures, argument errors included, use exit status 1; status 2
    # is reserved for audit verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(
            f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr
        )
        return None


def _load_scenario(args) -> Scenario | None:
    data = _load_json(args.scenario)
    if data is None:
        return None
    if getattr(args, "faults", None):
        extra = _load_json(args.faults)
        if extra is None:
            return None
        if not isinstance(extra, list):
            print("error: fault file must hold a JSON list", file=sys.stderr)
            return None
        if isinstance(data, dict):
            data.setdefault("faults", [])
            if isinstance(data["faults"], list):
                data["faults"] = list(data["faults"]) + extra
    try:
        sc = from_dict(data)
    except ScenarioError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return None
    if getattr(args, "literal_progress", False):
        sc.routing = dataclasses.replace(sc.routing, progress_mode=ProgressMode.LITERAL)
    return sc


def _flow_metrics(fs) -> dict:
    """A flow's metric columns as both metrics.csv and sweep.csv write them."""
    return {
        "class": fs.service,
        "generated": fs.generated,
        "delivered": fs.delivered,
        "delivery_ratio": f"{fs.delivery_ratio:.6f}",
        "mean_delay_ms": f"{fs.mean_delay_ms:.6f}",
        "deadline_miss_rate": f"{fs.deadline_miss_rate:.6f}",
        "loss_rate": f"{fs.loss_rate:.6f}",
    }


def _write_metrics(path: str, report: SimReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS)
        w.writeheader()
        for fid in sorted(report.flows):
            fs = report.flows[fid]
            w.writerow(
                {
                    "row_type": "flow",
                    "flow_id": fid,
                    **_flow_metrics(fs),
                    "max_delay_ms": f"{fs.max_delay_ms:.6f}",
                }
            )
        for sid in sorted(report.stations):
            ss = report.stations[sid]
            w.writerow(
                {
                    "row_type": "station",
                    "station_id": sid,
                    "tx_slots": ss.tx_slots,
                    "rx_slots": ss.rx_slots,
                    "idle_slots": ss.idle_slots,
                    "sleep_slots": ss.sleep_slots,
                    "duty_cycle": f"{ss.duty_cycle:.6f}",
                }
            )


def _print_report(report: SimReport, audit: AuditReport) -> None:
    lay = report.layout
    print(f"frames: {report.frames} (frame length {lay.frame_len_ms:.3f} ms)")
    for fid in sorted(report.flows):
        fs = report.flows[fid]
        print(
            f"flow {fid} [{fs.service}] generated={fs.generated} "
            f"delivered={fs.delivered} ratio={fs.delivery_ratio:.3f} "
            f"mean_delay={fs.mean_delay_ms:.2f}ms max={fs.max_delay_ms:.2f}ms "
            f"miss={fs.deadline_miss_rate:.4f} loss={fs.loss_rate:.4f}"
        )
    energy = float_sum(s.energy for s in report.stations.values())
    print(
        f"stations: {len(report.stations)} total_energy={energy:.2f} "
        f"control_collisions={report.control_collisions} "
        f"data_collisions={report.data_collisions} "
        f"wasted_slots={report.wasted_slots}"
    )
    for v in audit.verdicts():
        mark = "PASS" if v.passed else "FAIL"
        line = f"audit: {v.name} {mark} (checked={v.checked}"
        if not v.passed:
            line += f", violations={v.violation_count}"
        print(line + ")")
    print(f"trace digest: {report.trace_digest}")


def _run_once(sc: Scenario, seed: int, out_dir: str, want_trace: bool):
    sim = Simulation(sc, seed=seed)
    report, trace = sim.run()
    audit = run_audits(
        trace,
        sim.net,
        slotting_enabled=sc.mac.slotting_enabled,
        interference_multiplier=sc.channel.interference_multiplier,
    )
    os.makedirs(out_dir, exist_ok=True)
    _write_metrics(os.path.join(out_dir, "metrics.csv"), report)
    if want_trace:
        with open(os.path.join(out_dir, "trace.jsonl"), "wb") as fh:
            fh.write(trace_bytes(trace))
    return report, audit


def _cmd_run(args) -> int:
    sc = _load_scenario(args)
    if sc is None:
        return 1
    report, audit = _run_once(sc, args.seed, args.out, args.trace)
    print(f"scenario: {args.scenario}")
    print(f"seed: {args.seed}")
    _print_report(report, audit)
    return 0 if audit.headline_passed else 2


def _cmd_route(args) -> int:
    sc = _load_scenario(args)
    if sc is None:
        return 1
    net = sc.build_network()
    status = 0
    for flow in sorted(sc.flows, key=lambda f: f.id):
        origin = attach_point(net, flow.src)
        if origin != flow.src:
            print(f"flow {flow.id}: {flow.src} attaches at cluster head {origin}")
        if origin == flow.dst:
            print(f"flow {flow.id}: source attaches at its destination")
            continue
        scored = rank_paths(net, origin, flow.dst, sc.routing)
        if not scored:
            print(f"flow {flow.id}: no route from {origin} to {flow.dst}")
            status = max(status, 1)
            continue
        print(f"flow {flow.id}: {origin} -> {flow.dst} ({len(scored)} paths)")
        for i, ps in enumerate(scored):
            mark = "*" if i == 0 else " "
            hops = "-".join(str(h) for h in ps.path.hops)
            print(
                f"  {mark} {hops} mean_deviation={ps.mean_deviation:.3f} "
                f"hops={ps.path.hop_count}"
            )
    return status


def _cmd_sweep(args) -> int:
    if args.seeds < 1:
        # no seed run would pass as "every audit passed"
        print(f"error: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return 1
    sc = _load_scenario(args)
    if sc is None:
        return 1
    os.makedirs(args.out, exist_ok=True)
    status = 0
    rows = []
    for seed in range(args.seeds):
        out_dir = os.path.join(args.out, f"seed-{seed}")
        report, audit = _run_once(sc, seed, out_dir, want_trace=False)
        if not audit.headline_passed:
            status = 2
        for fid in sorted(report.flows):
            rows.append(
                {
                    "seed": seed,
                    "flow_id": fid,
                    **_flow_metrics(report.flows[fid]),
                    "control_collisions": report.control_collisions,
                    "data_collisions": report.data_collisions,
                    "wasted_slots": report.wasted_slots,
                    "audits": "pass" if audit.headline_passed else "fail",
                    "trace_digest": report.trace_digest,
                }
            )
        print(
            f"seed {seed}: "
            + " ".join(
                f"flow{fid}={report.flows[fid].delivery_ratio:.3f}"
                for fid in sorted(report.flows)
            )
            + (" [audit fail]" if not audit.headline_passed else "")
        )
    table = os.path.join(args.out, "sweep.csv")
    with open(table, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(
            fh,
            fieldnames=[
                "seed", "flow_id", "class", "generated", "delivered",
                "delivery_ratio", "mean_delay_ms", "deadline_miss_rate",
                "loss_rate", "control_collisions", "data_collisions", "wasted_slots",
                "audits", "trace_digest",
            ],
        )
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {table}")
    return status


def _cmd_validate(args) -> int:
    data = _load_json(args.scenario)
    if data is None:
        return 1
    try:
        sc = from_dict(data)
    except ScenarioError as exc:
        for issue in exc.issues:
            print(str(issue))
        print(f"{len(exc.issues)} problem(s) found")
        return 1
    print(
        f"ok: {len(sc.stations)} stations, {len(sc.flows)} flows, "
        f"{sc.horizon_frames} frames"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wmsnsim", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, faults=True):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument(
            "--literal-progress", action="store_true",
            help="require progress relative to the source instead of the holder",
        )
        if faults:
            sp.add_argument(
                "--faults", help="JSON list of extra fault injections to merge"
            )

    sp = sub.add_parser("run", help="simulate one scenario")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument(
        "--trace", action="store_true", help="also write the full event trace"
    )
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("route", help="show multipath candidates per flow")
    common(sp, faults=False)
    sp.set_defaults(func=_cmd_route)

    sp = sub.add_parser("sweep", help="run several seeds")
    common(sp)
    sp.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1")
    sp.add_argument("--out", default="out", help="output directory")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("validate", help="check a scenario file")
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    sp.set_defaults(func=_cmd_validate)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
