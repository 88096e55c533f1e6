"""wmsnsim benchmark.

    python3 perfbench/run.py --workload grid6-cbr --seed 0 --seconds 42 --trace 0

Runs one workload in this process, single-threaded, repeating whole
operations (see operation.py) for about --seconds seconds, with short
steps also repeated alone. Each operation and each run repeated alone
is checked; one that raises or fails a check counts as failed. All
through an untraced run a timer interrupts it every few hundredths of a
second for a fixed reference unit of work that measures the host's speed
(hostspeed.py); the timings leave the units out. With --trace 0 it
reports the end-to-end metrics: the median set-up time and the mean
times of the other steps, each scaled to a host where one reference
unit takes REF_NOMINAL_S (see `scale`). With --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones plus the tracing overhead, unscaled.
`--workload all` runs every workload, each in its own process, one after
another, and prints one table.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it record the
run's simulated statistics and the unscaled samples. All timings are
host time; README.md in this directory explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_OPS = 3  # whole operations per untraced run, whatever --seconds says
MIN_PAIRS = 2  # untraced + traced operation pairs per traced run
PHASE_SHARE = 0.1  # share of an operation's time for set-up-only, and for audit-only, samples
RUN_SHARE = 0.3  # share of an operation's time for run-only samples
# Seconds of one reference unit on the host the metrics are scaled to,
# about its mean on the 2-CPU host this was written on in a fast spell
REF_NOMINAL_S = 0.001
TRACED_REF_UNITS = 50  # reference units after each pair of a traced run

clock = hostspeed.clock


def _load_program():
    """Import wmsnsim from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "wmsnsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no wmsnsim package at {pkg}; run from a wmsnsim checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import wmsnsim

    if Path(wmsnsim.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported wmsnsim from {wmsnsim.__file__}, not {pkg}")


def scale(units: list[float]) -> float:
    """Factor from host seconds to seconds on a host where one reference
    unit takes REF_NOMINAL_S, from the units that interrupted the timed
    work: they slow down as the host does, and the program cannot move
    them (see hostspeed.py)."""
    return REF_NOMINAL_S / statistics.fmean(units)


def _summary(values: list[float]) -> dict:
    return {
        "n": len(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_reps(fn, budget: float, estimate: float, collect: bool = False) -> list[tuple]:
    """(start, end) on the clock of each call of fn, repeated while the
    next call, taking `estimate` seconds, would end within `budget`
    seconds of the first. With collect, the garbage collector runs
    before each call, untimed."""
    out = []
    start = clock()
    while clock() - start + estimate <= budget:
        if collect:
            gc.collect()
        t0 = clock()
        fn()
        out.append((t0, clock()))
    return out


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Untraced run. Returns (metrics, outcomes, info)."""
    import operation  # imports wmsnsim, so only after _load_program

    data = WORKLOADS[workload]()
    out_dir = str(OUT / workload)

    def run_reps(blob, budget: float, estimate: float) -> None:
        start = clock()
        while clock() - start + estimate <= budget:
            o = operation.attempt_run(blob, digest)
            outcomes.append(o)
            if not o.failed:
                spans["run"].append(o.spans["run"])

    # Set-up, run and audit are each repeated alone after every operation,
    # for a share of its time, so that a step that is short next to a
    # whole operation still gets samples. Spread over the run like this,
    # those samples see the same host as the operations do.
    outcomes = []
    operations = 0
    totals = []
    spans = {"setup": [], "run": [], "audit": [], "total": []}
    digest = None
    blob = None
    with hostspeed.Sampler() as host:
        deadline = clock() + seconds
        while True:
            t_cycle = clock()
            gc.collect()
            o = operation.attempt(data, seed, out_dir, digest, keep=True)
            outcomes.append(o)
            operations += 1
            if digest is None and o.stats is not None:
                digest = o.stats["trace_digest"]
            if o.live is not None:
                sc, sim, trace, blob = o.live
                o.live = None
                budget = PHASE_SHARE * o.times["total_s"]
                totals.append(o.times["total_s"])
                for step in ("setup", "run", "audit"):
                    spans[step].append(o.spans[step])
                spans["total"] += o.spans.values()
                spans["audit"] += timed_reps(
                    lambda: operation.run_audit(sc, sim, trace), budget, o.times["audit_s"]
                )
                del sc, sim, trace
                spans["setup"] += timed_reps(
                    lambda: operation.setup(data, seed), budget, o.times["setup_s"], collect=True
                )
                run_reps(blob, RUN_SHARE * o.times["total_s"], o.times["run_s"])
            now = clock()
            if operations >= MIN_OPS and now + (now - t_cycle) > deadline:
                break
        # The time left, too short for another operation, goes to runs alone.
        if spans["run"]:
            run_s = statistics.median(b - a for a, b in spans["run"])
            run_reps(blob, deadline - clock(), run_s)

    # Each step's times are scaled by the units that interrupted that
    # step's samples; setup_s is the median of its samples, the other
    # times are means.
    samples = {step: [b - a for a, b in spans[step]] for step in ("setup", "run", "audit")}
    samples["total"] = totals
    k = {step: scale(host.units_within(spans[step]) or host.units) for step in spans}
    metrics = {}
    if totals:
        metrics["setup_s"] = _metric(k["setup"] * statistics.median(samples["setup"]), "s")
        metrics["frames_per_s"] = _metric(
            data["horizon_frames"] * len(samples["run"]) / (k["run"] * math.fsum(samples["run"])),
            "frames/s",
        )
        metrics["audit_s"] = _metric(k["audit"] * statistics.fmean(samples["audit"]), "s")
        metrics["total_s"] = _metric(k["total"] * statistics.fmean(totals), "s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = _metric(peak, "MB")
    samples["reference_unit"] = host.units
    info = {
        "operations": operations,
        "scale": k,
        "unscaled_samples": {f"{name}_s": _summary(v) for name, v in samples.items() if v},
    }
    return metrics, outcomes, info


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Traced run: untraced and traced operations alternate. Returns
    (per-layer metrics, outcomes, info)."""
    import operation
    import tracing

    data = WORKLOADS[workload]()
    out_dir = str(OUT / workload)

    outcomes = []
    plain_totals, traced_totals, layers = [], [], []
    digest = None
    units = []
    deadline = clock() + seconds
    while True:
        gc.collect()
        t0 = clock()
        o = operation.attempt(data, seed, out_dir, digest)
        outcomes.append(o)
        if digest is None and o.stats is not None:
            digest = o.stats["trace_digest"]
        if not o.failed:
            plain_totals.append(o.times["total_s"])

        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            o = operation.attempt(data, seed, out_dir, digest)
        finally:
            tracer.uninstall()
        outcomes.append(o)
        if not o.failed:
            traced_totals.append(o.times["total_s"])
            layers.append(tracing.layer_metrics(tracer, o.stats))
        del tracer
        units += [hostspeed.unit() for _ in range(TRACED_REF_UNITS)]
        pair_s = clock() - t0
        if len(outcomes) >= 2 * MIN_PAIRS and clock() + pair_s > deadline:
            break

    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            vals = [m[name][0] for m in layers if name in m]
            metrics[name] = _metric(statistics.median(vals), unit)
    if plain_totals and traced_totals:
        overhead = statistics.median(traced_totals) - statistics.median(plain_totals)
        metrics["bench.tracing_overhead_s"] = _metric(overhead, "s")
    metrics["bench.reference_unit_s"] = _metric(statistics.fmean(units), "s")
    info = {
        "unscaled_samples": {
            "untraced_total_s": _summary(plain_totals) if plain_totals else None,
            "traced_total_s": _summary(traced_totals) if traced_totals else None,
            "reference_unit_s": _summary(units),
        }
    }
    return metrics, outcomes, info


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    _load_program()
    if traced:
        metrics, outcomes, info = measure_traced(workload, seed, seconds)
    else:
        metrics, outcomes, info = measure(workload, seed, seconds)

    failed = [o for o in outcomes if o.failed]
    stats = next((o.stats for o in outcomes if o.stats is not None), None)
    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        **info,
        "problems": sorted({p for o in failed for p in o.problems})[:20],
        "model": "unvalidated: the repository holds no reference results",
        "simulated": stats,
    }, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} checked: {len(outcomes)} attempted (operations and runs alone), "
          f"{len(failed)} failed")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload, each in its own child process, one at a time."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, check=False, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with status {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, m in one["metrics"].items():
            result["metrics"][f"{name}:{metric}"] = m
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="wmsnsim benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
