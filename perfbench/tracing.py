"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions and methods of wmsnsim in the module
namespace where they are looked up, and of the benchmark's own
operation. Nothing inside src/ changes. A layer boundary called up to
tens of thousands of times per operation records a span (name, start,
end, parent) and its self time is derived from the spans afterwards.
A leaf called up to millions of times is either counted only or timed
into a running total that is charged to the enclosing span, so that
keeping every call as a span does not dominate memory and self time.

A wrapped name that a later version of wmsnsim no longer has is skipped,
and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from wmsnsim import audit, engine, mac, routing, scenario, traffic

import operation

clock = time.perf_counter

# (owner, attribute, kind, name). kind: "span" records every call,
# "leaf" sums its time into the enclosing span, "count" only counts.
_TARGETS = [
    (operation, "run_operation", "span", "operation"),
    (scenario, "from_dict", "span", "scenario.from_dict"),
    (engine.Simulation, "__init__", "span", "engine.setup"),
    (engine, "discover", "span", "routing.discover"),
    (routing, "collect_paths", "span", "routing.collect_paths"),
    (routing, "next_hop_candidates", "count", "routing.next_hop_candidates"),
    (routing, "forward_probe", "count", "routing.forward_probe"),
    (routing, "fso_can_transmit", "count", "topology.fso_can_transmit"),
    (engine.Simulation, "run", "span", "engine.run"),
    (engine.Simulation, "_generate", "span", "engine.generate"),
    (engine.Simulation, "_rp_slot", "span", "engine.rp"),
    (engine.Simulation, "_cf_slot", "span", "engine.cfp"),
    (engine.Simulation, "_end_frame", "span", "engine.end_frame"),
    (engine, "resolve_slot", "leaf", "engine.resolve_slot"),
    (engine, "trace_digest", "span", "engine.trace_digest"),
    (audit, "run_audits", "span", "audit.run_audits"),
    (audit, "rf_hop_distance", "leaf", "topology.rf_hop_distance"),
    (audit, "common_range", "leaf", "topology.common_range"),
    (traffic.PacketQueue, "expire", "leaf", "traffic.expire"),
    (traffic.PacketQueue, "head_ready", "count", "traffic.head_ready"),
    (traffic.PacketSource, "packets_for_window", "leaf", "traffic.packets_for_window"),
    (operation, "write_outputs", "span", "cli.serialize_write"),
] + [
    (mac.StationMac, m, "leaf", "mac.station")
    for m in sorted(vars(mac.StationMac))
    if not m.startswith("_") and callable(getattr(mac.StationMac, m))
]


def _count_paths(paths, results) -> None:
    results["paths_found"] += len(paths)


def _count_dropping(dropped, results) -> None:
    if dropped:
        results["expire_dropped"] += 1


# facts the ratios need from return values, by wrapped name
_TALLIES = {
    "routing.collect_paths": _count_paths,
    "traffic.expire": _count_dropping,
}


class Tracer:
    """Spans, counts and leaf times of one traced operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, leaf seconds]
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.results: Counter = Counter()  # tallies taken from return values
        self._in_leaf = False
        self._saved: list[tuple] = []
        self.wrapped: set[str] = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, opened, calls = self.spans, self._open, self.calls

        def wrapper(*args, **kw):
            rec = [name, 0.0, 0.0, opened[-1] if opened else -1, 0.0]
            opened.append(len(spans))
            spans.append(rec)
            calls[name] += 1
            rec[1] = clock()
            try:
                return fn(*args, **kw)
            finally:
                rec[2] = clock()
                opened.pop()

        return wrapper

    def _leaf(self, name, fn):
        spans, opened, calls, leaf_s = self.spans, self._open, self.calls, self.leaf_s

        def wrapper(*args, **kw):
            calls[name] += 1
            if self._in_leaf:  # a leaf calling a leaf is charged once
                return fn(*args, **kw)
            self._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                self._in_leaf = False
                leaf_s[name] += dt
                if opened:
                    spans[opened[-1]][4] += dt

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    def _tally(self, name, fn):
        """fn wrapped to record what the ratios need from its results."""
        tally = _TALLIES.get(name)
        if tally is None:
            return fn
        results = self.results

        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            tally(out, results)
            return out

        return wrapper

    def install(self) -> None:
        make = {"span": self._span, "leaf": self._leaf, "count": self._count}
        for owner, attr, kind, name in _TARGETS:
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, make[kind](name, self._tally(name, orig)))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name. Self time is the span's
        duration minus its child spans and the leaves charged to it."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, leaf) in enumerate(self.spans):
            own[name] += (end - start) - child[i] - leaf
        return dict(total), dict(own)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, name -> (value, unit).

    stats is the operation's simulated statistics (operation.py), the
    source of the counts that are taken from the trace."""
    total, own = tracer.span_times()
    calls, leaf_s, res, have = tracer.calls, tracer.leaf_s, tracer.results, tracer.wrapped
    ev = stats["events"]
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, *needs):
        if all(n in have for n in needs):
            out[name] = (value, unit)

    put("scenario.from_dict_s", total.get("scenario.from_dict", 0.0), "s", "scenario.from_dict")
    put("topology.fso_can_transmit_calls", calls["topology.fso_can_transmit"], "count",
        "topology.fso_can_transmit")
    put("topology.rf_hop_distance_calls", calls["topology.rf_hop_distance"], "count",
        "topology.rf_hop_distance")
    put("topology.common_range_calls", calls["topology.common_range"], "count",
        "topology.common_range")

    put("routing.discover_s", total.get("routing.discover", 0.0), "s", "routing.discover")
    put("routing.collect_paths_self_s", own.get("routing.collect_paths", 0.0), "s",
        "routing.collect_paths")
    put("routing.next_hop_candidates_calls", calls["routing.next_hop_candidates"], "count",
        "routing.next_hop_candidates")
    put("routing.probes_forwarded", calls["routing.forward_probe"], "count",
        "routing.forward_probe")
    put("routing.share_of_total",
        _ratio(total.get("routing.discover", 0.0), total.get("operation", 0.0)), "ratio",
        "routing.discover")
    put("routing.paths_found", res["paths_found"], "count", "routing.collect_paths")
    put("routing.paths_per_probe", _ratio(res["paths_found"], calls["routing.forward_probe"]),
        "ratio", "routing.collect_paths", "routing.forward_probe")

    put("engine.setup_self_s", own.get("engine.setup", 0.0), "s", "engine.setup")
    for phase in ("cfp", "rp", "end_frame", "generate"):
        put(f"engine.{phase}_self_s", own.get(f"engine.{phase}", 0.0), "s", f"engine.{phase}")
    put("engine.resolve_slot_calls", calls["engine.resolve_slot"], "count", "engine.resolve_slot")
    put("engine.resolve_slot_s", leaf_s["engine.resolve_slot"], "s", "engine.resolve_slot")
    wasted = ev.get("wasted_slot", 0)
    out["engine.wasted_slot_ratio"] = (_ratio(wasted, ev.get("data_tx", 0) + wasted), "ratio")
    put("engine.trace_digest_s", total.get("engine.trace_digest", 0.0), "s", "engine.trace_digest")
    put("engine.trace_digest_share",
        _ratio(total.get("engine.trace_digest", 0.0), total.get("engine.run", 0.0)), "ratio",
        "engine.trace_digest", "engine.run")
    out["engine.trace_bytes"] = (stats["trace_bytes"], "bytes")
    out["engine.events"] = (sum(ev.values()), "count")

    put("mac.station_calls", calls["mac.station"], "count", "mac.station")
    put("mac.station_s", leaf_s["mac.station"], "s", "mac.station")
    requests = stats["control_messages"].get("control_tx.CR", 0)
    handshakes = ev.get("handshake_complete", 0)
    out["mac.requests"] = (requests, "count")
    out["mac.handshakes"] = (handshakes, "count")
    out["mac.handshake_ratio"] = (_ratio(handshakes, requests), "ratio")
    out["mac.backoffs"] = (ev.get("backoff", 0), "count")
    out["mac.control_collisions"] = (ev.get("control_collision", 0), "count")

    put("traffic.expire_calls", calls["traffic.expire"], "count", "traffic.expire")
    put("traffic.expire_s", leaf_s["traffic.expire"], "s", "traffic.expire")
    put("traffic.expire_drop_ratio", _ratio(res["expire_dropped"], calls["traffic.expire"]),
        "ratio", "traffic.expire")
    put("traffic.head_ready_calls", calls["traffic.head_ready"], "count", "traffic.head_ready")
    put("traffic.packets_for_window_s", leaf_s["traffic.packets_for_window"], "s",
        "traffic.packets_for_window")

    put("audit.run_audits_s", total.get("audit.run_audits", 0.0), "s", "audit.run_audits")
    put("audit.self_s", own.get("audit.run_audits", 0.0), "s", "audit.run_audits")
    put("cli.serialize_write_s", total.get("cli.serialize_write", 0.0), "s",
        "cli.serialize_write")
    return out
