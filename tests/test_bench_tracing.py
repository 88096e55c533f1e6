"""The traced benchmark run still measures every layer it declares.

A traced operation wraps wmsnsim functions by name (perfbench/tracing.py)
and reports the per-layer metrics that BENCHMARK.json lists. A wrapped
name that wmsnsim no longer has, or a metric that comes out missing or
not finite, would leave the benchmark's traced run without a result, so
one short traced operation is checked here. perfbench/ is only read.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import operation  # noqa: E402
import tracing  # noqa: E402
from workloads import line_mixed  # noqa: E402


def test_traced_operation_reports_every_declared_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = operation.attempt(line_mixed(12), 0, str(tmp_path), None)
    finally:
        tracer.uninstall()
    assert not out.failed, out.problems
    assert tracer.wrapped == {name for _, _, _, name in tracing._TARGETS}
    # a span that no call went through would still read a finite 0
    spans = [name for _, _, kind, name in tracing._TARGETS if kind == "span"]
    assert [name for name in spans if not tracer.calls[name]] == []

    metrics = tracing.layer_metrics(tracer, out.stats)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    want = {m["name"] for m in declared if not m["name"].startswith("bench.")}
    assert set(metrics) == want
    values = {name: value for name, (value, _) in metrics.items()}
    assert all(math.isfinite(v) for v in values.values()), values
    json.dumps(values, allow_nan=False)
