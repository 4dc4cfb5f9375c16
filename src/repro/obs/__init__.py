"""``repro.obs`` — tracing and metrics for the simulated cluster.

- :mod:`tracer` — typed span/event recording with simulated timestamps,
  zero-overhead when disabled (the default); every record can carry
  its parent span and a cross-node ``caused_by`` edge;
- :mod:`metrics` — counters/gauges/histograms sampled into the existing
  :class:`~repro.des.TimeSeries` machinery;
- :mod:`samplers` — per-node ``node.<ip>.*`` pull-based gauges covering
  scheduler, TCP/IP stack, NICs, netfilter capture buffers and the
  conductor peer database;
- :mod:`slo` — declarative SLO rules evaluated against a finished run;
- :mod:`export` — JSONL trace export/import, per-migration phase
  timelines and summary tables, byte-reconciliation helpers;
- :mod:`causal` — the per-session causal DAG, the downtime
  critical-path decomposition (attribution sums to 100% of measured
  downtime) and the degradation breakdown;
- :mod:`perfetto` — Chrome trace-event JSON export for
  ``chrome://tracing`` / ui.perfetto.dev;
- :mod:`diff` — trace-to-trace and bench-to-bench regression
  root-causing;
- :mod:`cli` / :mod:`bench` / :mod:`dash` — the ``repro-trace``,
  ``repro-bench`` and ``repro-dash`` commands.

See ``docs/observability.md`` for the span-name vocabulary, the causal
edge vocabulary, the critical-path methodology, the metric namespace,
the SLO rule syntax and the ``BENCH_*.json`` schema.
"""

import importlib

#: Public names by submodule.  A submodule is imported on first access
#: to one of its names (PEP 562), so the simulator core, which needs only
#: the tracer and the metrics, does not load the analysis code.
_EXPORTS = {
    "tracer": (
        "Tracer",
        "NullTracer",
        "NULL_TRACER",
        "TraceEvent",
        "Span",
        "assemble_spans",
        "cause_id",
    ),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "install_metrics_sampler",
    ),
    "samplers": ("install_host_sampler", "install_node_samplers", "node_metric_prefix"),
    "slo": ("SLORule", "SLOCheck", "SLOReport", "parse_rule", "evaluate_slos"),
    "export": (
        "trace_to_jsonl",
        "write_jsonl",
        "read_jsonl",
        "TraceParseError",
        "migration_slices",
        "MigrationSlice",
        "phase_byte_sums",
        "render_timeline",
        "render_trace_summary",
        "fault_kinds",
        "render_fault_report",
        "plan_strategies",
        "render_plan_report",
    ),
    "causal": (
        "CausalNode",
        "CausalEdge",
        "CausalGraph",
        "build_causal_graph",
        "PathSegment",
        "CriticalPath",
        "downtime_critical_path",
        "total_critical_path",
        "degradation_breakdown",
        "render_critical_path",
    ),
    "perfetto": ("to_chrome_trace", "write_chrome_trace"),
    "diff": (
        "MetricDelta",
        "SessionDiff",
        "diff_traces",
        "render_trace_diff",
        "bench_root_cause_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
