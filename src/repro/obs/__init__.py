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

from .causal import (
    CausalEdge,
    CausalGraph,
    CausalNode,
    CriticalPath,
    PathSegment,
    build_causal_graph,
    degradation_breakdown,
    downtime_critical_path,
    render_critical_path,
    total_critical_path,
)
from .diff import (
    MetricDelta,
    SessionDiff,
    bench_root_cause_table,
    diff_traces,
    render_trace_diff,
)
from .export import (
    MigrationSlice,
    TraceParseError,
    fault_kinds,
    migration_slices,
    phase_byte_sums,
    plan_strategies,
    read_jsonl,
    render_fault_report,
    render_plan_report,
    render_timeline,
    render_trace_summary,
    trace_to_jsonl,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    install_metrics_sampler,
)
from .perfetto import to_chrome_trace, write_chrome_trace
from .samplers import install_host_sampler, install_node_samplers, node_metric_prefix
from .slo import SLOCheck, SLOReport, SLORule, evaluate_slos, parse_rule
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    assemble_spans,
    cause_id,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "Span",
    "assemble_spans",
    "cause_id",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "install_metrics_sampler",
    "install_host_sampler",
    "install_node_samplers",
    "node_metric_prefix",
    "SLORule",
    "SLOCheck",
    "SLOReport",
    "parse_rule",
    "evaluate_slos",
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
    "to_chrome_trace",
    "write_chrome_trace",
    "MetricDelta",
    "SessionDiff",
    "diff_traces",
    "render_trace_diff",
    "bench_root_cause_table",
]
