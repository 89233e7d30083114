"""repro.obs — instrumentation for the CONGEST stack.

Structured tracing (typed events + hierarchical phase spans), per-phase
metrics, wall-clock profiling of the sequential hot paths, and exporters (JSON lines, summary tables, Chrome trace format).
Plus the process-wide :class:`MetricsRegistry` (counters / gauges /
histograms with Prometheus and JSON export) and :class:`RunReport`
artifacts persisted to the local run store (``repro report`` CLI).
See ``docs/observability.md`` for the model and ``python -m repro trace``
for the CLI entry point.
"""

from .events import (
    FAULT_EVENT_KINDS,
    BudgetJittered,
    DeliverEvent,
    FaultEvent,
    MessageDelayed,
    MessageDropped,
    MessageDuplicated,
    NodeCrashed,
    NodeHalt,
    NodeRestarted,
    PayloadTruncated,
    PhaseEnter,
    PhaseExit,
    RoundStart,
    SendEvent,
    TraceEvent,
    event_from_dict,
)
from .export import (
    chrome_trace_dict,
    phase_table_rows,
    read_events,
    render_phase_table,
    write_chrome_trace,
    write_jsonl,
)
from .profile import current_tracer, install_tracer, profiled, use_tracer
from .registry import (
    MetricsRegistry,
    RunCollector,
    collect_run,
    note_simulation,
    registry,
    set_registry,
)
from .reports import (
    RunReport,
    RunStore,
    build_report,
    diff_reports,
    render_html,
    render_markdown,
)
from .tracer import (
    NULL_SPAN,
    PhaseStats,
    ProfileStat,
    Tracer,
)


def maybe_phase(tracer, name: str):
    """A harness-level phase span on ``tracer``, or a no-op when None."""
    if tracer is None:
        return NULL_SPAN
    return tracer.phase(name)


__all__ = [
    "BudgetJittered", "DeliverEvent", "FAULT_EVENT_KINDS",
    "FaultEvent", "MessageDelayed", "MessageDropped", "MessageDuplicated",
    "MetricsRegistry", "NULL_SPAN", "NodeCrashed", "NodeHalt",
    "NodeRestarted", "PayloadTruncated", "PhaseEnter",
    "PhaseExit", "PhaseStats", "ProfileStat", "RoundStart", "RunCollector",
    "RunReport", "RunStore", "SendEvent", "TraceEvent", "Tracer",
    "build_report", "chrome_trace_dict", "collect_run", "current_tracer",
    "diff_reports", "event_from_dict", "install_tracer", "maybe_phase",
    "note_simulation", "phase_table_rows", "profiled", "read_events",
    "registry", "render_html", "render_markdown", "render_phase_table",
    "set_registry", "use_tracer", "write_chrome_trace", "write_jsonl",
]
