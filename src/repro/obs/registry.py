"""Process-wide metrics registry: counters, gauges, histograms.

The paper's headline claims are quantitative — O(td) rounds, O(log n)-bit
messages — so the stack keeps *cumulative* accounting alongside the
per-run :class:`~repro.congest.metrics.RoundMetrics`: every simulation,
cache lookup, injected fault, and sweep shard increments a named metric in
one process-wide :class:`MetricsRegistry`.  The registry exports to both
Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`) and
JSON (:meth:`MetricsRegistry.to_json`), and feeds the per-call
:class:`RunCollector` that :class:`repro.api.Session` uses to assemble
:class:`~repro.obs.reports.RunReport` artifacts.

Metric families (all prefixed ``repro_``):

=============================================  =========  =================
name                                           type       labels
=============================================  =========  =================
``repro_simulations_total``                    counter
``repro_rounds_total``                         counter
``repro_messages_total``                       counter
``repro_message_bits_total``                   counter
``repro_max_message_bits``                     gauge      (max observed)
``repro_undelivered_messages_total``           counter
``repro_retransmissions_total``                counter
``repro_faults_injected_total``                counter    ``kind``
``repro_cache_hits_total``                     counter
``repro_cache_misses_total``                   counter
``repro_cache_disk_loads_total``               counter
``repro_cache_writes_total``                   counter    ``mode``
``repro_cache_records_dropped_total``          counter
``repro_sweeps_total``                         counter
``repro_sweep_shards_total``                   counter
``repro_fuzz_cases_total``                     counter    ``source``
``repro_fuzz_discrepancies_total``             counter    ``kind``
``repro_fuzz_shrink_steps_total``              counter
``repro_round_messages``                       histogram
``repro_workload_seconds``                     histogram  ``workload``
=============================================  =========  =================

Everything is plain dict arithmetic — no locks, no background threads —
so the overhead is one :func:`note_simulation` call per simulation, not
per message.  Updates made inside ``multiprocessing`` sweep workers stay
in the worker process; the parent still counts sweeps and shards.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunCollector",
    "collect_run",
    "note_simulation",
    "registry",
    "set_registry",
]

LabelValues = Tuple[str, ...]

#: Default histogram bucket upper bounds (``+Inf`` is implicit).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                   1000.0, 5000.0)


def _label_key(label_names: Sequence[str], labels: Dict[str, str]) -> LabelValues:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {tuple(label_names)}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _render_labels(label_names: Sequence[str], values: LabelValues) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        f'{name}="{value}"' for name, value in zip(label_names, values)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing metric, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelValues, float]]:
        return sorted(self._values.items())


class Gauge:
    """A metric that can go up and down (or track a running maximum)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(self.label_names, labels)] = value

    def set_max(self, value: float, **labels: str) -> None:
        """Keep the running maximum of observed values."""
        key = _label_key(self.label_names, labels)
        if value > self._values.get(key, float("-inf")):
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        return sorted(self._values.items())


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(self.label_names, labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(self.label_names, labels), 0.0)

    def samples(self) -> List[Tuple[LabelValues, List[int], float, int]]:
        return sorted(
            (key, list(counts), self._sums[key], self._totals[key])
            for key, counts in self._counts.items()
        )


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric when
    the name is already registered (the help string of the first
    registration wins); registering the same name as a different metric
    type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _register(self, cls, name: str, help: str,
                  label_names: Sequence[str], **kwargs: Any):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        metric = cls(name, help, label_names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, label_names,
                              buckets=buckets)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric (tests; a fresh process state)."""
        self._metrics.clear()

    # -- export ---------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every metric, sorted by name."""
        out: Dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(zip(metric.label_names, key)),
                        "counts": counts,
                        "sum": total_sum,
                        "count": count,
                    }
                    for key, counts, total_sum, count in metric.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(zip(metric.label_names, key)),
                     "value": value}
                    for key, value in metric.samples()
                ]
            out[name] = entry
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (deterministic ordering)."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, counts, total_sum, count in metric.samples():
                    for bound, bucket_count in zip(metric.buckets, counts):
                        label_str = _render_labels(
                            tuple(metric.label_names) + ("le",),
                            key + (_format_float(bound),),
                        )
                        lines.append(f"{name}_bucket{label_str} {bucket_count}")
                    label_str = _render_labels(
                        tuple(metric.label_names) + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{label_str} {count}")
                    plain = _render_labels(metric.label_names, key)
                    lines.append(f"{name}_sum{plain} {_format_float(total_sum)}")
                    lines.append(f"{name}_count{plain} {count}")
            else:
                for key, value in metric.samples():
                    label_str = _render_labels(metric.label_names, key)
                    lines.append(f"{name}{label_str} {_format_float(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_float(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


_REGISTRY: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The process-wide registry (created lazily)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def set_registry(reg: Optional[MetricsRegistry]) -> None:
    """Replace the process-wide registry (None resets to a lazy default)."""
    global _REGISTRY
    _REGISTRY = reg


# ----------------------------------------------------------------------
# Per-call collection (feeds RunReport)
# ----------------------------------------------------------------------

class RunCollector:
    """Accumulates per-simulation metrics for one logical workload call.

    A pipeline (e.g. ``decide``) runs several consecutive simulations
    (Algorithm 2 adoption loops, then the decision convergecast); while a
    collector is active — see :func:`collect_run` — every finished
    simulation folds its :class:`~repro.congest.metrics.RoundMetrics` in,
    so the collector ends up with the *call-level* totals and the
    concatenated per-round load profile.
    """

    def __init__(self) -> None:
        self.simulations = 0
        self.rounds = 0
        self.messages = 0
        self.bits = 0
        self.max_message_bits = 0
        self.per_round_messages: List[int] = []
        self.per_round_bits: List[int] = []
        self.faults: Dict[str, int] = {}
        self.retransmissions = 0
        self.undelivered = 0

    def fold(self, metrics: Any) -> None:
        self.simulations += 1
        self.rounds += metrics.rounds
        self.messages += metrics.total_messages
        self.bits += metrics.total_bits
        if metrics.max_message_bits > self.max_message_bits:
            self.max_message_bits = metrics.max_message_bits
        self.per_round_messages.extend(metrics.per_round_messages)
        self.per_round_bits.extend(metrics.per_round_bits)
        for kind, count in metrics.faults_injected.items():
            self.faults[kind] = self.faults.get(kind, 0) + count
        self.retransmissions += metrics.retransmissions
        self.undelivered += metrics.undelivered_messages


_COLLECTORS: List[RunCollector] = []


@contextmanager
def collect_run() -> Iterator[RunCollector]:
    """Activate a :class:`RunCollector` for the enclosed simulations.

    Nesting works: every active collector observes every simulation, so an
    outer sweep-level collector still sees runs recorded by an inner
    session-level one.
    """
    collector = RunCollector()
    _COLLECTORS.append(collector)
    try:
        yield collector
    finally:
        _COLLECTORS.remove(collector)


def note_simulation(metrics: Any) -> None:
    """Fold one finished simulation's metrics into the process registry.

    Called by :class:`repro.congest.runtime.Simulation` exactly once per
    run.  Injected-fault counts are *not* folded here —
    the :class:`~repro.faults.injector.FaultInjector` counts them live —
    but they do flow into any active :class:`RunCollector`.
    """
    reg = registry()
    reg.counter(
        "repro_simulations_total", "Finished CONGEST simulations."
    ).inc()
    reg.counter(
        "repro_rounds_total", "Simulated synchronous rounds."
    ).inc(metrics.rounds)
    reg.counter(
        "repro_messages_total", "Messages sent across all simulations."
    ).inc(metrics.total_messages)
    reg.counter(
        "repro_message_bits_total", "Payload bits sent across all simulations."
    ).inc(metrics.total_bits)
    reg.gauge(
        "repro_max_message_bits",
        "Largest single message observed (CONGEST-legality headline).",
    ).set_max(metrics.max_message_bits)
    if metrics.undelivered_messages:
        reg.counter(
            "repro_undelivered_messages_total",
            "Messages queued after every node halted (RL003 smell).",
        ).inc(metrics.undelivered_messages)
    if metrics.retransmissions:
        reg.counter(
            "repro_retransmissions_total",
            "Redundant copies sent by the reliability layer.",
        ).inc(metrics.retransmissions)
    hist = reg.histogram(
        "repro_round_messages", "Messages sent per simulated round."
    )
    for count in metrics.per_round_messages:
        hist.observe(count)
    for collector in _COLLECTORS:
        collector.fold(metrics)
