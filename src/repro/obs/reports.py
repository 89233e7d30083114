"""RunReport artifacts: frozen per-workload records, a local run store,
and a deterministic report differ.

A :class:`RunReport` is one JSON-serializable record per
``Session.decide/optimize/count/certify`` call: the verdict, the
round/message/bit accounting (with the concatenated per-round load
profile), per-phase rounds, fault and retransmission counts,
:class:`~repro.algebra.cache.AutomatonCache` hit/miss deltas, the engine
and replay arguments, and an environment fingerprint.  Reports are
**content-addressed**: ``run_id`` is the SHA-256 of the report's
*deterministic core* (everything except wall-clock and timestamps), so
two byte-identical executions — same graph, formula, seed, inbox order,
engine — produce the same id on the same machine.

Reports persist to a local **run store**: an append-only
``runs.jsonl`` under ``.repro/runs/`` (override the directory with the
``REPRO_RUN_DIR`` environment variable).  ``repro report`` lists, renders,
and diffs stored reports; :func:`diff_reports` produces the deterministic
phase-by-phase delta table the CLI prints, with threshold breaches for
regression gating (wall-clock is excluded from the default table exactly
so the diff of two identical runs is byte-deterministic).
"""

from __future__ import annotations

import dataclasses
import hashlib
import html as _html
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "RunReport",
    "RunStore",
    "ReportDiff",
    "build_report",
    "diff_reports",
    "environment_fingerprint",
    "render_markdown",
    "render_html",
    "run_dir",
    "WORKLOAD_PROGRAMS",
    "programs_for_workload",
]

#: Bump when the report schema changes incompatibly.
REPORT_SCHEMA = 1

#: Node programs executed by each Session workload, as
#: ``(module, lint qualname)`` pairs — the lookup table the RL009
#: static-vs-observed conformance gate uses to find the statically
#: certified bit/round bounds for a stored report.
WORKLOAD_PROGRAMS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "decide": (
        ("repro.distributed.elimination", "elimination_tree_program"),
        ("repro.distributed.model_checking", "decision_program.<locals>.program"),
    ),
    "optimize": (
        ("repro.distributed.elimination", "elimination_tree_program"),
        ("repro.distributed.optimization", "optimization_program.<locals>.program"),
    ),
    "count": (
        ("repro.distributed.elimination", "elimination_tree_program"),
        ("repro.distributed.counting", "counting_program.<locals>.program"),
    ),
    # "certify" is deliberately absent: it runs the centralized
    # prover + single-round verifier from repro.certification, whose
    # verifier declares no bound — the gate skips workloads it has no
    # static bound for.
}


def programs_for_workload(workload: str) -> Tuple[Tuple[str, str], ...]:
    """The ``(module, qualname)`` pairs a workload's rounds execute."""
    return WORKLOAD_PROGRAMS.get(workload, ())

#: Metrics gated by default in ``diff_reports`` (relative tolerance 0.0:
#: any increase from A to B is a breach; decreases never are).
DEFAULT_DIFF_THRESHOLDS: Dict[str, float] = {
    "rounds": 0.0,
    "messages": 0.0,
    "bits": 0.0,
    "max_message_bits": 0.0,
}


def environment_fingerprint() -> Dict[str, Any]:
    """A deterministic-per-machine description of the execution context."""
    from .. import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "repro_version": __version__,
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
    }


@dataclass(frozen=True)
class RunReport:
    """One frozen, JSON-serializable record of a Session workload call."""

    schema: int
    run_id: str
    workload: str
    formula: str
    graph: Mapping[str, int]
    d: int
    engine: str
    verdict: Optional[bool]
    treedepth_exceeded: bool
    value: Optional[int]
    count: Optional[int]
    num_classes: int
    witness_size: int
    metrics: Mapping[str, Any]
    phase_rounds: Mapping[str, int]
    phases: Optional[Sequence[Sequence[Any]]]
    cache: Mapping[str, int]
    replay: Mapping[str, Any]
    env: Mapping[str, Any]
    wall_seconds: float
    #: State-space reduction accounting (``repro.algebra.minimize``):
    #: zero everywhere when minimization is disabled or fell back.
    states_total: int = 0
    states_reachable: int = 0
    states_minimized: int = 0
    created_at: float = field(default=0.0)

    #: Fields excluded from the content address (volatile between
    #: otherwise-identical executions).
    VOLATILE = ("run_id", "wall_seconds", "created_at")

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["graph"] = dict(self.graph)
        data["metrics"] = _plain(self.metrics)
        data["phase_rounds"] = dict(self.phase_rounds)
        data["cache"] = dict(self.cache)
        data["replay"] = _plain(self.replay)
        data["env"] = dict(self.env)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def deterministic_core(self) -> Dict[str, Any]:
        """The report minus its volatile fields (what the id hashes)."""
        data = self.to_dict()
        for name in self.VOLATILE:
            data.pop(name, None)
        return data

    @property
    def max_payload_bits(self) -> int:
        """The widest single message observed during this run (bits)."""
        return int(self.metrics.get("max_message_bits", 0) or 0)


def _plain(value: Any) -> Any:
    """Recursively reduce a structure to JSON-native types."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted((_plain(v) for v in value), key=repr)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def content_address(core: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of a deterministic core."""
    material = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


def build_report(
    *,
    workload: str,
    formula: str,
    graph: Any,
    d: int,
    engine: str,
    verdict: Optional[bool],
    treedepth_exceeded: bool,
    value: Optional[int],
    count: Optional[int],
    num_classes: int,
    witness_size: int,
    collector: Any,
    phase_rounds: Mapping[str, int],
    phases: Optional[Sequence[Sequence[Any]]],
    cache: Mapping[str, int],
    replay: Mapping[str, Any],
    wall_seconds: float,
    states_total: int = 0,
    states_reachable: int = 0,
    states_minimized: int = 0,
) -> RunReport:
    """Assemble a content-addressed :class:`RunReport`.

    ``collector`` is the :class:`~repro.obs.registry.RunCollector` that
    observed the call's simulations; ``replay`` must already be
    JSON-reducible (fault plans serialized, retry policies described).
    """
    metrics = {
        "rounds": collector.rounds,
        "messages": collector.messages,
        "bits": collector.bits,
        "max_message_bits": collector.max_message_bits,
        "simulations": collector.simulations,
        "per_round_messages": list(collector.per_round_messages),
        "per_round_bits": list(collector.per_round_bits),
        "faults": dict(sorted(collector.faults.items())),
        "retransmissions": collector.retransmissions,
        "undelivered": collector.undelivered,
    }
    report = RunReport(
        schema=REPORT_SCHEMA,
        run_id="",
        workload=workload,
        formula=formula,
        graph={"n": graph.num_vertices(), "m": graph.num_edges()},
        d=d,
        engine=engine,
        verdict=verdict,
        treedepth_exceeded=treedepth_exceeded,
        value=value,
        count=count,
        num_classes=num_classes,
        witness_size=witness_size,
        metrics=metrics,
        phase_rounds=dict(phase_rounds),
        phases=[list(row) for row in phases] if phases is not None else None,
        cache=dict(cache),
        replay=_plain(replay),
        env=environment_fingerprint(),
        wall_seconds=wall_seconds,
        states_total=int(states_total),
        states_reachable=int(states_reachable),
        states_minimized=int(states_minimized),
        created_at=time.time(),
    )
    run_id = content_address(report.deterministic_core())
    return dataclasses.replace(report, run_id=run_id)


# ----------------------------------------------------------------------
# The run store
# ----------------------------------------------------------------------

def run_dir(override: Union[str, os.PathLike, None] = None) -> Path:
    """The run-store directory: override > ``REPRO_RUN_DIR`` > ``.repro/runs``."""
    if override:
        return Path(override)
    env = os.environ.get("REPRO_RUN_DIR")
    if env:
        return Path(env)
    return Path(".repro") / "runs"


class RunStore:
    """Append-only JSONL store of :class:`RunReport` records.

    One ``runs.jsonl`` per directory; each line is one report dict.
    Identical executions share a content-addressed id — appending a
    duplicate is harmless, lookups return the first match.  Corrupt lines
    are skipped, never fatal: the store is an observability artifact.
    """

    def __init__(self, directory: Union[str, os.PathLike, None] = None):
        self.directory = run_dir(directory)

    @property
    def path(self) -> Path:
        return self.directory / "runs.jsonl"

    def save(self, report: RunReport) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        return self.path

    def _iter_dicts(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        records = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(data, dict) and data.get("run_id"):
                    records.append(data)
        return records

    def list(self) -> List[RunReport]:
        """Every stored report, in append (chronological) order."""
        return [RunReport.from_dict(d) for d in self._iter_dicts()]

    def load(self, run_id: str) -> RunReport:
        """The report whose id matches ``run_id`` (unique prefixes work).

        ``"latest"`` loads the most recently appended report.
        """
        records = self.list()
        if not records:
            raise KeyError(f"run store {self.path} is empty")
        if run_id == "latest":
            return records[-1]
        matches = [r for r in records if r.run_id.startswith(run_id)]
        ids = sorted({r.run_id for r in matches})
        if not ids:
            raise KeyError(f"no run matching {run_id!r} in {self.path}")
        if len(ids) > 1:
            raise KeyError(
                f"ambiguous run id {run_id!r}: matches "
                + ", ".join(i[:12] for i in ids)
            )
        return matches[0]


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def _fmt_num(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_markdown(report: RunReport) -> str:
    """A human-readable markdown summary of one report."""
    m = report.metrics
    lines = [
        f"# Run {report.run_id[:12]} — {report.workload}",
        "",
        f"- **formula**: `{report.formula}`",
        f"- **graph**: n={report.graph['n']}, m={report.graph['m']}, "
        f"d={report.d}",
        f"- **engine**: {report.engine}",
        f"- **verdict**: {report.verdict} "
        f"(treedepth_exceeded={report.treedepth_exceeded})",
    ]
    if report.value is not None:
        lines.append(f"- **value**: {report.value} "
                     f"(witness size {report.witness_size})")
    if report.count is not None:
        lines.append(f"- **count**: {report.count}")
    lines += [
        f"- **classes**: {report.num_classes}",
    ]
    if report.states_total:
        lines.append(
            f"- **kernel states**: {report.states_total} total, "
            f"{report.states_reachable} reachable, "
            f"{report.states_minimized} after minimization"
        )
    lines += [
        f"- **wall clock**: {report.wall_seconds:.4f}s",
        "",
        "## Metrics",
        "",
        "| metric | value |",
        "| --- | --- |",
    ]
    for key in ("rounds", "messages", "bits", "max_message_bits",
                "simulations", "retransmissions", "undelivered"):
        lines.append(f"| {key} | {_fmt_num(m[key])} |")
    for kind, cnt in sorted(dict(m.get("faults", {})).items()):
        lines.append(f"| faults[{kind}] | {cnt} |")
    lines += ["", "## Phase rounds", "", "| phase | rounds |", "| --- | --- |"]
    for phase, rounds in sorted(report.phase_rounds.items()):
        lines.append(f"| {phase} | {rounds} |")
    if report.phases:
        lines += [
            "", "## Traced phases", "",
            "| phase | rounds | messages | bits | max_bits | spans |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for row in report.phases:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
    lines += [
        "", "## Cache", "",
        "| hits | misses | disk_loads |",
        "| --- | --- | --- |",
        f"| {report.cache.get('hits', 0)} | {report.cache.get('misses', 0)} "
        f"| {report.cache.get('disk_loads', 0)} |",
        "", "## Replay", "", "```json",
        json.dumps(_plain(report.replay), indent=2, sort_keys=True),
        "```", "", "## Environment", "", "```json",
        json.dumps(dict(report.env), indent=2, sort_keys=True),
        "```", "",
    ]
    return "\n".join(lines)


def render_html(report: RunReport) -> str:
    """A self-contained HTML page for one report (tables, no scripts)."""
    md = render_markdown(report)
    body: List[str] = []
    in_table = False
    in_code = False
    for line in md.splitlines():
        if line.startswith("```"):
            if in_code:
                body.append("</pre>")
            else:
                body.append("<pre>")
            in_code = not in_code
            continue
        if in_code:
            body.append(_html.escape(line))
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} and c for c in cells):
                continue  # markdown separator row
            if not in_table:
                body.append("<table>")
                in_table = True
                tag = "th"
            else:
                tag = "td"
            body.append(
                "<tr>" + "".join(
                    f"<{tag}>{_html.escape(c)}</{tag}>" for c in cells
                ) + "</tr>"
            )
            continue
        if in_table:
            body.append("</table>")
            in_table = False
        if line.startswith("# "):
            body.append(f"<h1>{_html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            body.append(f"<h2>{_html.escape(line[3:])}</h2>")
        elif line.startswith("- "):
            body.append(f"<p>{_html.escape(line[2:])}</p>")
        elif line:
            body.append(f"<p>{_html.escape(line)}</p>")
    if in_table:
        body.append("</table>")
    style = (
        "body{font-family:sans-serif;margin:2em;max-width:60em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:0.25em 0.6em;text-align:left}"
        "pre{background:#f4f4f4;padding:0.8em;overflow-x:auto}"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>repro run {_html.escape(report.run_id[:12])}</title>"
        f"<style>{style}</style></head><body>"
        + "".join(body) + "</body></html>"
    )


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiffRow:
    """One metric's values in both runs and the resulting delta."""

    section: str
    metric: str
    a: Any
    b: Any

    @property
    def delta(self) -> Optional[float]:
        if isinstance(self.a, (int, float)) and isinstance(self.b, (int, float)):
            return self.b - self.a
        return None

    @property
    def relative(self) -> Optional[float]:
        delta = self.delta
        if delta is None:
            return None
        if self.a == 0:
            return None if delta == 0 else float("inf")
        return delta / abs(self.a)


@dataclass(frozen=True)
class ReportDiff:
    """The deterministic comparison of two reports."""

    a: RunReport
    b: RunReport
    rows: Tuple[DiffRow, ...]
    breaches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def render(self, *, wall: bool = False) -> str:
        """The CLI's delta table.  Byte-deterministic for fixed inputs
        unless ``wall=True`` adds the (non-deterministic) wall-clock row."""
        out = [
            "run report diff",
            f"  A: {self.a.run_id[:12]}  {self.a.workload} "
            f"n={self.a.graph['n']} d={self.a.d} engine={self.a.engine}",
            f"  B: {self.b.run_id[:12]}  {self.b.workload} "
            f"n={self.b.graph['n']} d={self.b.d} engine={self.b.engine}",
            "",
        ]
        header = ["section", "metric", "A", "B", "delta", "rel"]
        table: List[List[str]] = []
        rows: List[DiffRow] = list(self.rows)
        if wall:
            rows.append(DiffRow("wall", "wall_seconds",
                                round(self.a.wall_seconds, 4),
                                round(self.b.wall_seconds, 4)))
        for row in rows:
            delta = row.delta
            rel = row.relative
            if delta is None:
                delta_s, rel_s = "-", "-"
            else:
                delta_s = f"{delta:+g}"
                if rel is None:
                    rel_s = "+0.00%" if delta == 0 else "-"
                elif rel == float("inf"):
                    rel_s = "+inf"
                else:
                    rel_s = f"{rel * 100:+.2f}%"
            table.append([row.section, row.metric, _fmt_num(row.a),
                          _fmt_num(row.b), delta_s, rel_s])
        widths = [len(h) for h in header]
        for line in table:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return "  ".join(
                c.ljust(w) for c, w in zip(cells, widths)
            ).rstrip()

        out.append(fmt(header))
        out.append(fmt(["-" * w for w in widths]))
        out.extend(fmt(line) for line in table)
        out.append("")
        if self.breaches:
            out.append("threshold breaches:")
            out.extend(f"  {b}" for b in self.breaches)
        else:
            out.append("no threshold breaches")
        return "\n".join(out)


def diff_reports(
    a: RunReport,
    b: RunReport,
    thresholds: Optional[Mapping[str, float]] = None,
) -> ReportDiff:
    """Compare two reports metric by metric and phase by phase.

    ``thresholds`` maps metric names (``rounds``, ``messages``, ``bits``,
    ``max_message_bits``, ``phase:<name>``, ``cache_misses``) to relative
    tolerances; metric ``m`` breaches when
    ``b > a * (1 + thresholds[m])``.  Defaults to
    :data:`DEFAULT_DIFF_THRESHOLDS` (any core-metric increase breaches);
    pass ``{}`` to disable gating entirely.
    """
    thresholds = DEFAULT_DIFF_THRESHOLDS if thresholds is None else thresholds
    rows: List[DiffRow] = []
    breaches: List[str] = []

    def gate(name: str, va: Any, vb: Any) -> None:
        tol = thresholds.get(name)
        if tol is None:
            return
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            return
        limit = va * (1 + tol)
        if vb > limit:
            breaches.append(
                f"{name}: B={_fmt_num(vb)} exceeds A={_fmt_num(va)} "
                f"(tolerance {tol * 100:g}%)"
            )

    for key in ("rounds", "messages", "bits", "max_message_bits",
                "simulations", "retransmissions", "undelivered"):
        va, vb = a.metrics.get(key, 0), b.metrics.get(key, 0)
        rows.append(DiffRow("metrics", key, va, vb))
        gate(key, va, vb)

    for phase in sorted(set(a.phase_rounds) | set(b.phase_rounds)):
        va = a.phase_rounds.get(phase, 0)
        vb = b.phase_rounds.get(phase, 0)
        rows.append(DiffRow("phase", phase, va, vb))
        gate(f"phase:{phase}", va, vb)

    for key in ("hits", "misses", "disk_loads"):
        va, vb = a.cache.get(key, 0), b.cache.get(key, 0)
        rows.append(DiffRow("cache", key, va, vb))
        gate(f"cache_{key}", va, vb)

    fault_kinds = sorted(
        set(dict(a.metrics.get("faults", {})))
        | set(dict(b.metrics.get("faults", {})))
    )
    for kind in fault_kinds:
        va = dict(a.metrics.get("faults", {})).get(kind, 0)
        vb = dict(b.metrics.get("faults", {})).get(kind, 0)
        rows.append(DiffRow("faults", kind, va, vb))
        gate(f"faults:{kind}", va, vb)

    rows.append(DiffRow("info", "num_classes", a.num_classes, b.num_classes))
    for key in ("states_total", "states_reachable", "states_minimized"):
        va, vb = getattr(a, key, 0), getattr(b, key, 0)
        rows.append(DiffRow("states", key, va, vb))
        gate(key, va, vb)
    rows.append(DiffRow("info", "verdict", a.verdict, b.verdict))
    if a.verdict != b.verdict:
        breaches.append(
            f"verdict: A={a.verdict} B={b.verdict} — the runs disagree"
        )
    return ReportDiff(a=a, b=b, rows=tuple(rows), breaches=tuple(breaches))
