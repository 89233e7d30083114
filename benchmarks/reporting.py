"""Shared reporting for the benchmark harness.

Each experiment records a titled table of rows; ``conftest.py`` prints all
recorded tables in the terminal summary (after pytest's capture ends) and
mirrors them to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md
can reference stable artifacts.  Every table is also appended to
``benchmarks/results/<experiment>.json`` with typed cells (ints stay
ints, floats stay floats), so downstream tooling — plots, the
``repro bench`` gate, ad-hoc analysis — never has to re-parse the
pretty-printed text.

An experiment's two files are truncated by its first table of the
process, so rerunning one experiment rewrites its own results and
leaves every other experiment's files alone.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence, Set, Tuple

_SERIES: List[Tuple[str, List[str]]] = []
_STARTED: Set[str] = set()  # result stems already truncated this process

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _typed(cell: object) -> object:
    """A JSON-native cell: numbers and bools pass through, rest is str."""
    if cell is None or isinstance(cell, (bool, int, float, str)):
        return cell
    return str(cell)


def _result_stem(experiment: str) -> str:
    return experiment.lower().replace(" ", "_")


def record_table(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Record a table for terminal summary + results files (.txt and .json)."""
    rows = [list(row) for row in rows]
    lines = [" | ".join(str(h) for h in header)]
    lines.append("-+-".join("-" * len(str(h)) for h in header))
    for row in rows:
        lines.append(" | ".join(str(cell) for cell in row))
    _SERIES.append((f"{experiment}: {title}", lines))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = _result_stem(experiment)
    fresh = stem not in _STARTED
    _STARTED.add(stem)
    path = os.path.join(RESULTS_DIR, f"{stem}.txt")
    with open(path, "w" if fresh else "a", encoding="utf-8") as handle:
        handle.write(f"== {title} ==\n")
        handle.write("\n".join(lines))
        handle.write("\n\n")
    json_path = os.path.join(RESULTS_DIR, f"{stem}.json")
    tables = []
    if not fresh and os.path.exists(json_path):
        try:
            with open(json_path, encoding="utf-8") as handle:
                tables = json.load(handle).get("tables", [])
        except (OSError, json.JSONDecodeError):
            tables = []
    tables.append({
        "title": title,
        "header": [str(h) for h in header],
        "rows": [[_typed(cell) for cell in row] for row in rows],
    })
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"experiment": experiment, "tables": tables}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


def record_phase_table(experiment: str, title: str, tracer) -> None:
    """Record a tracer's per-phase round/message/bit breakdown.

    ``tracer`` is a :class:`repro.obs.Tracer`; benchmarks run their
    representative instance under one (usually with ``events=False``) and
    mirror the attribution table next to their headline series.
    """
    from repro.obs import phase_table_rows

    record_table(
        experiment,
        title,
        ("phase", "rounds", "messages", "bits", "max_bits", "spans"),
        phase_table_rows(tracer),
    )


def recorded_series() -> List[Tuple[str, List[str]]]:
    return list(_SERIES)
