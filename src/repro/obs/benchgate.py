"""The benchmark regression gate behind ``repro bench check``.

Compares fresh ``BENCH_*.json`` results (as written by
``benchmarks/bench_engine.py``) against committed baselines under
``benchmarks/baselines/``, with per-metric rules:

* **correctness** — every experiment's ``checks`` (verdicts and round
  counts) must match the baseline exactly *when the grids match*; a
  changed answer or round count is a correctness-adjacent regression, not
  a perf wobble.  Grid mismatches (e.g. a smoke fresh run against a full
  baseline) skip the checks comparison with a note.
* **speedup** — the fresh ``minimized_speedup`` must stay within a
  relative tolerance of the baseline (default: may drop to 50% of
  baseline), *unless* it is still above an absolute floor (default 1.0x:
  minimized no slower than raw), which absorbs timing noise on shared CI
  machines.
* **state reduction** — ``state_reduction`` is deterministic for a fixed
  kernel and may never drop.
* **wall-clock** — ``batched_seconds`` / ``minimized_seconds`` are compared
  only when a time tolerance is given explicitly; raw seconds are too
  machine-dependent to gate by default.

Baselines are matched by their ``(benchmark, mode)`` keys, so a smoke
fresh result gates against the committed smoke baseline and a full run
against the full one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["BenchBreach", "BenchCheck", "check_bench", "compare_bench",
           "load_baselines"]

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")
DEFAULT_SPEEDUP_TOLERANCE = 0.5
DEFAULT_SPEEDUP_FLOOR = 1.0


@dataclass(frozen=True)
class BenchBreach:
    """One failed comparison: which experiment, which metric, and why."""

    benchmark: str
    experiment: str
    metric: str
    fresh: Any
    baseline: Any
    reason: str

    def format(self) -> str:
        return (
            f"{self.benchmark}/{self.experiment} {self.metric}: "
            f"fresh={self.fresh!r} baseline={self.baseline!r} — {self.reason}"
        )


@dataclass(frozen=True)
class BenchCheck:
    """The outcome of one gate run: log lines plus any breaches."""

    lines: Tuple[str, ...]
    breaches: Tuple[BenchBreach, ...]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def render(self) -> str:
        out = list(self.lines)
        if self.breaches:
            out.append("")
            out.append(f"FAIL: {len(self.breaches)} regression(s)")
            out.extend("  " + b.format() for b in self.breaches)
        else:
            out.append("")
            out.append("bench check: ok")
        return "\n".join(out)


def _bench_key(data: Dict[str, Any]) -> Tuple[str, str]:
    return (str(data.get("benchmark", "?")), str(data.get("mode", "full")))


def load_baselines(directory: Union[str, os.PathLike]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Every ``*.json`` baseline in ``directory``, keyed by (benchmark, mode)."""
    baselines: Dict[Tuple[str, str], Dict[str, Any]] = {}
    base = Path(directory)
    if not base.is_dir():
        return baselines
    for path in sorted(base.glob("*.json")):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict) and "experiments" in data:
            baselines[_bench_key(data)] = data
    return baselines


def compare_bench(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    speedup_tolerance: float = DEFAULT_SPEEDUP_TOLERANCE,
    speedup_floor: float = DEFAULT_SPEEDUP_FLOOR,
    time_tolerance: Optional[float] = None,
) -> BenchCheck:
    """Compare one fresh bench result dict against its baseline."""
    name, mode = _bench_key(fresh)
    lines = [f"bench {name} (mode {mode}):"]
    breaches: List[BenchBreach] = []
    fresh_exps = fresh.get("experiments", {})
    base_exps = baseline.get("experiments", {})

    for exp in sorted(set(fresh_exps) | set(base_exps)):
        if exp not in fresh_exps:
            lines.append(f"  {exp}: missing from fresh run")
            breaches.append(BenchBreach(
                name, exp, "presence", None, "present",
                "experiment missing from fresh results",
            ))
            continue
        if exp not in base_exps:
            lines.append(f"  {exp}: no baseline (skipped)")
            continue
        f, b = fresh_exps[exp], base_exps[exp]

        same_grid = f.get("grid") == b.get("grid")
        if same_grid:
            if f.get("checks") != b.get("checks"):
                breaches.append(BenchBreach(
                    name, exp, "checks", f.get("checks"), b.get("checks"),
                    "verdicts/rounds changed — correctness regression",
                ))
                lines.append(f"  {exp}: checks DIFFER")
            else:
                lines.append(f"  {exp}: checks match "
                             f"({len(b.get('checks', []))} points)")
        else:
            lines.append(f"  {exp}: grid differs from baseline; "
                         "correctness checks skipped")

        metric = "minimized_speedup"
        fs, bs = f.get(metric), b.get(metric)
        if isinstance(fs, (int, float)) and isinstance(bs, (int, float)):
            limit = bs * (1 - speedup_tolerance)
            if fs < limit and fs < speedup_floor:
                breaches.append(BenchBreach(
                    name, exp, metric, fs, bs,
                    f"below {limit:.2f}x (={100 * (1 - speedup_tolerance):g}% "
                    f"of baseline) and below the {speedup_floor:g}x floor",
                ))
                lines.append(f"  {exp}: {metric} {fs}x vs baseline {bs}x SLOW")
            else:
                lines.append(f"  {exp}: {metric} {fs}x vs baseline {bs}x ok")

        fs, bs = f.get("state_reduction"), b.get("state_reduction")
        if isinstance(fs, (int, float)) and isinstance(bs, (int, float)):
            # State reduction is deterministic for a fixed kernel —
            # any drop means the minimizer lost ground, not noise.
            if fs < bs:
                breaches.append(BenchBreach(
                    name, exp, "state_reduction", fs, bs,
                    "reachable-state reduction regressed",
                ))
                lines.append(f"  {exp}: state_reduction {fs} vs "
                             f"baseline {bs} REGRESSED")
            else:
                lines.append(f"  {exp}: state_reduction {fs} vs "
                             f"baseline {bs} ok")

        if time_tolerance is not None:
            for metric in ("batched_seconds", "minimized_seconds"):
                fv, bv = f.get(metric), b.get(metric)
                if not isinstance(fv, (int, float)) \
                        or not isinstance(bv, (int, float)):
                    continue
                limit = bv * (1 + time_tolerance)
                if fv > limit:
                    breaches.append(BenchBreach(
                        name, exp, metric, fv, bv,
                        f"exceeds baseline by more than "
                        f"{time_tolerance * 100:g}%",
                    ))
                    lines.append(f"  {exp}: {metric} {fv}s > {limit:.4f}s SLOW")
    return BenchCheck(lines=tuple(lines), breaches=tuple(breaches))


def check_bench(
    fresh_paths: Sequence[Union[str, os.PathLike]],
    baseline_dir: Union[str, os.PathLike] = DEFAULT_BASELINE_DIR,
    *,
    speedup_tolerance: float = DEFAULT_SPEEDUP_TOLERANCE,
    speedup_floor: float = DEFAULT_SPEEDUP_FLOOR,
    time_tolerance: Optional[float] = None,
) -> BenchCheck:
    """Gate every fresh result file against the committed baselines.

    A fresh file whose ``(benchmark, mode)`` has no baseline is itself a
    breach — an ungated benchmark silently rots.
    """
    baselines = load_baselines(baseline_dir)
    lines: List[str] = []
    breaches: List[BenchBreach] = []
    if not fresh_paths:
        return BenchCheck(
            lines=("bench check: no fresh result files given",),
            breaches=(BenchBreach("?", "?", "inputs", None, None,
                                  "no fresh result files found"),),
        )
    for path in fresh_paths:
        try:
            with open(path, encoding="utf-8") as handle:
                fresh = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            breaches.append(BenchBreach(
                str(path), "?", "load", None, None, f"unreadable: {exc}"
            ))
            continue
        key = _bench_key(fresh)
        baseline = baselines.get(key)
        if baseline is None:
            available = ", ".join(
                f"{n}/{m}" for n, m in sorted(baselines)
            ) or "none"
            breaches.append(BenchBreach(
                key[0], "?", "baseline", f"mode={key[1]}", available,
                f"no committed baseline for (benchmark={key[0]!r}, "
                f"mode={key[1]!r}) under {baseline_dir}",
            ))
            lines.append(f"bench {key[0]} (mode {key[1]}): NO BASELINE")
            continue
        result = compare_bench(
            fresh, baseline,
            speedup_tolerance=speedup_tolerance,
            speedup_floor=speedup_floor,
            time_tolerance=time_tolerance,
        )
        lines.extend(result.lines)
        breaches.extend(result.breaches)
    return BenchCheck(lines=tuple(lines), breaches=tuple(breaches))
