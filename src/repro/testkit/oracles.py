"""Differential oracles: sequential semantics vs the Session pipeline.

For one :class:`~repro.testkit.cases.Case` the oracle

1. computes the **sequential reference** with Algorithm 1
   (:mod:`repro.algebra.engine`) on a heuristic elimination forest, and —
   on small graphs — cross-checks it against the brute-force
   :mod:`repro.mso.semantics` ground truth;
2. runs the workload through :class:`repro.api.Session` for every
   ``inbox_order``, asserting verdict/value/count agreement with the
   reference and that the treedepth promise held;
3. asserts that a null fault plan is **byte-transparent**: rounds,
   messages, max payload bits and class count match the fault-free run;
4. exercises the **lossy axis** when the case carries a fault plan:
   under the redundancy-lockstep synchronizer the distributed verdict
   must equal the reference or the run must fail closed with
   :class:`~repro.errors.FaultToleranceExceeded` — silently wrong is the
   only failure.

Every violated assertion becomes a :class:`Discrepancy` value (never an
exception), so the fuzz loop can keep scanning, shrink, and write replay
files.  The ``reference`` hook exists for the harness's own mutation
check (:mod:`repro.testkit.mutants`): swap in a deliberately broken
sequential copy and the oracle must light up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra import check as seq_check
from ..algebra import count as seq_count
from ..algebra import optimize as seq_optimize
from ..algebra.cache import AutomatonCache
from ..api import Result, Session
from ..congest import INBOX_ORDERS
from ..errors import CertificationError, FaultToleranceExceeded, ReproError
from ..faults import FaultPlan, RetryPolicy
from ..mso import semantics
from ..treedepth import best_heuristic_forest
from .cases import Case

__all__ = [
    "Discrepancy",
    "Reference",
    "differential_check",
    "replay_roundtrip_check",
    "sequential_reference",
]

#: Brute-force cross-check bound: assignment spaces stay tiny below this.
_BRUTE_FORCE_VERTICES = 6


@dataclass(frozen=True)
class Discrepancy:
    """One violated conformance assertion, with enough context to triage."""

    case_id: str
    kind: str
    detail: str
    cell: str = ""
    note: str = field(default="", compare=False)

    def format(self) -> str:
        cell = f" [{self.cell}]" if self.cell else ""
        return f"{self.kind}{cell}: {self.detail} (case {self.case_id[:12]})"


@dataclass(frozen=True)
class Reference:
    """The sequential ground truth for one case."""

    verdict: Optional[bool] = None
    value: Optional[int] = None
    count: Optional[int] = None


def compiled_for(case: Case, cache: AutomatonCache):
    """The case's automaton through ``cache`` (same key a Session uses)."""
    labels = set()
    for v in case.graph.vertices():
        labels |= case.graph.vertex_labels(v)
    for u, v in case.graph.edges():
        labels |= case.graph.edge_labels(u, v)
    singletons = any(not v.sort.is_set for v in case.scope)
    return cache.automaton(
        case.formula, case.scope, d=case.d, labels=tuple(sorted(labels)),
        singletons=singletons,
    )


def sequential_reference(
    case: Case, cache: Optional[AutomatonCache] = None
) -> Reference:
    """Algorithm 1's answer for ``case`` on a heuristic forest."""
    cache = cache if cache is not None else AutomatonCache(persist=False)
    forest = best_heuristic_forest(case.graph)
    automaton = compiled_for(case, cache)
    if case.workload in ("decide", "certify"):
        return Reference(
            verdict=seq_check(case.formula, case.graph, forest, automaton)
        )
    if case.workload == "optimize":
        outcome = seq_optimize(
            case.formula, case.graph, forest, case.scope[0],
            maximize=case.sense == "max", automaton=automaton,
        )
        if outcome is None:
            return Reference(verdict=False)
        return Reference(verdict=True, value=outcome.value)
    if case.workload == "count":
        total = seq_count(
            case.formula, case.graph, forest, case.scope, automaton
        )
        return Reference(verdict=True, count=total)
    raise ReproError(f"no sequential reference for {case.workload!r}")


def _brute_force(case: Case, ref: Reference) -> List[Discrepancy]:
    """Second opinion on tiny graphs: enumerate assignments directly."""
    graph = case.graph
    if graph.num_vertices() > _BRUTE_FORCE_VERTICES:
        return []
    found: List[Discrepancy] = []
    if case.workload in ("decide", "certify"):
        truth = semantics.evaluate(graph, case.formula)
        if truth != ref.verdict:
            found.append(Discrepancy(
                case.case_id, "algebra-vs-bruteforce",
                f"Algorithm 1 says {ref.verdict}, enumeration says {truth}",
                note=case.note,
            ))
    elif case.workload == "count":
        truth = semantics.count_satisfying_assignments(
            graph, case.formula, case.scope
        )
        if truth != ref.count:
            found.append(Discrepancy(
                case.case_id, "algebra-vs-bruteforce",
                f"Algorithm 1 counts {ref.count}, enumeration counts {truth}",
                note=case.note,
            ))
    elif case.workload == "optimize":
        weights = {
            v: graph.vertex_weight(v) for v in graph.vertices()
        } if case.scope[0].sort.is_vertex_kind else {
            e: graph.edge_weight(*e) for e in graph.edges()
        }
        best = semantics.optimize(
            graph, case.formula, case.scope[0],
            maximize=case.sense == "max", weight=weights,
        )
        truth = None if best is None else best[0]
        if truth != ref.value:
            found.append(Discrepancy(
                case.case_id, "algebra-vs-bruteforce",
                f"Algorithm 1 optimum {ref.value}, enumeration {truth}",
                note=case.note,
            ))
    return found


def _run_cell(case: Case, session: Session) -> Result:
    if case.workload in ("decide", "certify"):
        return session.decide(case.formula)
    if case.workload == "optimize":
        return session.optimize(case.formula, sense=case.sense)
    return session.count(case.formula)


def _outcome_fields(case: Case, result: Result) -> Tuple[Any, ...]:
    if case.workload == "optimize":
        return (result.verdict, result.value)
    if case.workload == "count":
        return (result.verdict, result.count)
    return (result.verdict,)


def _expected_fields(case: Case, ref: Reference) -> Tuple[Any, ...]:
    if case.workload == "optimize":
        return (ref.verdict, ref.value)
    if case.workload == "count":
        return (ref.verdict, ref.count)
    return (ref.verdict,)


def _byte_signature(result: Result) -> Tuple[int, int, int, int]:
    return (result.rounds, result.messages, result.max_payload_bits,
            result.num_classes)


def differential_check(
    case: Case,
    *,
    reference: Optional[Callable[[Case, AutomatonCache], Reference]] = None,
    cache: Optional[AutomatonCache] = None,
    orders: Sequence[str] = INBOX_ORDERS,
) -> List[Discrepancy]:
    """Run the full differential matrix for one case.

    Returns the (possibly empty) list of discrepancies.  ``reference``
    defaults to :func:`sequential_reference`; ``cache`` should be shared
    across cases so formula compilation amortizes (the fuzz runner passes
    one in-memory :class:`~repro.algebra.cache.AutomatonCache`).
    """
    reference = reference or sequential_reference
    cache = cache if cache is not None else AutomatonCache(persist=False)
    found: List[Discrepancy] = []

    ref = reference(case, cache)
    found.extend(_brute_force(case, ref))

    if case.workload == "certify":
        found.extend(_check_certify(case, ref, cache))
        return found

    expected = _expected_fields(case, ref)
    cells: Dict[str, Result] = {}
    for order in orders:
        session = Session(
            case.graph, case.d, seed=case.seed, inbox_order=order,
            cache=cache,
        )
        result = _run_cell(case, session)
        cells[order] = result
        cell = f"order={order}"
        if result.treedepth_exceeded:
            found.append(Discrepancy(
                case.case_id, "treedepth",
                f"promise d={case.d} rejected although the generator "
                "guarantees it", cell, note=case.note,
            ))
            continue
        got = _outcome_fields(case, result)
        if got != expected:
            found.append(Discrepancy(
                case.case_id, "verdict",
                f"distributed {got!r} != sequential {expected!r}",
                cell, note=case.note,
            ))

    found.extend(_check_null_plan(case, cells, cache))
    if case.plan is not None:
        found.extend(_check_lossy(case, ref, cache))
    return found


def _check_null_plan(
    case: Case,
    cells: Dict[str, Result],
    cache: AutomatonCache,
) -> List[Discrepancy]:
    """A null fault plan must be byte-for-byte invisible."""
    baseline = cells.get("arrival")
    if baseline is None or baseline.treedepth_exceeded:
        return []
    session = Session(
        case.graph, case.d, seed=case.seed, inbox_order="arrival",
        cache=cache, faults=FaultPlan(),
    )
    nulled = _run_cell(case, session)
    if (_byte_signature(nulled) != _byte_signature(baseline)
            or _outcome_fields(case, nulled) != _outcome_fields(case, baseline)):
        return [Discrepancy(
            case.case_id, "null-plan",
            f"null plan changed the run: {_byte_signature(nulled)!r} vs "
            f"{_byte_signature(baseline)!r}", "order=arrival",
            note=case.note,
        )]
    return []


def _check_lossy(
    case: Case, ref: Reference, cache: AutomatonCache
) -> List[Discrepancy]:
    """Lossy plan + retry: agree with the reference or fail closed."""
    session = Session(
        case.graph, case.d, seed=case.seed, faults=case.plan,
        retry=RetryPolicy(attempts=max(1, case.retry_attempts)),
        cache=cache,
    )
    try:
        result = _run_cell(case, session)
    except FaultToleranceExceeded:
        return []  # an explicit refusal is never wrong
    if result.treedepth_exceeded:
        return []
    got = _outcome_fields(case, result)
    expected = _expected_fields(case, ref)
    if got != expected:
        return [Discrepancy(
            case.case_id, "lossy-verdict",
            f"under {case.plan.describe()} the pipeline answered {got!r} "
            f"instead of {expected!r} (silently wrong)",
            f"retries={case.retry_attempts}", note=case.note,
        )]
    return []


def replay_roundtrip_check(
    case: Case, cache: Optional[AutomatonCache] = None
) -> List[Discrepancy]:
    """``Result.replay_args`` must survive JSON and reproduce the run.

    Runs the case once, pushes the session's replay arguments through
    their JSON encoding (exactly what a
    :class:`~repro.obs.reports.RunReport` stores), rebuilds a session
    with :meth:`repro.api.Session.from_replay`, and demands the rerun be
    byte-identical.  A fail-closed original run is fine — there is no
    result to replay — but a replay that diverges from a completed run
    breaks the reproducibility contract.
    """
    import json as _json

    cache = cache if cache is not None else AutomatonCache(persist=False)
    retry = (
        RetryPolicy(attempts=max(1, case.retry_attempts))
        if case.plan is not None else None
    )
    session = Session(
        case.graph, case.d, seed=case.seed, faults=case.plan, retry=retry,
        cache=cache,
    )
    try:
        original = _run_cell(case, session)
    except FaultToleranceExceeded:
        return []
    encoded = _json.loads(_json.dumps(session._replay_json()))
    rebuilt = Session.from_replay(case.graph, case.d, encoded, cache=cache)
    try:
        rerun = _run_cell(case, rebuilt)
    except FaultToleranceExceeded:
        return [Discrepancy(
            case.case_id, "replay",
            "original run completed but its replay failed closed",
            note=case.note,
        )]
    if (_byte_signature(rerun) != _byte_signature(original)
            or _outcome_fields(case, rerun) != _outcome_fields(case, original)):
        return [Discrepancy(
            case.case_id, "replay",
            f"replayed run {_outcome_fields(case, rerun)!r}/"
            f"{_byte_signature(rerun)!r} != original "
            f"{_outcome_fields(case, original)!r}/"
            f"{_byte_signature(original)!r}", note=case.note,
        )]
    return []


def _check_certify(
    case: Case, ref: Reference, cache: AutomatonCache
) -> List[Discrepancy]:
    """certify accepts exactly the sequentially-true formulas."""
    session = Session(case.graph, case.d, seed=case.seed, cache=cache)
    try:
        result = session.certify(case.formula)
    except CertificationError:
        if ref.verdict:
            return [Discrepancy(
                case.case_id, "certify",
                "prover refused a sequentially-true formula",
                note=case.note,
            )]
        return []
    if not ref.verdict:
        return [Discrepancy(
            case.case_id, "certify",
            "prover certified a sequentially-false formula", note=case.note,
        )]
    if result.verdict is not True:
        return [Discrepancy(
            case.case_id, "certify",
            f"verifier rejected a valid certificate "
            f"(verdict={result.verdict!r})", note=case.note,
        )]
    return []
