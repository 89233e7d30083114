"""Metamorphic relations: transformations that must not change answers.

A differential oracle needs a reference; a metamorphic relation needs
only the system under test.  Each relation below derives a follow-up
case from a source case and states how the answers must relate:

* **isomorphism invariance** — relabeling vertices by a seeded
  permutation preserves verdicts, optima, and counts (MSO cannot see
  vertex identities);
* **label permutation** — consistently renaming ``red``/``blue`` in the
  graph *and* the formula preserves the answer;
* **disjoint-union composition** — for the hereditary, component-wise
  catalog formulas (H-freeness, acyclicity, 2-colorability) the verdict
  on ``G₁ ⊎ G₂`` is the conjunction of the parts' verdicts (checked
  through the sequential engine: the CONGEST pipeline needs a connected
  network, the algebra does not);
* **seed independence** — the simulator seed and delivery order
  permute message arrival, never answers: every (seed, inbox order)
  perturbation of a fault-free run returns the same verdict/value/count.

All relations report :class:`~repro.testkit.oracles.Discrepancy` values,
so the fuzz runner treats them exactly like differential failures.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence

from ..algebra import check as seq_check
from ..algebra.cache import AutomatonCache
from ..api import Session
from ..graph import Graph
from ..graph.graph import disjoint_union, relabeled
from ..mso import syntax as sx
from ..treedepth import best_heuristic_forest
from .cases import Case
from .oracles import (
    Discrepancy,
    Reference,
    _expected_fields,
    _outcome_fields,
    _run_cell,
    sequential_reference,
)

__all__ = [
    "check_metamorphic",
    "isomorphism_relation",
    "label_permutation_relation",
    "seed_independence_relation",
    "union_relation",
]

_LABEL_SWAP = {"red": "blue", "blue": "red"}


def _permuted(graph: Graph, seed: int) -> Graph:
    vertices = graph.vertices()
    shuffled = list(vertices)
    random.Random(seed).shuffle(shuffled)
    # Map onto a disjoint id range first so the relabeling is collision-free.
    n = graph.num_vertices()
    offset = {v: i + 10 ** 6 for i, v in enumerate(vertices)}
    staged = relabeled(graph, offset)
    final = {offset[v]: target for v, target in zip(vertices, shuffled)}
    return relabeled(staged, final)


def _swap_graph_labels(graph: Graph) -> Graph:
    out = Graph(graph.vertices(), graph.edges())
    for v in graph.vertices():
        out.set_vertex_weight(v, graph.vertex_weight(v))
        for label in graph.vertex_labels(v):
            out.add_vertex_label(v, _LABEL_SWAP.get(label, label))
    for u, v in graph.edges():
        out.set_edge_weight(u, v, graph.edge_weight(u, v))
        for label in graph.edge_labels(u, v):
            out.add_edge_label(u, v, _LABEL_SWAP.get(label, label))
    return out


def _swap_formula_labels(formula: sx.Formula) -> sx.Formula:
    """Rename labels throughout a formula tree."""
    if isinstance(formula, (sx.HasLabel, sx.AllHaveLabel)):
        return dataclasses.replace(
            formula, label=_LABEL_SWAP.get(formula.label, formula.label)
        )
    if isinstance(formula, sx.Not):
        return sx.Not(_swap_formula_labels(formula.inner))
    if isinstance(formula, sx.And):
        return sx.And(tuple(_swap_formula_labels(p) for p in formula.parts))
    if isinstance(formula, sx.Or):
        return sx.Or(tuple(_swap_formula_labels(p) for p in formula.parts))
    if isinstance(formula, sx.Exists):
        return sx.Exists(formula.var, _swap_formula_labels(formula.body))
    if isinstance(formula, sx.Forall):
        return sx.Forall(formula.var, _swap_formula_labels(formula.body))
    return formula


def _answers(case: Case, cache: AutomatonCache):
    """(verdict, value/count) of a fault-free batched/arrival run."""
    session = Session(case.graph, case.d, seed=case.seed, cache=cache)
    return _outcome_fields(case, _run_cell(case, session))


def isomorphism_relation(
    case: Case, cache: AutomatonCache, ref: Reference
) -> List[Discrepancy]:
    """Vertex relabeling must not change any answer."""
    iso = case.with_graph(_permuted(case.graph, case.seed + 1), d=case.d)
    got = _answers(iso, cache)
    expected = _expected_fields(case, ref)
    if got != expected:
        return [Discrepancy(
            case.case_id, "metamorphic-isomorphism",
            f"relabeled graph answered {got!r} instead of {expected!r}",
            note=case.note,
        )]
    return []


def label_permutation_relation(
    case: Case, cache: AutomatonCache, ref: Reference
) -> List[Discrepancy]:
    """Renaming red↔blue in graph *and* formula preserves the answer."""
    swapped = dataclasses.replace(
        case,
        graph=_swap_graph_labels(case.graph),
        formula=_swap_formula_labels(case.formula),
    )
    got = _answers(swapped, cache)
    expected = _expected_fields(case, ref)
    if got != expected:
        return [Discrepancy(
            case.case_id, "metamorphic-labels",
            f"label-permuted case answered {got!r} instead of {expected!r}",
            note=case.note,
        )]
    return []


def seed_independence_relation(
    case: Case, cache: AutomatonCache, ref: Reference,
    *,
    seeds: Sequence[int] = (1, 2),
    orders: Sequence[str] = ("shuffle", "reversed"),
) -> List[Discrepancy]:
    """Fault-free answers are invariant under (seed, inbox order)."""
    expected = _expected_fields(case, ref)
    found: List[Discrepancy] = []
    for extra_seed in seeds:
        for order in orders:
            session = Session(
                case.graph, case.d, seed=case.seed + extra_seed,
                inbox_order=order, cache=cache,
            )
            got = _outcome_fields(case, _run_cell(case, session))
            if got != expected:
                found.append(Discrepancy(
                    case.case_id, "metamorphic-seed",
                    f"seed+{extra_seed}/{order} answered {got!r} "
                    f"instead of {expected!r}", note=case.note,
                ))
    return found


def union_relation(
    case: Case, cache: AutomatonCache, ref: Reference,
    other: Optional[Graph] = None,
) -> List[Discrepancy]:
    """verdict(G₁ ⊎ G₂) == verdict(G₁) ∧ verdict(G₂) for hereditary φ.

    Only sound for component-wise formulas (the generator tags them with
    ``union`` in the case note); checked sequentially because the CONGEST
    pipeline requires a connected network.
    """
    if other is None:
        other = _permuted(case.graph, case.seed + 7)
    union = disjoint_union(case.graph, other)
    forest = best_heuristic_forest(union)
    left = ref.verdict
    right_case = case.with_graph(other, d=case.d)
    right = sequential_reference(right_case, cache).verdict
    got = seq_check(case.formula, union, forest)
    if got != (left and right):
        return [Discrepancy(
            case.case_id, "metamorphic-union",
            f"verdict(G1 ⊎ G2)={got!r} but parts say {left!r} ∧ {right!r}",
            note=case.note,
        )]
    return []


def check_metamorphic(
    case: Case,
    *,
    cache: Optional[AutomatonCache] = None,
    ref: Optional[Reference] = None,
) -> List[Discrepancy]:
    """Run every relation applicable to ``case`` (fault axis excluded)."""
    cache = cache if cache is not None else AutomatonCache(persist=False)
    base = dataclasses.replace(case, plan=None, retry_attempts=0)
    if ref is None:
        ref = sequential_reference(base, cache)
    found: List[Discrepancy] = []
    found.extend(isomorphism_relation(base, cache, ref))
    found.extend(label_permutation_relation(base, cache, ref))
    found.extend(seed_independence_relation(base, cache, ref))
    if base.workload in ("decide", "certify") and "/union/" in f"/{base.note}/":
        found.extend(union_relation(base, cache, ref))
    return found
