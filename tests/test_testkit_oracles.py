"""Tests for the differential oracle and the metamorphic relations.

Two directions matter equally: on the honest pipeline the oracle must
stay silent (Theorem 6.1 in executable form), and with a deliberately
broken reference it must light up — an oracle that cannot fire proves
nothing.
"""

import dataclasses

import pytest

from repro.algebra.cache import AutomatonCache
from repro.graph import generators as gen
from repro.mso import Sort, formulas
from repro.mso import syntax as sx
from repro.testkit import (
    Case,
    CaseGenerator,
    check_metamorphic,
    differential_check,
    mutant_reference,
    replay_roundtrip_check,
    sequential_reference,
)
from repro.testkit.mutants import mutant_optimize_value
from repro.testkit.oracles import Reference


@pytest.fixture(scope="module")
def cache():
    return AutomatonCache(persist=False)


def _case(**overrides):
    defaults = dict(graph=gen.path(4), d=3, formula=formulas.acyclic(),
                    workload="decide")
    defaults.update(overrides)
    return Case(**defaults)


# ----------------------------------------------------------------------
# The honest pipeline is conformant
# ----------------------------------------------------------------------

def test_generated_cases_are_conformant(cache):
    for case in CaseGenerator(8, max_vertices=9).cases(12):
        found = differential_check(case, cache=cache)
        assert found == [], [d.format() for d in found]


def test_metamorphic_relations_hold(cache):
    for case in CaseGenerator(12, max_vertices=8).cases(8):
        if case.workload == "certify":
            continue
        found = check_metamorphic(case, cache=cache)
        assert found == [], [d.format() for d in found]


def test_replay_roundtrip_is_byte_identical(cache):
    case = _case(seed=5)
    assert replay_roundtrip_check(case, cache) == []


def test_replay_roundtrip_with_fault_plan(cache):
    from repro.faults import FaultPlan

    case = _case(seed=5, plan=FaultPlan(seed=3, drop_rate=0.05),
                 retry_attempts=3)
    assert replay_roundtrip_check(case, cache) == []


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------

def test_sequential_reference_per_workload(cache):
    assert sequential_reference(_case(), cache).verdict is True
    triangle = _case(graph=gen.clique(3), formula=formulas.triangle_free())
    assert sequential_reference(triangle, cache).verdict is False

    s = sx.Var("S", Sort.VERTEX_SET)
    opt = _case(formula=formulas.independent_set(s), workload="optimize",
                scope=(s,))
    ref = sequential_reference(opt, cache)
    assert ref.verdict is True and ref.value == 2  # alternating path vertices

    x = sx.Var("x", Sort.VERTEX)
    cnt = _case(formula=sx.HasLabel(x, "red"), workload="count", scope=(x,))
    assert sequential_reference(cnt, cache).count == 0  # unlabeled path


def test_wrong_reference_fires_the_oracle(cache):
    case = _case()
    wrong = lambda c, _cache: Reference(verdict=False)
    found = differential_check(case, reference=wrong, cache=cache)
    kinds = {d.kind for d in found}
    # Brute force disagrees with the planted reference, and so does every
    # inbox-order cell.
    assert "algebra-vs-bruteforce" in kinds
    assert "verdict" in kinds
    assert all(d.case_id == case.case_id for d in found)


# ----------------------------------------------------------------------
# The planted mutant is detected
# ----------------------------------------------------------------------

def test_mutant_inflates_optimize_values(cache):
    s = sx.Var("S", Sort.VERTEX_SET)
    case = _case(formula=formulas.independent_set(s), workload="optimize",
                 scope=(s,))
    honest = sequential_reference(case, cache)
    mutated = mutant_optimize_value(case, cache)
    assert mutated != honest.value  # the off-by-one is visible


def test_mutant_reference_delegates_for_closed_workloads(cache):
    case = _case()
    assert mutant_reference(case, cache) == sequential_reference(case, cache)


def test_differential_check_catches_the_mutant(cache):
    s = sx.Var("S", Sort.VERTEX_SET)
    case = _case(formula=formulas.independent_set(s), workload="optimize",
                 scope=(s,))
    found = differential_check(case, reference=mutant_reference, cache=cache)
    assert any(d.kind == "verdict" for d in found)


# ----------------------------------------------------------------------
# Discrepancy ergonomics
# ----------------------------------------------------------------------

def test_discrepancy_format_and_note_equality():
    from repro.testkit import Discrepancy

    d = Discrepancy("ab" * 32, "verdict", "True != False",
                    cell="order=shuffle", note="x")
    assert "verdict [order=shuffle]" in d.format()
    assert d == dataclasses.replace(d, note="y")  # note is not identity
