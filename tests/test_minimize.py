"""Tests for the kernel state-space reduction (:mod:`repro.algebra.minimize`).

The acceptance bar: minimization never changes an answer (verdict, count,
optimum, witness); redundant
kernels actually shrink; budget caps fall back to the raw automaton
instead of stalling; and the quotient map is applied per boundary level
(one state value may occur at several levels with distinct classes).
"""

import pytest

from repro.algebra import check as sequential_check
from repro.algebra import compile_formula
from repro.algebra.cache import AutomatonCache
from repro.algebra.minimize import (
    DEFAULT_BUDGET,
    MinimizationBudget,
    graph_label_alphabet,
    minimization_stats,
    minimize_automaton,
    minimized_automaton,
)
from repro.api import Session
from repro.graph import generators as gen
from repro.mso import formulas
from repro.mso import syntax as sx
from repro.obs.registry import registry


@pytest.fixture(scope="module")
def network():
    return gen.random_bounded_treedepth(12, 3, seed=5)


# -- the passes themselves --------------------------------------------------

def test_acyclic_kernel_shrinks_within_budget():
    wrapper = minimize_automaton(compile_formula(formulas.acyclic()), d=3)
    assert wrapper is not None
    stats = wrapper.stats
    assert 0 < stats.states_minimized < stats.states_reachable
    assert stats.states_reachable <= stats.states_total
    assert stats.reduction > 0


def test_redundant_disjunction_collapses_to_the_single_kernel():
    phi = formulas.acyclic()
    single = minimize_automaton(compile_formula(phi), d=3)
    doubled = minimize_automaton(
        compile_formula(sx.Or((phi, phi))), d=3
    )
    assert single is not None and doubled is not None
    # φ∨φ tracks the same information twice; the quotient must collapse
    # the duplicated product states back to (at most) φ's classes.
    assert doubled.stats.states_minimized <= single.stats.states_minimized
    assert doubled.stats.reduction >= single.stats.reduction


def test_triangle_assignment_reduction_meets_the_benchmark_gate():
    formula, variables = formulas.triangle_assignment()
    wrapper = minimize_automaton(compile_formula(formula, variables), d=3)
    assert wrapper is not None
    # The acceptance bar for the state-heavy counting kernel (E6).
    assert wrapper.stats.reduction >= 0.30


def test_budget_fallback_returns_none_and_is_memoized():
    automaton = compile_formula(formulas.acyclic())
    tiny = MinimizationBudget(max_states=4)
    assert minimize_automaton(automaton, d=3, budget=tiny) is None
    assert minimized_automaton(automaton, d=3, budget=tiny) is None
    # The fallback is memoized on the automaton: a later call with the
    # default budget must NOT retry the closure for the same key.
    assert minimized_automaton(automaton, d=3) is None


def test_minimized_automaton_memoizes_per_d_and_labels():
    automaton = compile_formula(formulas.acyclic())
    first = minimized_automaton(automaton, d=3)
    assert first is not None
    assert minimized_automaton(automaton, d=3) is first
    assert minimization_stats(automaton, d=3) is first.stats
    # A different promise is a different variant (and may fall back).
    assert minimization_stats(automaton, d=2) is None


def test_stats_peek_never_triggers_the_passes():
    automaton = compile_formula(formulas.acyclic())
    assert minimization_stats(automaton, d=3) is None
    assert not hasattr(automaton, "_minimized_variants") or \
        (3, ()) not in automaton._minimized_variants


def test_graph_label_alphabet_is_sorted_union():
    g = gen.path(3)
    g.add_vertex_label(0, "red")
    g.add_edge_label(1, 2, "backbone")
    g.add_vertex_label(2, "blue")
    assert graph_label_alphabet(g) == ("backbone", "blue", "red")


# -- the forest-depth gate (regression) -------------------------------------

def test_wrapper_records_its_closure_depth():
    wrapper = minimize_automaton(compile_formula(formulas.acyclic()), d=3)
    assert wrapper is not None
    assert wrapper.closure_depth == 3


_COVER = formulas.vertex_cover(sx.Var("C", sx.Sort.VERTEX_SET))

#: One Session query per pipeline.
DEEP_FOREST_QUERIES = {
    "decide": lambda session: session.decide(formulas.h_free(gen.triangle())),
    "optimize": lambda session: session.optimize(_COVER, sense="min"),
    "count": lambda session: session.count(_COVER),
}


def _bypasses() -> float:
    metric = registry().get("repro_minimize_depth_bypass_total")
    return metric.total() if metric is not None else 0.0


@pytest.mark.parametrize("workload", sorted(DEEP_FOREST_QUERIES))
def test_deep_forest_bypasses_the_quotient(workload):
    # Algorithm 2 recovers a depth-5 forest for C5 at d=3 (the paper
    # admits up to 2^d - 1 = 7); the closure only covers levels 0..3, so
    # every pipeline must run the raw automaton — applying the quotient
    # here once returned an infeasible vertex cover of size 2.
    answers, moved = {}, {}
    for minimize in (False, True):
        session = Session(
            gen.cycle(5), d=3, minimize=minimize,
            cache=AutomatonCache(persist=False),
        )
        before = _bypasses()
        result = DEEP_FOREST_QUERIES[workload](session)
        moved[minimize] = _bypasses() - before
        answers[minimize] = (
            result.verdict, result.value, result.witness, result.count
        )
        # A bypassed run must not report state counts it never used.
        assert result.report.states_total == 0
    assert moved == {False: 0, True: 1}
    assert answers[True] == answers[False]
    if workload == "optimize":
        assert answers[True][1] == 3


def test_deep_forest_decide_matches_sequential():
    from repro.treedepth import best_heuristic_forest

    phi = formulas.h_free(gen.triangle())
    g = gen.cycle(5)  # depth-5 recovered forest at d=3
    expected = sequential_check(phi, g, best_heuristic_forest(g))
    for minimize in (False, True):
        result = Session(
            g, d=3, minimize=minimize, cache=AutomatonCache(persist=False)
        ).decide(phi)
        assert result.verdict == expected


# -- per-level canonicalization (regression) --------------------------------

def test_quotient_is_keyed_per_boundary_level():
    wrapper = minimized_automaton(
        compile_formula(formulas.h_free(gen.triangle())), d=3
    )
    assert wrapper is not None
    quotient = wrapper._quotient
    assert set(quotient) == {0, 1, 2, 3}
    # The same state value may appear at several levels; canon must
    # resolve through the level's own table, not a global one.
    for level, table in quotient.items():
        for state, rep in table.items():
            assert wrapper.canon(level, state) is rep


def test_h_free_agrees_with_raw_on_regression_seeds():
    # Seeds that exposed the value-keyed (level-blind) quotient bug:
    # a leaf state canonicalized through another level's class.
    phi = formulas.h_free(gen.triangle())
    for seed in (17, 24):
        g = gen.random_bounded_treedepth(16, 3, seed=seed)
        raw = Session(g, d=3, minimize=False,
                      cache=AutomatonCache(persist=False)).decide(phi)
        minimized = Session(g, d=3, minimize=True,
                            cache=AutomatonCache(persist=False)).decide(phi)
        assert minimized.verdict == raw.verdict


# -- differential agreement across workloads --------------------------------

def _graphs():
    return [
        gen.random_bounded_treedepth(10, 3, seed=s) for s in (1, 2, 3)
    ]


def test_minimized_decide_matches_raw_and_sequential(network):
    from repro.treedepth import best_heuristic_forest

    phi = formulas.acyclic()
    for g in _graphs():
        expected = sequential_check(phi, g, best_heuristic_forest(g))
        for minimize in (False, True):
            result = Session(
                g, d=3, minimize=minimize,
                cache=AutomatonCache(persist=False),
            ).decide(phi)
            assert result.verdict == expected


def test_minimized_count_matches_raw():
    formula, _variables = formulas.triangle_assignment()
    for g in _graphs():
        raw = Session(g, d=3, minimize=False,
                      cache=AutomatonCache(persist=False)).count(formula)
        minimized = Session(g, d=3, minimize=True,
                            cache=AutomatonCache(persist=False)).count(formula)
        assert minimized.count == raw.count


def test_minimized_optimize_matches_raw_including_witness():
    var = sx.Var("M", sx.Sort.EDGE_SET)
    phi = formulas.matching(var)
    for g in _graphs():
        for sense in ("max", "min"):
            raw = Session(
                g, d=3, minimize=False, cache=AutomatonCache(persist=False)
            ).optimize(phi, sense=sense)
            minimized = Session(
                g, d=3, minimize=True, cache=AutomatonCache(persist=False)
            ).optimize(phi, sense=sense)
            assert minimized.verdict == raw.verdict
            assert minimized.value == raw.value
            assert minimized.witness == raw.witness


# -- reporting --------------------------------------------------------------

def test_run_report_carries_state_counts(network):
    result = Session(
        network, d=3, cache=AutomatonCache(persist=False)
    ).decide(formulas.acyclic())
    report = result.report
    assert report.states_total > 0
    assert report.states_minimized <= report.states_reachable
    assert report.states_reachable <= report.states_total
    fallback = Session(
        network, d=3, minimize=False, cache=AutomatonCache(persist=False)
    ).decide(formulas.acyclic())
    assert fallback.report.states_total == 0
