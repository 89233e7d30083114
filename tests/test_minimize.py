"""Tests for the kernel state-space reduction (:mod:`repro.algebra.minimize`).

The acceptance bar: minimization never changes an answer (verdict, count,
optimum, witness); redundant
kernels actually shrink; budget caps fall back to the raw automaton
instead of stalling, and a fallback leaves no trace in the automaton or
its cache entry; and the quotient map is applied per boundary level
(one state value may occur at several levels with distinct classes).
"""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import check as sequential_check
from repro.algebra import compile_formula, compile_with_singletons
from repro.algebra import cache as cache_module
from repro.algebra.automata import (
    ProjectionAutomaton,
    component_automata,
    op_tables,
)
from repro.algebra.cache import AutomatonCache, transition_table_bytes
from repro.algebra.minimize import (
    DEFAULT_BUDGET,
    MinimizationBudget,
    _tree_size,
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


# -- the size budget --------------------------------------------------------

def _naive_size(value) -> int:
    if isinstance(value, (tuple, list, frozenset, set)):
        return 1 + sum(_naive_size(item) for item in value)
    return 1


@st.composite
def _shared_values(draw):
    """Nested tuples and frozensets built from one pool, so they share
    sub-objects the way hash-consed states do."""
    atoms = st.integers(-3, 3) | st.booleans() | st.just(())
    pool = draw(st.lists(atoms, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 8))):
        members = draw(st.lists(st.sampled_from(pool), max_size=3))
        pool.append(tuple(members) if draw(st.booleans())
                    else frozenset(members))
    return pool


@settings(max_examples=200, deadline=None)
@given(_shared_values(), st.integers(0, 40))
def test_memoized_tree_size_is_the_saturated_tree_count(values, cap):
    memo = {}  # one memo across values, as one closure keeps
    for value in reversed(values):
        assert _tree_size(value, cap, memo) \
            == min(_naive_size(value), cap + 1)
    for value in values:  # and again, now answered from the memo
        assert _tree_size(value, cap, memo) \
            == min(_naive_size(value), cap + 1)


def _scope(phi):
    """A formula's free variables in the order a Session gives them."""
    return tuple(sorted(sx.free_variables(phi), key=lambda v: v.name))


def _compile(phi):
    scope = _scope(phi)
    if any(not v.sort.is_set for v in scope):
        return compile_with_singletons(phi, scope)
    return compile_formula(phi, scope)


#: Per formula, the closure's outcome at d = 2, 3, 4: None for a budget
#: fallback, else MinimizationStats' (total, reachable, minimized).  The
#: formulas are `repro check --catalog`'s plus the session benchmark's
#: count/optimize formulas and its triangle-free spelling.  Recorded
#: before the closure had a size memo or a rollback; neither may move a
#: single decision.
PINNED_VERDICTS = {
    "2-colorable": (lambda: formulas.k_colorable(2),
                    ((18, 15, 9), None, None)),
    "3-colorable": (lambda: formulas.k_colorable(3), (None, None, None)),
    "acyclic": (formulas.acyclic, ((12, 10, 6), (122, 95, 15), None)),
    "c4-free": (lambda: formulas.h_free(gen.cycle(4)),
                ((5, 5, 4), None, None)),
    "claw-free": (lambda: formulas.h_free(gen.claw()),
                  ((12, 10, 10), (85, 67, 40), None)),
    "connected": (formulas.connected, ((52, 39, 13), None, None)),
    "dominating-set": (formulas.dominating_set, ((137, 107, 14), None, None)),
    "edge-3-colorable": (lambda: formulas.edge_k_colorable(3),
                         (None, None, None)),
    "h-free-triangle": (lambda: formulas.h_free(gen.triangle()),
                        ((5, 5, 4), (22, 20, 13), None)),
    "hamiltonian": (formulas.hamiltonian_cycle_exists, (None, None, None)),
    "has-cubic-subgraph": (formulas.has_cubic_subgraph,
                           ((14, 11, 6), (101, 80, 12), None)),
    "has-even-subgraph": (formulas.has_even_subgraph,
                          ((10, 9, 6), (47, 41, 15), (206, 178, 30))),
    "independent-set": (formulas.independent_set,
                        ((11, 11, 9), (31, 31, 21), (71, 71, 43))),
    "non-3-colorable": (lambda: formulas.not_k_colorable(3),
                        (None, None, None)),
    "perfect-matching": (formulas.has_perfect_matching,
                         ((21, 15, 9), (311, 224, 32), None)),
    "triangle-assignment": (lambda: formulas.triangle_assignment()[0],
                            ((746, 636, 30), None, None)),
    "triangle-free": (formulas.triangle_free, (None, None, None)),
    "two-clique-cover": (lambda: formulas.partition_into_k_cliques(2),
                         ((41, 28, 14), None, None)),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERDICTS))
def test_catalogue_verdicts_and_stats_are_pinned(name):
    factory, expected = PINNED_VERDICTS[name]
    outcomes = []
    for d in (2, 3, 4):
        wrapper = minimize_automaton(_compile(factory()), d=d)
        outcomes.append(None if wrapper is None else (
            wrapper.stats.states_total,
            wrapper.stats.states_reachable,
            wrapper.stats.states_minimized,
        ))
    assert tuple(outcomes) == expected


# -- a fallback leaves no trace ---------------------------------------------

#: The benchmark's budget fallbacks: formula, d and the query that runs it.
FALLBACKS = {
    "connected-d3": (formulas.connected, 3, "decide"),
    "3-colorable-d3": (lambda: formulas.k_colorable(3), 3, "decide"),
    "acyclic-d4": (formulas.acyclic, 4, "decide"),
    "dominating-set-d3": (formulas.dominating_set, 3, "optimize"),
}


def _ask(session, kind, phi):
    if kind == "decide":
        return session.decide(phi)
    return session.optimize(phi, sense="min")


def _signature(result):
    return (result.verdict, result.value, result.witness, result.rounds,
            result.messages, result.max_payload_bits, result.num_classes)


def _warm(cache, phi, d, kind):
    """Two raw-automaton queries: a snapshot plus two journal deltas."""
    for seed in (1, 2):
        graph = gen.random_bounded_treedepth(10, d, seed=seed)
        _ask(Session(graph, d, minimize=False, cache=cache), kind, phi)
    return cache.automaton_with_codec(phi, _scope(phi), d=d)


def _footprint(automaton):
    return (
        transition_table_bytes(automaton),
        [tuple(map(len, op_tables(component)))
         for component in component_automata(automaton)],
        [len(component._states)
         for component in component_automata(automaton)],
    )


def _records(path):
    """Every record of an entry journal, unpickled as a load would."""
    data = path.read_bytes()
    spans, rejected = cache_module._verified_spans(data)
    assert rejected == 0
    stream = io.BytesIO(data)
    unpickler = pickle.Unpickler(stream)
    records = []
    for start, _end in spans:
        stream.seek(start)
        records.append(unpickler.load())
    return records


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_a_fallback_leaves_no_trace(case, tmp_path):
    factory, d, kind = FALLBACKS[case]
    phi = factory()
    writer = AutomatonCache(tmp_path)
    automaton, _codec = _warm(writer, phi, d, kind)
    (key,) = writer._memory
    assert writer._records[key] == 3

    # An entry loaded from the journal: snapshot plus two deltas.
    reader = AutomatonCache(tmp_path)
    loaded, _ = reader.automaton_with_codec(phi, _scope(phi), d=d)
    assert reader._records[key] == 3
    for entry in (loaded, automaton):
        before = _footprint(entry)
        assert minimized_automaton(entry, d=d) is None
        assert _footprint(entry) == before

    # The writer's next save appends the memoized fallback and nothing else.
    path = tmp_path / f"{key}.pkl"
    assert writer.save_warm() == 1
    records = _records(path)
    assert len(records) == 4
    parts, new_classes = records[-1]
    assert new_classes == []
    for index, (tails, new_variants, wrapper_tails) in enumerate(parts):
        assert tails == [{}, {}, {}, {}]
        assert wrapper_tails == []
        assert new_variants == ({(d, ()): None} if index == 0 else {})

    # A later query runs as it would on an automaton that never saw the
    # closure: same answer, transcript counts, tables and codec.
    twin = AutomatonCache(persist=False)
    twin_automaton, twin_codec = _warm(twin, phi, d, kind)
    star = gen.star(5)  # a shallow forest: the run consults the variant
    ran = _ask(Session(star, d, cache=writer), kind, phi)
    expected = _ask(Session(star, d, minimize=False, cache=twin), kind, phi)
    assert _signature(ran) == _signature(expected)
    assert transition_table_bytes(automaton) \
        == transition_table_bytes(twin_automaton)
    assert writer._memory[key][1]._by_id == twin_codec._by_id


def test_an_error_mid_closure_rolls_back_and_propagates(monkeypatch):
    phi = formulas.k_colorable(3)
    cache = AutomatonCache(persist=False)
    automaton, _codec = _warm(cache, phi, 3, "decide")
    before = _footprint(automaton)
    projections = [
        component for component in component_automata(automaton)
        if isinstance(component, ProjectionAutomaton)
    ]
    innermost = projections[-1]
    assert innermost._rows  # the warm-up left memoized rows
    inner = innermost._inner
    classes = len(inner._intern)
    glue = inner.glue
    calls = []

    def failing_glue(*args):
        calls.append(len(inner._intern))
        if len(calls) > 500:
            raise RuntimeError("injected")
        return glue(*args)

    monkeypatch.setattr(inner, "glue", failing_glue)
    with pytest.raises(RuntimeError, match="injected"):
        minimized_automaton(automaton, d=3)
    assert calls[-1] > classes  # the closure had grown the tables
    monkeypatch.undo()
    assert _footprint(automaton) == before
    assert (3, ()) not in cache_module._variants(automaton)
    for projection in projections:
        intern = projection._inner._intern
        for (_boundary, subset), (order, rows) in projection._rows.items():
            assert subset in projection._intern
            for state in (*order, *rows, *(s for r in rows.values()
                                           for s in r)):
                assert state in intern
