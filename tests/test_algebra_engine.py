"""Courcelle engine vs brute-force semantics: the core correctness tests.

Every catalog formula is checked on a zoo of small graphs against
``repro.mso.semantics`` (and the direct graph oracles), over several
elimination forests — including deliberately non-optimal ones, since
correctness must not depend on the forest's depth.
"""

import pytest

from repro.algebra import check, check_assignment, compile_formula, count, optimize
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph import properties as props
from repro.mso import (
    count_satisfying_assignments,
    edge_set,
    evaluate,
    formulas,
    parse,
    vertex_set,
)
from repro.mso import optimize as brute_optimize
from repro.treedepth import dfs_elimination_forest, optimal_elimination_forest


def graph_zoo():
    return [
        Graph([0]),
        gen.path(2),
        gen.path(5),
        gen.cycle(3),
        gen.cycle(4),
        gen.cycle(5),
        gen.star(3),
        gen.clique(4),
        gen.paw(),
        gen.diamond(),
        gen.caterpillar(3, 1),
        gen.random_connected_graph(6, 3, seed=1),
        gen.random_bounded_treedepth(7, 3, seed=2),
    ]


def forests_for(g):
    yield optimal_elimination_forest(g)
    yield dfs_elimination_forest(g)


# Each entry: formula, fast ground-truth oracle.  (The oracles themselves
# are cross-validated against the brute-force MSO semantics on tiny graphs
# in test_mso_semantics.py, so this closes the loop without paying the
# exponential cost of `evaluate` on every zoo graph.)
CLOSED_FORMULAS = {
    "triangle_free": (
        formulas.triangle_free(),
        lambda g: not props.has_subgraph(g, gen.triangle()),
    ),
    "acyclic": (formulas.acyclic(), props.is_acyclic),
    "connected": (formulas.connected(), lambda g: g.is_connected()),
    "2_colorable": (formulas.k_colorable(2), lambda g: props.is_k_colorable(g, 2)),
    "non_3_colorable": (
        formulas.not_k_colorable(3),
        lambda g: not props.is_k_colorable(g, 3),
    ),
    "hamiltonian": (
        formulas.hamiltonian_cycle_exists(),
        props.has_hamiltonian_cycle,
    ),
    "perfect_matching": (
        formulas.has_perfect_matching(),
        lambda g: g.num_vertices() % 2 == 0
        and props.max_matching_size(g) * 2 == g.num_vertices(),
    ),
    "degree_gt_2": (
        formulas.exists_vertex_of_degree_greater(2),
        lambda g: props.max_degree(g) > 2,
    ),
    "c4_free": (
        formulas.h_free(gen.cycle(4)),
        lambda g: not props.has_subgraph(g, gen.cycle(4)),
    ),
    "claw_free": (
        formulas.h_free(gen.claw()),
        lambda g: not props.has_subgraph(g, gen.claw()),
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMULAS))
def test_engine_matches_oracles(name):
    formula, oracle = CLOSED_FORMULAS[name]
    automaton = compile_formula(formula, ())
    for g in graph_zoo():
        expected = oracle(g)
        for forest in forests_for(g):
            assert check(formula, g, forest, automaton) == expected, (name, g)


@pytest.mark.parametrize(
    "name", ["triangle_free", "acyclic", "connected", "2_colorable"]
)
def test_engine_matches_brute_force_semantics_on_tiny_graphs(name):
    formula, _ = CLOSED_FORMULAS[name]
    automaton = compile_formula(formula, ())
    for g in [gen.path(4), gen.cycle(4), gen.star(3), gen.paw(),
              gen.random_connected_graph(5, 2, seed=9)]:
        expected = evaluate(g, formula)
        forest = optimal_elimination_forest(g)
        assert check(formula, g, forest, automaton) == expected, (name, g)


def test_engine_on_disconnected_graphs():
    from repro.graph import disjoint_union

    g = disjoint_union(gen.cycle(3), gen.path(3))
    forest = optimal_elimination_forest(g)
    assert not check(formulas.connected(), g, forest)
    assert not check(formulas.triangle_free(), g, forest)
    assert not check(formulas.acyclic(), g, forest)
    g2 = disjoint_union(gen.path(2), gen.path(2))
    forest2 = optimal_elimination_forest(g2)
    assert check(formulas.acyclic(), g2, forest2)
    assert check(formulas.has_perfect_matching(), g2, forest2)

    # Three components: optimize and count fold the roots with two glues
    # at the empty boundary.
    g3 = disjoint_union(disjoint_union(gen.cycle(3), gen.path(3)), gen.path(2))
    forest3 = optimal_elimination_forest(g3)
    assert len(forest3.roots()) == 3
    s = vertex_set("S")
    independent, dominating = formulas.independent_set(s), formulas.dominating_set(s)
    for phi, maximize, value in ((independent, True, 4), (dominating, False, 3)):
        result = optimize(phi, g3, forest3, s, maximize=maximize)
        assert result.value == value
        assert len(result.witness) == value
        assert evaluate(g3, phi, {s: result.witness})
        assert brute_optimize(g3, phi, s, maximize=maximize)[0] == value
    for phi, total in ((independent, 60), (dominating, 105)):
        assert count(phi, g3, forest3, (s,)) == total
        assert count_satisfying_assignments(g3, phi, (s,)) == total


def test_engine_rejects_invalid_forest():
    from repro.errors import DecompositionError
    from repro.treedepth import EliminationForest

    g = Graph(range(3), [(0, 1), (1, 2)])
    bad = EliminationForest({0: None, 1: 0, 2: 0})
    with pytest.raises(DecompositionError):
        check(formulas.acyclic(), g, bad)


def test_engine_empty_graph_falls_back():
    g = Graph()
    from repro.treedepth import EliminationForest

    forest = EliminationForest({})
    assert check(formulas.triangle_free(), g, forest)


def test_labeled_decision():
    g = gen.path(3)
    for v, lab in [(0, "red"), (1, "blue"), (2, "red")]:
        g.add_vertex_label(v, lab)
    forest = optimal_elimination_forest(g)
    formula = formulas.properly_2_labeled()
    assert check(formula, g, forest) == evaluate(g, formula)
    bad = gen.path(3)
    bad.add_vertex_label(0, "red")
    bad.add_vertex_label(1, "red")
    bad.add_vertex_label(2, "blue")
    forest_bad = optimal_elimination_forest(bad)
    assert check(formula, bad, forest_bad) == evaluate(bad, formula)


def test_edge_labeled_decision():
    g = gen.path(3)
    g.add_edge_label(0, 1, "marked")
    forest = optimal_elimination_forest(g)
    f = parse("exists e:E . label(marked, e)")
    assert check(f, g, forest)
    g2 = gen.path(3)
    assert not check(f, g2, optimal_elimination_forest(g2))


def test_check_assignment_matches_semantics():
    s = vertex_set("S")
    formula = formulas.independent_set(s)
    g = gen.cycle(5)
    forest = optimal_elimination_forest(g)
    automaton = compile_formula(formula, (s,))
    for subset in [frozenset(), frozenset({0, 2}), frozenset({0, 1}), frozenset({1, 3})]:
        expected = evaluate(g, formula, {s: subset})
        assert (
            check_assignment(formula, g, forest, {s: subset}, automaton) == expected
        )


def test_check_assignment_edge_set():
    m = edge_set("M")
    formula = formulas.matching(m)
    g = gen.path(4)
    forest = optimal_elimination_forest(g)
    assert check_assignment(formula, g, forest, {m: frozenset({(0, 1), (2, 3)})})
    assert not check_assignment(formula, g, forest, {m: frozenset({(0, 1), (1, 2)})})


# ----------------------------------------------------------------------
# Optimization (Lemma 4.6)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory,maximize,oracle",
    [
        (formulas.independent_set, True, props.max_independent_set),
        (formulas.vertex_cover, False, props.min_vertex_cover),
        (formulas.dominating_set, False, props.min_dominating_set),
    ],
)
def test_optimize_vertex_sets_match_bruteforce(factory, maximize, oracle):
    s = vertex_set("S")
    formula = factory(s)
    automaton = compile_formula(formula, (s,))
    for g in [gen.path(5), gen.cycle(5), gen.star(4), gen.paw(),
              gen.random_connected_graph(6, 3, seed=4)]:
        forest = optimal_elimination_forest(g)
        result = optimize(formula, g, forest, s, maximize=maximize, automaton=automaton)
        assert result is not None
        expected_value, _ = oracle(g)
        assert result.value == expected_value, g
        # The witness itself must satisfy the predicate with the right weight.
        assert evaluate(g, formula, {s: result.witness})
        assert len(result.witness) == expected_value


def test_optimize_weighted_independent_set():
    g = gen.path(4)
    g.set_vertex_weight(0, 2)
    g.set_vertex_weight(1, 10)
    g.set_vertex_weight(2, 2)
    g.set_vertex_weight(3, 2)
    s = vertex_set("S")
    formula = formulas.independent_set(s)
    forest = optimal_elimination_forest(g)
    result = optimize(formula, g, forest, s, maximize=True)
    assert result is not None
    assert result.value == 12  # {1, 3}
    assert result.witness == frozenset({1, 3})


def test_optimize_max_matching():
    m = edge_set("M")
    formula = formulas.matching(m)
    for g in [gen.path(5), gen.cycle(5), gen.star(4)]:
        forest = optimal_elimination_forest(g)
        result = optimize(formula, g, forest, m, maximize=True)
        assert result is not None
        assert result.value == props.max_matching_size(g)
        assert props.is_matching(g, result.witness)


def test_optimize_minimum_spanning_tree():
    g = gen.cycle(4)
    g.set_edge_weight(0, 1, 5)
    g.set_edge_weight(1, 2, 1)
    g.set_edge_weight(2, 3, 1)
    g.set_edge_weight(0, 3, 1)
    t = edge_set("T")
    formula = formulas.spanning_tree(t)
    forest = optimal_elimination_forest(g)
    result = optimize(formula, g, forest, t, maximize=False)
    assert result is not None
    assert result.value == props.min_spanning_tree_weight(g) == 3
    assert props.is_spanning_tree(g, result.witness)


def test_optimize_infeasible():
    # A clique has no spanning tree made of non-edges... use an impossible
    # predicate instead: an independent set that is also the whole K3.
    from repro.mso import IncCounts, and_

    g = gen.path(2)
    t = edge_set("T")
    impossible = and_(
        formulas.matching(t), IncCounts(t, frozenset({2}))
    )  # matching with all degrees exactly 2
    forest = optimal_elimination_forest(g)
    assert optimize(impossible, g, forest, t) is None


def test_optimize_min_feedback_vertex_set():
    s = vertex_set("S")
    formula = formulas.feedback_vertex_set(s)
    for g in [gen.cycle(4), gen.paw(), gen.diamond()]:
        forest = optimal_elimination_forest(g)
        result = optimize(formula, g, forest, s, maximize=False)
        assert result is not None
        expected, _ = props.min_feedback_vertex_set(g)
        assert result.value == expected
        assert props.is_feedback_vertex_set(g, result.witness)


# ----------------------------------------------------------------------
# Counting (Section 6)
# ----------------------------------------------------------------------

def test_count_triangles_matches_enumeration():
    from repro.algebra.compiler import compile_with_singletons

    formula, variables = formulas.triangle_assignment()
    automaton = compile_with_singletons(formula, variables)
    for g in [gen.clique(4), gen.cycle(5), gen.paw(), gen.diamond()]:
        forest = optimal_elimination_forest(g)
        got = count(formula, g, forest, variables, automaton)
        assert got == 6 * props.count_triangles(g), g


def test_count_independent_sets():
    s = vertex_set("S")
    formula = formulas.independent_set(s)
    for g in [gen.path(4), gen.cycle(4), gen.star(3)]:
        forest = optimal_elimination_forest(g)
        got = count(formula, g, forest, (s,))
        expected = count_satisfying_assignments(g, formula, (s,))
        assert got == expected, g


def test_count_perfect_matchings():
    m = edge_set("M")
    formula = formulas.perfect_matching(m)
    g = gen.cycle(4)
    forest = optimal_elimination_forest(g)
    assert count(formula, g, forest, (m,)) == 2
    g2 = gen.clique(4)
    assert count(formula, g2, optimal_elimination_forest(g2), (m,)) == 3


def test_num_classes_is_positive_and_reported():
    formula = formulas.triangle_free()
    automaton = compile_formula(formula, ())
    g = gen.clique(4)
    check(formula, g, optimal_elimination_forest(g), automaton)
    assert automaton.num_classes() > 0
